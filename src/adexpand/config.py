"""Pipeline configuration file: a JSON object with one "parameters" section.

The PipelineConfig fields are the one table of the CLI's parameters: each
field's name, default and, in validate(), its range. The CLI lays the flags
a caller set over a config file's values (or the defaults) and validates the
result once, so a value meets the same check whether it came from a flag or
from the file, and a flag overrides a bad file value. load_config checks only
the file's shape: unknown keys are rejected and each parameter must have its
default's JSON kind (see errors.typed).
"""

from __future__ import annotations

from dataclasses import dataclass, fields

from .embeddings import MAX_DIM, MIN_DIM
from .errors import ParseError, parse_json, typed


@dataclass
class PipelineConfig:
    dim: int = 256
    clusters: int = 8
    seed: int = 7
    quantile_pct: float = 99.9999
    min_cluster_size: int = 10
    k_neighbors: int = 100
    trees: int = 100
    learning_rate: float = 0.1
    adjustment_trees: int = 2
    adjustment_depth: int = 5
    precision_target: float = 0.8

    def validate(self) -> None:
        if not MIN_DIM <= self.dim <= MAX_DIM:
            raise ParseError(f"dim must be in [{MIN_DIM}, {MAX_DIM}]")
        if self.clusters < 1:
            raise ParseError("clusters must be at least 1")
        if self.seed < 0:
            raise ParseError("seed must be non-negative")
        if not 0.0 < self.quantile_pct / 100.0 <= 1.0:  # the fraction must not round to 0
            raise ParseError("quantile_pct must be in (0, 100] and above 0 as a fraction")
        if self.min_cluster_size < 0:
            raise ParseError("min_cluster_size must be non-negative")
        if self.k_neighbors < 1:
            raise ParseError("k_neighbors must be at least 1")
        if self.trees < 1:
            raise ParseError("trees must be at least 1")
        if not 0.0 < self.learning_rate <= 2.0:
            raise ParseError("learning_rate must be in (0, 2]")
        if not 1 <= self.adjustment_trees <= 2:
            raise ParseError("adjustment_trees must be 1 or 2")
        if not 1 <= self.adjustment_depth <= 5:
            raise ParseError("adjustment_depth must be in [1, 5]")
        if not 0.0 < self.precision_target <= 1.0:
            raise ParseError("precision_target must be in (0, 1]")


def load_config(path: str) -> PipelineConfig:
    """The file's parameters over the defaults, not yet validated."""
    return parse_json(path, "config", _config_from_doc)


def _config_from_doc(doc: dict) -> PipelineConfig:
    unknown_sections = set(doc) - {"parameters"}
    if unknown_sections:
        raise ValueError(f"unknown sections {sorted(unknown_sections)}")
    parameters = typed(doc, "parameters", dict, {})
    unknown_params = set(parameters) - {f.name for f in fields(PipelineConfig)}
    if unknown_params:
        raise ValueError(f"unknown parameter keys {sorted(unknown_params)}")
    # each parameter has its default's kind; an int stands for a float
    defaults = PipelineConfig()
    return PipelineConfig(**{name: typed(parameters, name, type(getattr(defaults, name)))
                             for name in parameters})
