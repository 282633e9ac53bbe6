"""Pipeline configuration file: a JSON object with one "parameters" section.

The PipelineConfig fields are the one table of the CLI's parameters: each
field's name, default and, in validate(), its range. The CLI lays the flags
a caller set over a config file's values (or the defaults) and validates the
result once, so a value meets the same check whether it came from a flag or
from the file, and a flag overrides a bad file value. load_config checks only
the file's shape: unknown keys are rejected and each parameter must have its
default's JSON type.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

from .embeddings import MAX_DIM, MIN_DIM
from .errors import ParseError, parse_json


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
        if not 0.0 < self.quantile_pct <= 100.0:
            raise ParseError("quantile_pct must be in (0, 100]")
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


def _check_type(path: str, name: str, value, default) -> None:
    """A parameter must have its default's JSON type; an int stands for a float."""
    number = isinstance(default, float)
    if isinstance(value, bool) or not isinstance(value, (int, float) if number else int):
        expected = "a number" if number else "int"
        raise ParseError(f"{path}: parameter {name!r} must be {expected}, got {value!r}")


def load_config(path: str) -> PipelineConfig:
    """The file's parameters over the defaults, not yet validated."""
    doc = parse_json(path, "config")
    if not isinstance(doc, dict):
        raise ParseError(f"{path}: a config must be a JSON object")
    unknown_sections = set(doc) - {"parameters"}
    if unknown_sections:
        raise ParseError(f"{path}: unknown sections {sorted(unknown_sections)}")
    parameters = doc.get("parameters", {})
    if not isinstance(parameters, dict):
        raise ParseError(f"{path}: section 'parameters' must be an object")
    unknown_params = set(parameters) - {f.name for f in fields(PipelineConfig)}
    if unknown_params:
        raise ParseError(f"{path}: unknown parameter keys {sorted(unknown_params)}")
    defaults = PipelineConfig()
    for name, value in parameters.items():
        _check_type(path, name, value, getattr(defaults, name))
    return PipelineConfig(**parameters)
