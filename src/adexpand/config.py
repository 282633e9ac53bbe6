"""Pipeline configuration file: JSON with "paths" and "parameters" sections.

Validation is fail-fast: unknown keys are rejected and every parameter is
type- and bounds-checked at load so a bad config never reaches the pipeline.
The PipelineConfig fields are the one table of parameter names and defaults;
the CLI fills each unset flag from the same-named field.

The "paths" section and the "markets" parameter are validated but not read
by the CLI, which takes file paths and the market from its flags. They stay
accepted so that existing config files keep loading.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields

from .embeddings import MIN_DIM
from .errors import ParseError

_PATH_KEYS = {
    "keywords",
    "embeddings",
    "campaigns",
    "labels",
    "dataset",
    "new_dataset",
    "holdout",
    "queries",
    "output_dir",
}


@dataclass
class PipelineConfig:
    paths: dict[str, str] = field(default_factory=dict)
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
    markets: list[str] = field(default_factory=list)

    def validate(self) -> None:
        if self.dim < MIN_DIM:
            raise ParseError(f"dim must be at least {MIN_DIM}")
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
        if not isinstance(self.markets, list) or any(
            not isinstance(m, str) for m in self.markets
        ):
            raise ParseError("markets must be a list of strings")


def _check_type(path: str, name: str, value, default) -> None:
    """A parameter must have its default's JSON type; an int stands for a float."""
    if isinstance(default, float):
        ok = isinstance(value, (int, float)) and not isinstance(value, bool)
    elif isinstance(default, int):
        ok = isinstance(value, int) and not isinstance(value, bool)
    else:
        ok = isinstance(value, type(default))
    if not ok:
        expected = "a number" if isinstance(default, float) else type(default).__name__
        raise ParseError(f"{path}: parameter {name!r} must be {expected}, got {value!r}")


def _section(path: str, doc: dict, name: str) -> dict:
    section = doc.get(name, {})
    if not isinstance(section, dict):
        raise ParseError(f"{path}: section {name!r} must be an object")
    return section


def load_config(path: str) -> PipelineConfig:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ParseError(f"{path}: invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ParseError(f"{path}: a config must be a JSON object")
    unknown_sections = set(doc) - {"paths", "parameters"}
    if unknown_sections:
        raise ParseError(f"{path}: unknown sections {sorted(unknown_sections)}")
    paths = _section(path, doc, "paths")
    unknown_paths = set(paths) - _PATH_KEYS
    if unknown_paths:
        raise ParseError(f"{path}: unknown path keys {sorted(unknown_paths)}")
    parameters = _section(path, doc, "parameters")
    known_params = {f.name for f in fields(PipelineConfig)} - {"paths"}
    unknown_params = set(parameters) - known_params
    if unknown_params:
        raise ParseError(f"{path}: unknown parameter keys {sorted(unknown_params)}")
    defaults = PipelineConfig()
    for name, value in parameters.items():
        _check_type(path, name, value, getattr(defaults, name))
    config = PipelineConfig(paths={k: str(v) for k, v in paths.items()}, **parameters)
    config.validate()
    return config
