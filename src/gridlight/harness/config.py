"""Experiment configuration: the three desk-scale synthetic cities with
mismatched observation schemas, method names, and the experiment document.

The desk cities are sized so a full multi-city pipeline runs in minutes:
three small grids with distinct flow patterns and per-city sensor schemas.
The target city's through demand deliberately exceeds what a fixed cycle
can serve, so adaptive control has a clear margin to exploit.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import ConfigurationError, Document, load_json
from ..meta import AdaptConfig, MamlConfig
from ..scenario import ScenarioSpec
from ..sim import Flow, RoadNetwork

BASELINE_METHODS = ("fixed_time", "sotl", "max_pressure", "random")

PIPELINE_METHODS = ("modular", "monolithic", "seq_pretrain")

METHODS = PIPELINE_METHODS + BASELINE_METHODS


def desk_city_a(episode_s: int = 3600) -> ScenarioSpec:
    """2x2 grid, SCHEMA_A sensors, east-west dominant traffic."""
    flows = (
        Flow(("W", 0), ("through", "through"), 0, episode_s, 12),
        Flow(("W", 1), ("through", "through"), 0, episode_s, 12),
        Flow(("E", 0), ("through", "through"), 0, episode_s, 14),
        Flow(("E", 1), ("through", "through"), 0, episode_s, 14),
        Flow(("N", 0), ("through", "through"), 0, episode_s, 25),
        Flow(("N", 1), ("through", "through"), 0, episode_s, 25),
        Flow(("W", 1), ("left", "through"), 0, episode_s, 30),
        Flow(("E", 0), ("left", "through"), 0, episode_s, 30),
    )
    return ScenarioSpec("city-a", RoadNetwork(rows=2, cols=2), flows,
                        "SCHEMA_A", episode_s=episode_s)


def desk_city_b(episode_s: int = 3600) -> ScenarioSpec:
    """3x2 grid, SCHEMA_B sensors, north-south dominant traffic."""
    flows = (
        Flow(("N", 0), ("through",) * 3, 0, episode_s, 11),
        Flow(("N", 1), ("through",) * 3, 0, episode_s, 11),
        Flow(("S", 0), ("through",) * 3, 0, episode_s, 13),
        Flow(("S", 1), ("through",) * 3, 0, episode_s, 13),
        Flow(("W", 0), ("through", "through"), 0, episode_s, 26),
        Flow(("W", 1), ("through", "through"), 0, episode_s, 26),
        Flow(("W", 2), ("through", "through"), 0, episode_s, 26),
        Flow(("N", 0), ("left", "through"), 0, episode_s, 30),
        Flow(("S", 1), ("left", "through"), 0, episode_s, 34),
    )
    return ScenarioSpec("city-b", RoadNetwork(rows=3, cols=2), flows,
                        "SCHEMA_B", episode_s=episode_s)


def desk_city_c(episode_s: int = 3600) -> ScenarioSpec:
    """2x3 grid, SCHEMA_C sensors, heavy north-south through demand that a
    fixed cycle cannot serve."""
    flows = (
        Flow(("N", 0), ("through", "through"), 0, episode_s, 12),
        Flow(("N", 1), ("through", "through"), 0, episode_s, 12),
        Flow(("N", 2), ("through", "through"), 0, episode_s, 12),
        Flow(("S", 0), ("through", "through"), 0, episode_s, 12),
        Flow(("S", 1), ("through", "through"), 0, episode_s, 12),
        Flow(("S", 2), ("through", "through"), 0, episode_s, 12),
        Flow(("W", 0), ("through",) * 3, 0, episode_s, 30),
        Flow(("E", 1), ("through",) * 3, 0, episode_s, 30),
        Flow(("N", 0), ("left", "through", "through"), 0, episode_s, 36),
        Flow(("S", 2), ("left", "through", "through"), 0, episode_s, 36),
        Flow(("W", 1), ("right",), 0, episode_s, 40),
    )
    return ScenarioSpec("city-c", RoadNetwork(rows=2, cols=3), flows,
                        "SCHEMA_C", episode_s=episode_s)


def saturated_city(episode_s: int = 3600) -> ScenarioSpec:
    """2x2 grid pushed past capacity from every side; used for soundness
    checks rather than controller comparisons."""
    flows = (
        Flow(("N", 0), ("through", "through"), 0, episode_s, 4),
        Flow(("N", 1), ("through", "through"), 0, episode_s, 4),
        Flow(("S", 0), ("through", "through"), 0, episode_s, 4),
        Flow(("S", 1), ("through", "through"), 0, episode_s, 4),
        Flow(("W", 0), ("through", "through"), 0, episode_s, 4),
        Flow(("W", 1), ("through", "through"), 0, episode_s, 4),
        Flow(("E", 0), ("through", "through"), 0, episode_s, 4),
        Flow(("E", 1), ("through", "through"), 0, episode_s, 4),
        Flow(("N", 0), ("left", "through"), 0, episode_s, 9),
        Flow(("S", 1), ("left", "through"), 0, episode_s, 9),
    )
    return ScenarioSpec("saturated", RoadNetwork(rows=2, cols=2), flows,
                        "BASE", episode_s=episode_s)


DESK_CITIES = {"city-a": desk_city_a, "city-b": desk_city_b,
               "city-c": desk_city_c, "saturated": saturated_city}


@dataclass(frozen=True)
class ExperimentConfig(Document):
    """Everything a run needs: scenarios, method, training configs, seeds.
    Checked when built, so each derived config (``replace``) is too."""

    where = "experiment config"

    sources: tuple[ScenarioSpec, ...]
    target: ScenarioSpec
    method: str
    maml: MamlConfig
    adapt: AdaptConfig
    seeds: tuple[int, ...]
    out_dir: str
    collect_episodes: int = 20
    behavior_epsilon: float = 0.2
    horizon: int = 2
    step_discount: float = 0.9
    block_discount: float = 0.8
    dist_discount: float = 0.8
    dyn_hidden: tuple[int, ...] = (128, 128)
    estimator_hidden: tuple[int, ...] = (32, 32)

    def __post_init__(self):
        if self.method not in METHODS:
            raise ConfigurationError(
                f"unknown method {self.method!r}; expected one of {METHODS}"
            )
        if not self.seeds:
            raise ConfigurationError("at least one seed is required")
        if any(seed < 0 for seed in self.seeds):
            raise ConfigurationError(
                f"seeds must be >= 0, got {list(self.seeds)}")
        if self.method in PIPELINE_METHODS and not self.sources:
            raise ConfigurationError(
                f"method {self.method!r} needs at least one source scenario"
            )
        grids = self.target.network.state_grids
        for src in self.sources if self.method in PIPELINE_METHODS else ():
            if src.network.state_grids != grids:
                raise ConfigurationError(
                    f"source {src.name!r} has {src.network.state_grids} state "
                    f"grids per lane, target {self.target.name!r} has {grids};"
                    f" one dynamics model serves them all")
        # meta-train runs MAML on the sources of every method but seq_pretrain
        if self.sources and self.method != "seq_pretrain" and \
                self.maml.task_batch_size > len(self.sources):
            raise ConfigurationError(
                f"maml.task_batch_size ({self.maml.task_batch_size}) "
                f"exceeds the number of sources ({len(self.sources)})")
        if self.method == "modular":
            for src in self.sources:
                if src.schema == self.target.schema:
                    raise ConfigurationError(
                        f"target schema {self.target.schema} must differ "
                        f"from every source schema (source {src.name!r} "
                        f"matches)"
                    )
        if self.collect_episodes < 1:
            raise ConfigurationError("collect_episodes must be >= 1")
        if self.horizon < 0:
            raise ConfigurationError(
                f"horizon must be >= 0, got {self.horizon}")
        for name in ("behavior_epsilon", "step_discount", "block_discount",
                     "dist_discount"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ConfigurationError(
                    f"{name} must be in [0, 1], got {getattr(self, name)}")
        for name in ("dyn_hidden", "estimator_hidden"):
            if any(size < 1 for size in getattr(self, name)):
                raise ConfigurationError(
                    f"{name} must hold integers >= 1, "
                    f"got {list(getattr(self, name))}")

    @classmethod
    def document_defaults(cls, doc: dict) -> dict:
        """``target`` and ``method`` are required, ``sources`` default to
        none, and every other field to its value in
        :func:`default_experiment`."""
        base = vars(default_experiment())
        return {**{k: v for k, v in base.items()
                   if k not in ("target", "method")}, "sources": ()}

    @classmethod
    def load(cls, path) -> "ExperimentConfig":
        return cls.from_json(load_json(path))


def default_experiment(method: str = "modular",
                       out_dir: str = "runs") -> ExperimentConfig:
    """The desk configuration: sources A and B, target C, seeds 0 to 2."""
    return ExperimentConfig(
        sources=(desk_city_a(), desk_city_b()),
        target=desk_city_c(),
        method=method,
        maml=MamlConfig(inner_lr=2e-4, outer_lr=1e-3, meta_iterations=150,
                        task_batch_size=2),
        adapt=AdaptConfig(lr=1e-3, target_episode_budget=5,
                          epochs_per_episode=20),
        seeds=(0, 1, 2),
        out_dir=out_dir,
    )
