"""Scenario documents: a network, its flows, the city's observation schema,
and episode timing, plus the budget-counting environment factory."""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import ConfigurationError, Document
from .sim import Flow, RoadNetwork, Sim, reset, trace_route
from .sim.network import SCHEMA_DIMS


@dataclass(frozen=True)
class ScenarioSpec(Document):
    where = "scenario document"

    name: str
    network: RoadNetwork
    flows: tuple[Flow, ...]
    schema: str
    episode_s: int = 3600
    interval_s: int = 20
    seed: int = 0

    def __post_init__(self):
        if self.schema not in SCHEMA_DIMS:
            raise ConfigurationError(f"unknown observation schema {self.schema!r}")
        if self.episode_s < self.interval_s or self.interval_s < 1:
            raise ConfigurationError(
                f"episode_s ({self.episode_s}) must cover at least one "
                f"interval of {self.interval_s}s"
            )
        for flow in self.flows:
            trace_route(self.network, flow)

    @property
    def intervals(self) -> int:
        return self.episode_s // self.interval_s

    def make(self, seed: int | None = None, validate: bool = False) -> Sim:
        return reset(self.network, list(self.flows),
                     self.seed if seed is None else seed,
                     schema=self.schema, validate=validate)

    @classmethod
    def document_defaults(cls, doc: dict) -> dict:
        """An unnamed scenario is ``"scenario"``; one without flows has
        none."""
        return {"name": "scenario", "flows": ()}


@dataclass
class EnvFactory:
    """Builds fresh simulations of one scenario and counts how many budgeted
    interactions (episodes) have been consumed. Evaluation and offline
    logging pass ``count=False`` so only tuning interactions are charged."""

    scenario: ScenarioSpec
    interactions: int = field(default=0)

    def make(self, seed: int, count: bool = True) -> Sim:
        if count:
            self.interactions += 1
        return self.scenario.make(seed)
