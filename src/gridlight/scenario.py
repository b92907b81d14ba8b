"""Scenario documents: a network, its flows, the city's observation schema,
and episode timing, plus the budget-counting environment factory."""

from __future__ import annotations

from dataclasses import dataclass, field, fields

from .errors import (ConfigurationError, read_int, read_list,
                     refuse_unknown_keys)
from .sim import Flow, RoadNetwork, Sim, reset, trace_route
from .sim.network import SCHEMA_DIMS


@dataclass(frozen=True)
class ScenarioSpec:
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

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "network": self.network.to_json(),
            "flows": [f.to_json() for f in self.flows],
            "schema": self.schema,
            "episode_s": self.episode_s,
            "interval_s": self.interval_s,
            "seed": self.seed,
        }

    @classmethod
    def from_json(cls, doc: dict) -> "ScenarioSpec":
        refuse_unknown_keys(doc, (f.name for f in fields(cls)),
                            "scenario document")
        try:
            return cls(
                name=str(doc.get("name", "scenario")),
                network=RoadNetwork.from_json(doc["network"]),
                flows=tuple(Flow.from_json(f)
                            for f in read_list(doc.get("flows", []), "flows")),
                schema=str(doc["schema"]),
                episode_s=read_int(doc.get("episode_s", 3600), "episode_s"),
                interval_s=read_int(doc.get("interval_s", 20), "interval_s"),
                seed=read_int(doc.get("seed", 0), "seed"),
            )
        except KeyError as exc:
            raise ConfigurationError(f"scenario document missing field {exc}") from exc


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
