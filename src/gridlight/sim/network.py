"""Road network geometry: grid layout, lanes, signal phases, observation
schemas, and traffic flow definitions.

Conventions used throughout the simulator:

* Intersections are (row, col) with row 0 at the north edge and col 0 at
  the west edge.
* An *approach* names the compass side traffic comes from, so approach "N"
  carries southbound vehicles. Approaches are ordered N, E, S, W.
* Each approach has one lane per movement, ordered left, through, right.
  Lane row ``approach_index * lanes_per_approach + movement_index`` is the
  row used in state matrices and observations.
* Grid 0 of a lane is the cell nearest the downstream end (the intersection
  for approach lanes); vehicles enter at the far end and advance toward 0.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import ConfigurationError, Document, ShapeError, read_int

APPROACHES = ("N", "E", "S", "W")
MOVEMENTS = ("left", "through", "right")

OPPOSITE = {"N": "S", "S": "N", "E": "W", "W": "E"}

# Heading = direction of travel. Traffic from approach "N" heads "S".
HEADING_OF_APPROACH = OPPOSITE

# (row, col) delta when traveling with a given heading.
HEADING_DELTA = {"N": (-1, 0), "S": (1, 0), "E": (0, 1), "W": (0, -1)}

# Right-hand traffic: new heading after executing a movement.
TURN = {
    "S": {"left": "E", "through": "S", "right": "W"},
    "N": {"left": "W", "through": "N", "right": "E"},
    "E": {"left": "N", "through": "E", "right": "S"},
    "W": {"left": "S", "through": "W", "right": "N"},
}


@dataclass(frozen=True)
class Phase:
    """A signal phase: the two non-conflicting movements it gives green to.

    Right turns are always permitted and are not listed.
    """

    id: int
    permitted_movements: frozenset[tuple[str, str]]


PHASES: tuple[Phase, ...] = (
    Phase(1, frozenset({("N", "through"), ("S", "through")})),
    Phase(2, frozenset({("N", "left"), ("S", "left")})),
    Phase(3, frozenset({("E", "through"), ("W", "through")})),
    Phase(4, frozenset({("E", "left"), ("W", "left")})),
    Phase(5, frozenset({("N", "through"), ("N", "left")})),
    Phase(6, frozenset({("S", "through"), ("S", "left")})),
    Phase(7, frozenset({("E", "through"), ("E", "left")})),
    Phase(8, frozenset({("W", "through"), ("W", "left")})),
)

PHASE_IDS = tuple(p.id for p in PHASES)

_PERMITTED = {p.id: p.permitted_movements for p in PHASES}


def permits(phase_id: int, approach: str, movement: str) -> bool:
    """True if the phase gives green to (approach, movement)."""
    if movement == "right":
        return True
    return (approach, movement) in _PERMITTED[phase_id]


SCHEMA_DIMS = {"BASE": 1, "SCHEMA_A": 2, "SCHEMA_B": 2, "SCHEMA_C": 3}


@dataclass(frozen=True)
class Observation:
    """Per-intersection sensor features: one row per incoming lane.

    Column layout depends on the schema:
      BASE      [lane vehicle count]
      SCHEMA_A  [count, vehicles that crossed last interval]
      SCHEMA_B  [count, vehicles that passed mid-lane last interval]
      SCHEMA_C  [count, mean speed in nearest third, mean speed in middle
                 third] with speeds as grids advanced per vehicle per tick.
    """

    schema_id: str
    values: np.ndarray

    def __post_init__(self):
        if self.schema_id not in SCHEMA_DIMS:
            raise ConfigurationError(f"unknown observation schema {self.schema_id!r}")
        v = self.values
        if v.ndim != 2 or v.shape[1] != SCHEMA_DIMS[self.schema_id]:
            raise ShapeError(
                f"observation for {self.schema_id} must be (lanes, "
                f"{SCHEMA_DIMS[self.schema_id]}), got {v.shape}"
            )


@dataclass(frozen=True)
class RoadNetwork(Document):
    """Grid network dimensions and lane discretization.

    ``state_grids`` is the window of grids nearest the intersection exposed
    as ground-truth state; ``pass_capacity`` is how many vehicles a lane may
    send through the intersection per action interval; ``lane_grids`` is the
    full physical lane length in grids. Documents call the first two
    ``N`` and ``n``.
    """

    where = "network document"

    rows: int
    cols: int
    lanes_per_approach: int = 3
    state_grids: int = field(default=12, metadata={"key": "N"})
    pass_capacity: int = field(default=4, metadata={"key": "n"})
    grid_capacity: int = 4
    lane_grids: int = 24

    def __post_init__(self):
        if self.rows < 1 or self.cols < 1:
            raise ConfigurationError(
                f"rows and cols must be >= 1, got {self.rows}x{self.cols}"
            )
        if self.lanes_per_approach != len(MOVEMENTS):
            raise ConfigurationError(
                "lanes_per_approach must equal 3 (one lane per movement), "
                f"got {self.lanes_per_approach}"
            )
        if not 1 <= self.grid_capacity <= 255:  # states hold counts as uint8
            raise ConfigurationError(
                f"grid_capacity must be in 1..255, got {self.grid_capacity}"
            )
        if self.pass_capacity < 1:
            raise ConfigurationError(
                f"pass_capacity must be >= 1, got {self.pass_capacity}"
            )
        if self.state_grids < self.pass_capacity:
            raise ConfigurationError(
                f"state_grids ({self.state_grids}) must be >= pass_capacity "
                f"({self.pass_capacity})"
            )
        if self.state_grids % self.pass_capacity != 0:
            raise ConfigurationError(
                f"state_grids ({self.state_grids}) must be a multiple of "
                f"pass_capacity ({self.pass_capacity})"
            )
        if self.lane_grids < self.state_grids:
            raise ConfigurationError(
                f"lane_grids ({self.lane_grids}) must be >= state_grids "
                f"({self.state_grids})"
            )

    @property
    def lanes_per_intersection(self) -> int:
        return 4 * self.lanes_per_approach

    @property
    def nodes(self) -> list[tuple[int, int]]:
        return [(r, c) for r in range(self.rows) for c in range(self.cols)]

    def on_grid(self, node: tuple[int, int]) -> bool:
        r, c = node
        return 0 <= r < self.rows and 0 <= c < self.cols

    @classmethod
    def document_defaults(cls, doc: dict) -> dict:
        """A document without ``lane_grids`` gets twice its ``N``."""
        return {"lane_grids": 2 * read_int(doc.get("N", cls.state_grids),
                                           "N")}


@dataclass(frozen=True)
class Flow(Document):
    """A scheduled stream of vehicles: origin boundary edge, a route given
    as one movement per intersection crossed, and a headway schedule."""

    where = "flow document"

    origin: tuple[str, int]
    route: tuple[str, ...]
    start_s: int
    end_s: int
    headway_s: int

    def __post_init__(self):
        side, _ = self.origin
        if side not in APPROACHES:
            raise ConfigurationError(f"flow origin side must be one of "
                                     f"{APPROACHES}, got {side!r}")
        if not self.route:
            raise ConfigurationError("flow route must contain at least one movement")
        for m in self.route:
            if m not in MOVEMENTS:
                raise ConfigurationError(f"unknown movement {m!r} in route")
        if self.start_s >= self.end_s:
            raise ConfigurationError(
                f"flow start_s ({self.start_s}) must be < end_s ({self.end_s})"
            )
        if self.headway_s < 1:
            raise ConfigurationError(
                f"flow headway_s must be >= 1, got {self.headway_s}"
            )

    def schedule(self) -> list[int]:
        return list(range(self.start_s, self.end_s, self.headway_s))


def origin_node(net: RoadNetwork, origin: tuple[str, int]) -> tuple[int, int]:
    """The boundary intersection a flow enters at."""
    side, index = origin
    if side in ("N", "S"):
        if not 0 <= index < net.cols:
            raise ConfigurationError(
                f"flow origin column {index} outside grid with {net.cols} cols"
            )
        return (0 if side == "N" else net.rows - 1, index)
    if not 0 <= index < net.rows:
        raise ConfigurationError(
            f"flow origin row {index} outside grid with {net.rows} rows"
        )
    return (index, 0 if side == "W" else net.cols - 1)


def trace_route(net: RoadNetwork, flow: Flow) -> list[tuple[int, int]]:
    """Intersections a flow crosses, validating it ends at a boundary edge."""
    node = origin_node(net, flow.origin)
    heading = HEADING_OF_APPROACH[flow.origin[0]]
    visited = []
    for i, movement in enumerate(flow.route):
        if not net.on_grid(node):
            raise ConfigurationError(
                f"route {flow.route} references nonexistent intersection "
                f"{node} at movement {i}"
            )
        visited.append(node)
        heading = TURN[heading][movement]
        dr, dc = HEADING_DELTA[heading]
        nxt = (node[0] + dr, node[1] + dc)
        if not net.on_grid(nxt) and i < len(flow.route) - 1:
            raise ConfigurationError(
                f"route {flow.route} leaves the grid after movement {i} "
                f"with movements remaining"
            )
        node = nxt
    if net.on_grid(node):
        raise ConfigurationError(
            f"route {flow.route} from {flow.origin} must terminate at a "
            f"boundary edge but ends inside the grid at {node}"
        )
    return visited
