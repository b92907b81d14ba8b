"""Persistence: metrics CSV, JSON reports, JSONL datasets, model
checkpoints, and run manifests.

CSV bytes are deterministic (fixed float formatting, no timestamps) so a
rerun with the same config and seeds reproduces files exactly; wall-clock
timing lives only in JSON reports.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

from .. import nn
from ..errors import ConfigurationError, load_json, read_int, read_list
from ..meta import COLUMNS, TaskDataset
from ..planner import DynamicsModel, StateEstimator
from ..sim.network import PHASE_IDS

METRICS_COLUMNS = ("scenario", "seed", "method", "avg_travel_time",
                   "avg_queue_length")


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.6f}"
    return str(value)


def write_csv(path, columns, rows) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    lines = [",".join(columns)]
    for row in rows:
        lines.append(",".join(_fmt(row[c]) for c in columns))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_json(path, obj) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n",
                    encoding="utf-8")


def config_digest(doc: dict) -> str:
    return hashlib.sha256(
        json.dumps(doc, sort_keys=True).encode("utf-8")).hexdigest()


def file_sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


# -- datasets ---------------------------------------------------------------

def save_dataset(path, dataset: TaskDataset) -> None:
    """One JSON line per transition row."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8") as fh:
        for i in range(len(dataset)):
            fh.write(json.dumps({
                "city_id": dataset.city_id,
                "schema_id": dataset.schema_id,
                "obs": dataset.obs[i].tolist(),
                "state": dataset.state[i].tolist(),
                "action": int(dataset.action[i]),
                "state_next": dataset.state_next[i].tolist(),
            }) + "\n")


def load_dataset(path) -> TaskDataset:
    """The dataset ``save_dataset`` wrote. A line that is not JSON, lacks a
    field, or holds what ``_dataset_array`` refuses or another city, schema
    or shape than line 1 raises ConfigurationError naming file and line."""
    rows, first = [], None
    with Path(path).open("r", encoding="utf-8") as fh:
        for n, line in enumerate(fh, 1):
            where = f"{path} line {n}"
            try:
                doc = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ConfigurationError(f"{where}: {exc}") from exc
            doc = _fields(doc, ("city_id", "schema_id", *COLUMNS), where)
            row = [_dataset_array(doc[c], c, where) for c in COLUMNS]
            kind = (doc["city_id"], doc["schema_id"], *(a.shape for a in row))
            first = first or kind
            if kind != first:
                raise ConfigurationError(f"{where}: (city, schema, shapes) "
                                         f"{kind} differ from line 1's")
            rows.append(row)
    if first is None:
        raise ConfigurationError(f"dataset file {path} is empty")
    return TaskDataset(first[0], first[1], *map(np.array, zip(*rows)))


def _dataset_array(value, column: str, where: str) -> np.ndarray:
    """Field ``column`` of a dataset line: an ``action`` must be a phase id,
    ``obs`` a finite 2-D array, and a state one of whole counts 0..255,
    returned as uint8 like the simulator's states."""
    if column == "action":
        if read_int(value, f"{where} action") not in PHASE_IDS:
            raise ConfigurationError(
                f"{where}: action {value} is not a phase id {PHASE_IDS}")
        return np.array(int(value))
    try:  # ragged or non-numeric
        a = np.array(value, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ConfigurationError(f"{where}: {column}: {exc}") from exc
    counts = column != "obs"
    if a.ndim != 2 or not np.isfinite(a).all() or counts and (
            (a < 0) | (a > 255) | (a % 1 != 0)).any():
        kind = "array of whole counts >= 0 and <= 255" if counts else "array"
        raise ConfigurationError(f"{where}: {column} must be a finite 2-D "
                                 f"{kind}")
    return a.astype(np.uint8) if counts else a


# -- checkpoints --------------------------------------------------------------

def _net_fragment(net: nn.Net) -> dict:
    return {
        "layer_sizes": list(net.layer_sizes),
        "output_activation": net.output_activation,
        "params": net.params.tolist(),
    }


_NET_FIELDS = ("layer_sizes", "output_activation", "params")


def _fields(doc, fields, where: str) -> dict:
    """``doc``, refused unless it is an object holding every field named in
    ``fields``."""
    if not isinstance(doc, dict):
        raise ConfigurationError(
            f"{where} must be an object, got {type(doc).__name__}")
    missing = [f for f in fields if f not in doc]
    if missing:
        raise ConfigurationError(f"{where} is missing fields {missing}")
    return doc


def _net_from_fragment(doc: dict, where: str) -> nn.Net:
    sizes = [read_int(s, f"{where} layer_sizes")
             for s in read_list(doc["layer_sizes"], f"{where} layer_sizes")]
    net = nn.net_new(sizes, str(doc["output_activation"]), seed=0)
    try:  # non-numbers, a wrong length, NaN or Inf
        return net.with_params(np.array(doc["params"], dtype=np.float64))
    except (TypeError, ValueError) as exc:
        raise ConfigurationError(f"{where}: {exc}") from exc


def save_checkpoint(path, estimator: StateEstimator | None,
                    dynamics: DynamicsModel, provenance: dict) -> None:
    """The two nets and ``provenance``. Planning settings stay in the
    experiment config, which ``evaluate`` reads."""
    doc = {
        "repr": None if estimator is None else {
            **_net_fragment(estimator.net),
            "schema_id": estimator.schema_id,
            "lanes": estimator.lanes,
            "state_grids": estimator.state_grids,
        },
        "dyn": {
            **_net_fragment(dynamics.net),
            "lanes": dynamics.lanes,
            "state_grids": dynamics.state_grids,
        },
        "provenance": provenance,
    }
    write_json(path, doc)


def load_checkpoint(path) -> dict:
    """The checkpoint at ``path`` with its ``estimator`` (None if absent)
    and ``dynamics`` models; a malformed one raises ConfigurationError."""
    doc = _fields(load_json(path), ("dyn",), "checkpoint")
    out = dict(doc, estimator=None)
    if doc.get("repr") is not None:
        frag = _fields(doc["repr"], (*_NET_FIELDS, "schema_id", "lanes",
                                     "state_grids"), "checkpoint repr")
        out["estimator"] = StateEstimator(
            _net_from_fragment(frag, "repr"), str(frag["schema_id"]),
            read_int(frag["lanes"], "repr lanes"),
            read_int(frag["state_grids"], "repr state_grids"))
    frag = _fields(doc["dyn"], (*_NET_FIELDS, "lanes", "state_grids"),
                   "checkpoint dyn")
    out["dynamics"] = DynamicsModel(
        _net_from_fragment(frag, "dyn"), read_int(frag["lanes"], "dyn lanes"),
        read_int(frag["state_grids"], "dyn state_grids"))
    return out


def write_manifest(path, config_doc: dict, seeds, **extra) -> None:
    write_json(path, {
        "config_digest": config_digest(config_doc),
        "config": config_doc,
        "seeds": list(seeds),
        **extra,
    })
