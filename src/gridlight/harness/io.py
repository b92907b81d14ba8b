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
from ..errors import ConfigurationError, read_int, read_list
from ..meta import COLUMNS, TaskDataset
from ..planner import DynamicsModel, StateEstimator

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
    """The dataset ``save_dataset`` wrote; a line that is not JSON or lacks
    a field raises ConfigurationError naming the file and line."""
    docs = []
    with Path(path).open("r", encoding="utf-8") as fh:
        for n, line in enumerate(fh, 1):
            try:
                doc = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ConfigurationError(f"{path} line {n}: {exc}") from exc
            docs.append(_fields(doc, ("city_id", "schema_id", *COLUMNS),
                                f"{path} line {n}"))
    if not docs:
        raise ConfigurationError(f"dataset file {path} is empty")
    schemas = {d["schema_id"] for d in docs}
    if len(schemas) != 1:
        raise ConfigurationError(f"dataset file {path} mixes schemas {schemas}")
    dtypes = {"obs": float, "state": np.int64, "action": np.int64,
              "state_next": np.int64}
    return TaskDataset(docs[-1]["city_id"], docs[-1]["schema_id"], *(
        np.array([d[c] for d in docs], dtype=dtypes[c]) for c in COLUMNS))


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
    with Path(path).open("r", encoding="utf-8") as fh:
        doc = _fields(json.load(fh), ("dyn",), "checkpoint")
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
