"""Persistence: metrics CSV, JSON reports, .npz datasets, model
checkpoints, and run manifests.

CSV bytes are deterministic (fixed float formatting, no timestamps) so a
rerun with the same config and seeds reproduces files exactly; wall-clock
timing lives only in JSON reports.
"""

from __future__ import annotations

import hashlib
import json
import zipfile
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

# each entry of a dataset archive: its type, its rank, and how many leading
# dimensions (rows, lanes, grids) it shares with ``state``, which comes first
_ENTRIES = {"city_id": (np.str_, 0, 0), "schema_id": (np.str_, 0, 0),
            "state": (np.uint8, 3, 3), "obs": (np.float64, 3, 2),
            "action": (np.int64, 1, 1), "state_next": (np.uint8, 3, 3)}


def dataset_path(directory, city_id: str) -> Path:
    """The file ``collect`` writes city ``city_id``'s dataset to."""
    return Path(directory) / f"{city_id}.npz"


def save_dataset(path, dataset: TaskDataset) -> None:
    """An uncompressed .npz of ``_ENTRIES``, each as it is in memory. Every
    entry is dated 1980-01-01, so equal datasets give equal bytes."""
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    with zipfile.ZipFile(path, "w") as archive:
        for name in _ENTRIES:
            info = zipfile.ZipInfo(f"{name}.npy", (1980, 1, 1, 0, 0, 0))
            with archive.open(info, "w", force_zip64=True) as fh:
                np.lib.format.write_array(
                    fh, np.asarray(getattr(dataset, name)), allow_pickle=False)


def load_dataset(path) -> TaskDataset:
    """The dataset ``save_dataset`` wrote. A file or entry that training
    cannot use raises ConfigurationError naming the file and the entry."""
    try:
        archive = np.load(path, allow_pickle=False)
    except (ValueError, zipfile.BadZipFile) as exc:  # neither .npz nor .npy
        raise ConfigurationError(f"{path}: not an archive") from exc
    if not isinstance(archive, np.lib.npyio.NpzFile):  # a bare .npy
        raise ConfigurationError(f"{path}: not an archive")
    entries = {}
    with archive:
        for name, (kind, ndim, shared) in _ENTRIES.items():
            try:  # missing, cut or damaged, or a pickled object array
                a = entries[name] = archive[name]
            except (KeyError, ValueError, EOFError, zipfile.BadZipFile) as exc:
                raise ConfigurationError(f"{path}: {name}: {exc}") from exc
            state = entries.get("state", a).shape
            if not np.issubdtype(a.dtype, kind) or a.ndim != ndim or \
                    a.shape[:shared] != state[:shared]:
                raise ConfigurationError(
                    f"{path}: {name} must be a {ndim}-D {kind.__name__} array "
                    f"whose shape begins {state[:shared]}, got a {a.ndim}-D "
                    f"{a.dtype} one of shape {a.shape}")
    if not np.isfinite(entries["obs"]).all():
        raise ConfigurationError(f"{path}: obs must be finite")
    wrong = np.setdiff1d(entries["action"], PHASE_IDS)
    if wrong.size:
        raise ConfigurationError(f"{path}: action {wrong[0]} is no phase id")
    try:  # no rows, or obs features of another schema
        return TaskDataset(str(entries["city_id"]), str(entries["schema_id"]),
                           *(entries[c] for c in COLUMNS))
    except ConfigurationError as exc:
        raise ConfigurationError(f"{path}: {exc}") from exc


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
