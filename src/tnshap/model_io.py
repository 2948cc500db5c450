"""Model JSON round-tripping.

Layout (fixed key order, version 2): ``topology`` is ``"tt"`` or ``"btree"``;
``bond_dims`` uses chain order for trains and BFS non-root-node order for
trees; ``cores`` hold each core's ``shape`` and its ``data``, in
serialization order (chain / BFS node order, root first); ``feature_maps``
carries the per-feature lift descriptors. A core's ``data`` is one base64
string of its little-endian float64 bytes in row-major order, so cores load
bitwise-exactly and load/save cycles are byte-identical. Version 1 files,
whose ``data`` is a row-major list of floats, are still read; ``save_model``
always writes version 2.
"""

from __future__ import annotations

import base64
import json
import math

import numpy as np

from .lift import LiftSpec
from .tensor_net import TensorNetworkModel, TnTopology, as_int

FORMAT_VERSION = 2
READ_VERSIONS = (1, 2)
_CORE_DTYPE = np.dtype("<f8")


def model_to_json_dict(model: TensorNetworkModel, lifts: LiftSpec) -> dict:
    topo = model.topology
    return {
        "version": FORMAT_VERSION,
        "topology": topo.kind,
        "n": topo.n,
        "phys_dims": list(topo.phys_dims),
        "bond_dims": list(topo.bond_dims),
        "cores": [
            {"shape": list(core.shape),
             "data": base64.b64encode(core.astype(_CORE_DTYPE, copy=False).tobytes()).decode()}
            for core in model.cores
        ],
        "feature_maps": lifts.to_json_list(),
    }


def _core_from_json(idx: int, entry, version: int) -> np.ndarray:
    """One core of a version-1 or version-2 ``cores`` entry; the model checks
    its shape against the topology."""
    if not isinstance(entry, dict):
        raise ValueError(f"core {idx}: expected an object, got {type(entry).__name__}")
    shape, data = entry["shape"], entry["data"]
    if not isinstance(shape, list):
        raise ValueError(f"core {idx}: shape must be a list, got {type(shape).__name__}")
    shape = [as_int(s, f"core {idx}: shape entry") for s in shape]
    if version == 1:
        if not isinstance(data, list):
            raise ValueError(f"core {idx}: data must be a list, got {type(data).__name__}")
        # np.asarray would parse "0.5" and read true as 1.0
        for value in data:
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise ValueError(f"core {idx}: data entry must be a number, got {value!r}")
        return np.asarray(data, dtype=np.float64).reshape(shape)
    if not isinstance(data, str):
        raise ValueError(f"core {idx}: data must be a base64 string, got {type(data).__name__}")
    try:
        raw = base64.b64decode(data, validate=True)
    except ValueError as exc:  # binascii.Error, or a non-ASCII string
        raise ValueError(f"core {idx}: data is not valid base64: {exc}") from None
    want = _CORE_DTYPE.itemsize * math.prod(shape)
    if len(raw) != want:
        raise ValueError(f"core {idx}: data holds {len(raw)} bytes, shape {shape} needs {want}")
    return np.frombuffer(raw, dtype=_CORE_DTYPE).reshape(shape)


def model_from_json_dict(obj) -> tuple:
    if not isinstance(obj, dict):
        raise ValueError(f"model must be a JSON object, got {type(obj).__name__}")
    version = obj.get("version")
    if isinstance(version, bool) or version not in READ_VERSIONS:
        raise ValueError(f"unsupported model format version {version!r}")
    # the topology checks n and every phys_dims and bond_dims entry
    topo = TnTopology(obj["topology"], obj["n"], obj["phys_dims"], obj["bond_dims"])
    entries = obj["cores"]
    if not isinstance(entries, list):
        raise ValueError(f"cores must be a list of objects, got {type(entries).__name__}")
    cores = [_core_from_json(idx, entry, version) for idx, entry in enumerate(entries)]
    for idx, core in enumerate(cores):
        if not np.isfinite(core).all():
            raise ValueError(f"core {idx}: data holds a non-finite value")
    # the model checks the core count and every shape against the topology
    model = TensorNetworkModel(topo, cores)
    lifts = LiftSpec.from_json_list(obj["feature_maps"])
    if lifts.dims != topo.phys_dims:
        raise ValueError(
            f"feature maps produce dims {lifts.dims}, topology has {topo.phys_dims}"
        )
    return model, lifts


def save_model(path, model: TensorNetworkModel, lifts: LiftSpec) -> None:
    # one write: json.dump with an indent feeds the file chunk by chunk
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(model_to_json_dict(model, lifts), indent=1) + "\n")


def load_model(path):
    with open(path, "r", encoding="utf-8") as fh:
        return model_from_json_dict(json.load(fh))
