"""Model JSON round-tripping.

Layout (fixed key order, version 1): ``topology`` is ``"tt"`` or ``"btree"``;
``bond_dims`` uses chain order for trains and BFS non-root-node order for
trees; ``cores`` hold row-major flat data in serialization order (chain /
BFS node order, root first); ``feature_maps`` carries the per-feature lift
descriptors. Floats are written with Python's shortest round-trip
representation, so load/save cycles are byte-identical.
"""

from __future__ import annotations

import json

import numpy as np

from .lift import LiftSpec
from .tensor_net import TensorNetworkModel, TnTopology

FORMAT_VERSION = 1


def model_to_json_dict(model: TensorNetworkModel, lifts: LiftSpec) -> dict:
    topo = model.topology
    return {
        "version": FORMAT_VERSION,
        "topology": topo.kind,
        "n": topo.n,
        "phys_dims": list(topo.phys_dims),
        "bond_dims": list(topo.bond_dims),
        "cores": [
            {"shape": list(core.shape), "data": core.ravel().tolist()}
            for core in model.cores
        ],
        "feature_maps": lifts.to_json_list(),
    }


def model_from_json_dict(obj: dict):
    version = obj.get("version")
    if version != FORMAT_VERSION:
        raise ValueError(f"unsupported model format version {version!r}")
    topo = TnTopology(
        kind=obj["topology"],
        n=int(obj["n"]),
        phys_dims=tuple(obj["phys_dims"]),
        bond_dims=tuple(obj["bond_dims"]),
    )
    # the model checks the core count and every shape against the topology
    cores = [np.asarray(entry["data"], dtype=np.float64).reshape([int(s) for s in entry["shape"]])
             for entry in obj["cores"]]
    model = TensorNetworkModel(topo, cores)
    lifts = LiftSpec.from_json_list(obj["feature_maps"])
    if lifts.dims != topo.phys_dims:
        raise ValueError(
            f"feature maps produce dims {lifts.dims}, topology has {topo.phys_dims}"
        )
    return model, lifts


def save_model(path, model: TensorNetworkModel, lifts: LiftSpec) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(model_to_json_dict(model, lifts), fh, indent=1)
        fh.write("\n")


def load_model(path):
    with open(path, "r", encoding="utf-8") as fh:
        return model_from_json_dict(json.load(fh))
