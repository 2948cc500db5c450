"""Feature lifts, the all-off state and the signed toggle on lifted vectors.

A lift maps a scalar feature value to a vector whose last channel is the
constant 1 (the bias channel). Selectors scale the data channels while
leaving the bias untouched (the probe engine applies them to each leg's
core, from its signed toggle), so feature inclusion/exclusion never changes
the network topology. For binary and polynomial lifts the all-off state
``[0, ..., 0, 1]`` coincides with lifting the reference input 0; Fourier
lifts have phi(0) != 0, so their off state is a synthetic baseline.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .tensor_net import as_int

BINARY = "binary"
POLY = "poly"
FOURIER = "fourier"


@dataclass(frozen=True)
class FeatureMap:
    """One feature's lift descriptor.

    kind ``"binary"`` ignores ``k`` and ``omega`` (output dim 2);
    ``"poly"`` uses powers 1..k (dim k+1); ``"fourier"`` uses
    sin/cos harmonics 1..k at base frequency ``omega`` (dim 2k+1).
    ``k`` must be an integer (``tensor_net.as_int``) and ``omega`` finite.
    """

    kind: str
    k: int = 1
    omega: float = np.pi

    def __post_init__(self):
        if self.kind not in (BINARY, POLY, FOURIER):
            raise ValueError(f"unknown feature map kind {self.kind!r}")
        object.__setattr__(self, "k", as_int(self.k, "k"))
        if self.kind != BINARY and self.k < 1:
            raise ValueError("k must be >= 1")
        if not math.isfinite(self.omega):
            raise ValueError(f"omega must be finite, got {self.omega}")

    @property
    def dim(self) -> int:
        if self.kind == BINARY:
            return 2
        if self.kind == POLY:
            return self.k + 1
        return 2 * self.k + 1

    def apply_batch(self, x: np.ndarray) -> np.ndarray:
        """Lift a 1-D array of raw values into a (len(x), dim) array."""
        x = np.asarray(x, dtype=np.float64)
        out = np.ones((x.shape[0], self.dim))
        if self.kind == BINARY:
            out[:, 0] = x
        elif self.kind == POLY:
            for p in range(1, self.k + 1):
                out[:, p - 1] = x**p
        else:
            for j in range(1, self.k + 1):
                out[:, 2 * (j - 1)] = np.sin(j * self.omega * x)
                out[:, 2 * j - 1] = np.cos(j * self.omega * x)
        return out

    def to_json_dict(self) -> dict:
        if self.kind == BINARY:
            return {"kind": BINARY}
        if self.kind == POLY:
            return {"kind": POLY, "k": self.k}
        return {"kind": FOURIER, "k": self.k, "omega": self.omega}

    @staticmethod
    def from_json_dict(obj: dict) -> "FeatureMap":
        kind = obj["kind"]
        if kind == BINARY:
            return FeatureMap(BINARY)
        if kind == POLY:
            return FeatureMap(POLY, k=obj["k"])
        if kind == FOURIER:
            omega = obj["omega"]
            # float() would read true as 1.0 and parse "1.5"
            if isinstance(omega, bool) or not isinstance(omega, (int, float)):
                raise ValueError(f"omega must be a number, got {omega!r}")
            return FeatureMap(FOURIER, k=obj["k"], omega=float(omega))
        raise ValueError(f"unknown feature map kind {kind!r}")


class LiftSpec:
    """Per-feature feature maps for an n-feature model."""

    def __init__(self, maps) -> None:
        self.maps = tuple(maps)
        if not self.maps:
            raise ValueError("need at least one feature map")

    @staticmethod
    def binary(n: int) -> "LiftSpec":
        return LiftSpec([FeatureMap(BINARY)] * as_int(n, "n"))

    @property
    def n(self) -> int:
        return len(self.maps)

    @property
    def dims(self) -> tuple:
        return tuple(m.dim for m in self.maps)

    def check_instance(self, x) -> np.ndarray:
        """The raw instance as a float64 (n,) array.

        Raises ValueError for a wrong length or a non-finite value: a NaN or
        infinite feature would otherwise turn every attribution into NaN.
        """
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (self.n,):
            raise ValueError(f"expected instance of length {self.n}, got shape {x.shape}")
        bad = np.flatnonzero(~np.isfinite(x))
        if bad.size:
            raise ValueError(
                f"non-finite value {x[bad[0]]} for feature {bad[0] + 1} "
                f"({bad.size} non-finite in all)"
            )
        return x

    def lift_instance(self, x) -> list:
        """Lift a full raw instance into one vector per feature."""
        return [v[0] for v in self.lift_rows(self.check_instance(x)[None])]

    def lift_rows(self, xs: np.ndarray) -> list:
        """Lift stacked instances column by column: one (B, d_i) array per
        feature for a (B, n) array of rows that passed ``check_instance``."""
        return [m.apply_batch(xs[:, i]) for i, m in enumerate(self.maps)]

    def to_json_list(self) -> list:
        return [m.to_json_dict() for m in self.maps]

    @staticmethod
    def from_json_list(objs) -> "LiftSpec":
        return LiftSpec([FeatureMap.from_json_dict(o) for o in objs])


def signed_toggle(v: np.ndarray) -> np.ndarray:
    """Apply Diag(I_{d-1}, 0) = S(1) - S(0): keep data channels, zero the bias."""
    out = np.array(v, dtype=np.float64)
    out[..., -1] = 0.0
    return out


def off_state(dim: int) -> np.ndarray:
    """The all-off lifted vector [0, ..., 0, 1]."""
    v = np.zeros(dim)
    v[-1] = 1.0
    return v
