"""Axis-aligned feasible boxes and the small vector toolkit built on numpy.

Every quantity in this library is a one dimensional float64 array. All
arithmetic stays in IEEE-754 double precision with round-to-nearest,
which is what the 16-digit reference trajectories assume.

The only projection the optimizers ever need is the one onto a box under
a positive diagonal weighting, and that projection separates per
coordinate into a weight-independent clamp, so ``project_box`` takes no
weight argument. General positive semidefinite weightings are out of
scope.
"""

from dataclasses import dataclass

import numpy as np


def as_vector(values, dim=None):
    """Coerce ``values`` to a finite float64 vector.

    Scalars become length-1 vectors. Rejects anything that is not one
    dimensional, any non-finite entry, and (when ``dim`` is given) any
    length mismatch.
    """
    v = np.asarray(values, dtype=np.float64)
    if v.ndim == 0:
        v = v.reshape(1)
    if v.ndim != 1:
        raise ValueError(f"expected a vector, got array with shape {v.shape}")
    if v.size == 0:
        raise ValueError("vectors must have at least one coordinate")
    if dim is not None and v.shape[0] != dim:
        raise ValueError(f"dimension mismatch: expected {dim}, got {v.shape[0]}")
    if not np.all(np.isfinite(v)):
        raise ValueError("vector entries must be finite")
    return v


@dataclass
class FeasibleBox:
    """Axis-aligned box {x : lower_i <= x_i <= upper_i}.

    Degenerate coordinates (lower_i == upper_i) are legal; projection
    pins them.
    """

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        self.lower = as_vector(self.lower)
        self.upper = as_vector(self.upper, dim=self.lower.shape[0])
        if np.any(self.lower > self.upper):
            raise ValueError("box needs lower_i <= upper_i in every coordinate")

    @classmethod
    def cube(cls, lo, hi, d):
        return cls(np.full(d, float(lo)), np.full(d, float(hi)))

    @property
    def dim(self):
        return int(self.lower.shape[0])

    @property
    def diameter(self):
        """Largest per-coordinate width, the D-infinity of the set."""
        return float(np.max(self.upper - self.lower))

    def center(self):
        return 0.5 * (self.lower + self.upper)

    def contains(self, x):
        x = as_vector(x, dim=self.dim)
        return bool(np.all(x >= self.lower) and np.all(x <= self.upper))


def project_box(y, box):
    """Clamp ``y`` into ``box``, coordinate by coordinate.

    This is the exact minimizer of ||A^(1/2)(x - y)||_2 over the box for
    every positive diagonal A, so diagonally weighted projections reduce
    to this same clamp.
    """
    y = as_vector(y, dim=box.dim)
    return np.minimum(np.maximum(y, box.lower), box.upper)

