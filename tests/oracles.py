"""Reference projections that the solver no longer runs, kept as oracles for
the tests of its closed-form dual steps."""

import numpy as np


def prox_box01(v):
    """Projection onto [0, 1]^n."""
    return np.clip(np.asarray(v, dtype=np.float64), 0.0, 1.0)


def project_point(v, point):
    """Projection onto the single point {point} (equality data fidelity)."""
    v = np.asarray(v, dtype=np.float64)
    point = np.asarray(point, dtype=np.float64)
    if v.shape != point.shape:
        raise ValueError("shape mismatch")
    return point.copy()
