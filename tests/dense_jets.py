"""Test helpers: a jet whose direction axes all have size 1 read and written
as one dense coefficient array of shape (3,)*k + value shape, the layout in
which the hand-computed oracles of the tests are written."""

import numpy as np

from lieharm.jets import JetScalar


def from_coefficients(k, c):
    """The jet in k variables with the coefficients c[d] (one direction each)."""
    c = np.asarray(c)
    return JetScalar(k, {d: c[d][(None,) * k] for d in np.ndindex(*(3,) * k)})


def coefficients(jet):
    """The dense coefficients of a jet with one direction per variable; the
    values are broadcast to one shape."""
    k = jet.k
    assert all(c.shape[:k] == (1,) * k for c in jet.b.values()), "a variable has several directions"
    shape = np.broadcast_shapes(*(c.shape[k:] for c in jet.b.values()))
    return np.stack([np.broadcast_to(jet.b[d][(0,) * k], shape) for d in np.ndindex(*(3,) * k)]).reshape(
        (3,) * k + shape
    )
