"""Test helpers: a jet whose direction axes all have size 1 read and written
as one dense coefficient array of shape (3,)*k + value shape, the layout in
which the hand-computed oracles of the tests are written; and a matrix of
any kind times a plain array on its right, a product phi never forms."""

import numpy as np

from lieharm.jets import JetScalar
from lieharm.matrices import CMatrix


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


def times_on_the_right(m: CMatrix, a: np.ndarray) -> CMatrix:
    """m a for a numeric or jet-valued matrix m, block by block for a jet."""
    if m.jet is None:
        return CMatrix(m.data @ a)
    return CMatrix.from_jet(m.jet.map(lambda c: c @ a))
