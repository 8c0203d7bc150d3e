"""Uniform-grid finite-difference stencils used throughout the package.

First derivatives are of second or fourth order; periodic grids use the
fourth-order stencil only, and may carry an additive wrap shift so that
screw-symmetric data (helices) keep its accuracy: the sample shifted past
the seam is translated by one pitch period.
"""

from __future__ import annotations

import numpy as np

from .errors import PreconditionError


def _wrap_extend(values: np.ndarray, pad: int, wrap_shift) -> np.ndarray:
    """Periodically extend ``values`` by ``pad`` samples on both sides."""
    head = values[-pad:].copy()
    tail = values[:pad].copy()
    if wrap_shift is not None:
        head = head - wrap_shift
        tail = tail + wrap_shift
    return np.concatenate([head, values, tail], axis=0)


def diff1(values, dt: float, periodic: bool, *, order: int = 2, wrap_shift=None, axis: int = 0):
    """d(values)/dt on a uniform grid with spacing ``dt``.

    ``values`` has the grid on ``axis``; the other axes broadcast, and
    ``wrap_shift`` broadcasts against the trailing ones.  Periodic grids
    take order 4 only; open grids use one-sided stencils of the same order
    at the ends.  The result is C-contiguous, so reductions over it sum in
    the same order as over a single row.
    """
    v = np.asarray(values, dtype=float).swapaxes(0, axis)
    n = v.shape[0]
    if order not in (2, 4):
        raise PreconditionError(f"unsupported stencil order {order}")
    if periodic and order != 4:
        raise PreconditionError("periodic grids take the order-4 stencil only")
    if n < order + 1:
        raise PreconditionError(f"grid too short for order-{order} stencil")

    if periodic:
        ext = _wrap_extend(v, 2, wrap_shift)
        out = (-ext[4:] + 8.0 * ext[3:-1] - 8.0 * ext[1:-3] + ext[:-4]) / (12.0 * dt)
    elif order == 2:
        out = np.empty_like(v)
        out[1:-1] = (v[2:] - v[:-2]) / (2.0 * dt)
        out[0] = (-3.0 * v[0] + 4.0 * v[1] - v[2]) / (2.0 * dt)
        out[-1] = (3.0 * v[-1] - 4.0 * v[-2] + v[-3]) / (2.0 * dt)
    else:
        out = np.empty_like(v)
        out[2:-2] = -v[4:] + 8.0 * v[3:-1] - 8.0 * v[1:-3] + v[:-4]
        out[0] = -25.0 * v[0] + 48.0 * v[1] - 36.0 * v[2] + 16.0 * v[3] - 3.0 * v[4]
        out[1] = -3.0 * v[0] - 10.0 * v[1] + 18.0 * v[2] - 6.0 * v[3] + v[4]
        out[-2] = 3.0 * v[-1] + 10.0 * v[-2] - 18.0 * v[-3] + 6.0 * v[-4] - v[-5]
        out[-1] = 25.0 * v[-1] - 48.0 * v[-2] + 36.0 * v[-3] - 16.0 * v[-4] + 3.0 * v[-5]
        out /= 12.0 * dt
    return np.ascontiguousarray(out.swapaxes(0, axis))
