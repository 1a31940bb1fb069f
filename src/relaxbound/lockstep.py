"""Lockstep elimination: one block-tridiagonal solve for B systems at once.

relax.solve_block_system runs one system through the stage kernels of
relax._Layout.  eliminate runs the same stages for a batch of systems
of one layout, with numpy calls over the batch: every member gets its
own pivots by the same pivot rule (relax._Layout) and multiply/subtract
sequence, so its corrections have the same bits as solving it alone.
Within a stage the batch axis is last, and a stage's working columns
are its RHS, its r sub columns, then its trailing carry columns.  A
singular member's arithmetic goes on as garbage, which is why callers
run this under np.errstate(all="ignore").
"""

from __future__ import annotations

import numpy as np


def _pivot(x: np.ndarray, r: int, ar: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The stage kernels' pivot rule on every member of x (r, w, B) at once.

    Per member and step: the first largest open |entry| of each row,
    then the first largest of those maxima times the row's scale, then
    the same multiply/subtract per entry.  A NaN never wins a
    comparison there, so it counts as 0 here.  Closed columns are
    zeroed and assigned rows get scale 0, which keeps them out of later
    searches; nothing reads them again.  Returns the (r, B) pivot row
    of each sub column and which members are singular.
    """
    sub = x[:, 1:r + 1]
    a = np.abs(sub)
    big = np.fmax.reduce(a, axis=1)
    big[np.isnan(a[:, 0])] = np.nan     # the scalar scale starts at the first
    scale = 1.0 / big
    top = np.empty((r, x.shape[2]))     # each step's best scaled maximum
    order = np.zeros((r, x.shape[2]), dtype=np.intp)
    for step in range(r):
        a = np.fmax(a if step == 0 else np.abs(sub), 0.0)
        col = a.argmax(axis=1)
        best = np.fmax(a.max(axis=1) * scale, 0.0)
        row = best.argmax(axis=0)
        best.max(axis=0, out=top[step])
        pcol = col[row, ar]
        piv = x[row, :, ar]
        piv *= (1.0 / piv[:, 1:][ar, pcol])[:, None]
        f = sub[:, pcol, ar]
        # rows with f = 0 keep their bits; the pivot row is overwritten
        np.subtract(x, f[:, None, :] * piv.T, out=x, where=(f != 0.0)[:, None, :])
        x[row, :, ar] = piv
        sub[:, pcol, ar] = 0.0
        scale[row, ar] = 0.0
        order[pcol, ar] = row
    return order, ~((big > 0.0).all(axis=0) & (top > 0.0).all(axis=0))


def eliminate(blocks_of, b: int, m: int, lay, slab: int):
    """solve_block_system for B systems of layout lay (a relax._Layout).

    blocks_of(lo, hi) returns blocks lo+1..hi of every system as a
    (B, hi-lo, N, 2N+1) array; it is asked for slab blocks at a time
    and only one slab is held, along with each stage's relations.
    Returns the (B, N, M) corrections, whether each member has a
    nonzero meaningful residual, and the 1-based index of each member's
    first singular block (0 for none).
    """
    n, nl = lay.n, lay.n_left
    t = n - nl
    lead, trail = list(lay.lead), list(lay.trail)
    ar = np.arange(b)
    rel = np.zeros((m, n, b, t + 1))    # per point: [RHS, trailing coefficients]
    moved = np.zeros(b, dtype=bool)
    singular = np.zeros((m + 1, b), dtype=bool)    # per stage
    # per kind of stage: its rows, the working columns, the offset of
    # the point whose pinned unknowns it substitutes, the relation columns
    first, inner, last = [(slice(rows.start, rows.stop), carry[-1:] + sub + carry[:-1],
                           offset, np.r_[0, len(sub) + 1:len(sub) + len(carry)])
                          for rows, sub, carry, offset in lay.kinds]
    idx = 0
    for lo in range(0, m + 1, slab):
        run = np.moveaxis(blocks_of(lo, min(lo + slab, m + 1)), 0, -1)
        for s in run:
            rows, cols, offset, keep = first if idx == 0 else inner if idx < m else last
            rows = s[rows]
            moved |= rows[:, -1].any(axis=0)
            x = rows[:, cols]
            np.negative(x[:, 0], out=x[:, 0])
            if offset is not None:      # the previous stage's pinned relations
                for i, a in enumerate(lead):
                    f = rows[:, offset + a, None]
                    cur = x[:, :t + 1]
                    np.subtract(cur, f * prev[i - nl].T, out=cur, where=f != 0.0)
            order, singular[idx] = _pivot(x, len(rows), ar)
            prev = x[order[:, :, None], keep, ar[:, None]]
            if idx < m:
                rel[idx, n - len(rows):] = prev
            idx += 1
        del run, s, rows                # one slab at a time

    dy = np.empty((b, n, m))
    dy[:, trail, m - 1] = prev[:, :, 0].T
    for idx in range(m - 1, -1, -1):
        p, x = rel[idx], dy[:, trail, idx]
        v = p[:, :, 0]
        for j in range(t):
            v = v - p[:, :, 1 + j] * x[:, j]
        if idx:
            dy[:, trail, idx - 1] = v[:t].T
        dy[:, lead, idx] = v[t:].T
    first_bad = np.where(singular.any(axis=0), singular.argmax(axis=0) + 1, 0)
    return dy, moved, first_bad
