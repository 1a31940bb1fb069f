"""Newton relaxation for two-point boundary value problems.

Finite-difference equations on an M-point mesh are linearised into one
3x7 block per coupling: columns 0-2 differentiate with respect to the
unknowns at point k-1, columns 3-5 with respect to point k, and column
6 carries the residual E.  Block k = 1 holds the left boundary
condition (its meaningful rows are the last N_LEFT), blocks k = 2..M
couple adjacent mesh points, and the sentinel block k = M+1 holds the
right boundary conditions (rows 0..N_RIGHT-1, derivatives in columns
3-5).

The linear system S*delta = -E is block tridiagonal.  With a sweep's
blocks held as one (M+1, 3, 7) array, it is solved by the usual forward
pivot/eliminate/reduce sweep, one block at a time, followed by
back-substitution, never materialising the dense matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .grid import Mesh, RelaxConfig, SolutionGrid

N_VARS = 3
N_LEFT = 1                      # boundary conditions pinned at x = 0
N_RIGHT = N_VARS - N_LEFT
_RHS = 2 * N_VARS               # residual column index


class SingularBlockError(ArithmeticError):
    """Raised when elimination hits a zero pivot in block k (1-based)."""

    def __init__(self, k: int):
        self.k = k
        super().__init__(f"singular block at k={k}")


@dataclass(frozen=True)
class DifferenceBlock:
    """One linearised block: 3x7 matrix [dE/dy_(k-1) | dE/dy_k | E]."""

    s: np.ndarray

    def __post_init__(self):
        s = np.asarray(self.s, dtype=float)
        if s.shape != (N_VARS, 2 * N_VARS + 1):
            raise ValueError("block must be 3 x 7")
        object.__setattr__(self, "s", s)


@dataclass(frozen=True)
class RelaxOutcome:
    grid: SolutionGrid
    iterations: int
    final_err: float
    converged: bool


def _stack(blocks) -> np.ndarray:
    """Blocks as one (M+1, 3, 7) float array; arrays pass through."""
    s = np.asarray(blocks if isinstance(blocks, np.ndarray)
                   else [getattr(b, "s", b) for b in blocks], dtype=float)
    if s.ndim != 3 or s.shape[1:] != (N_VARS, 2 * N_VARS + 1):
        raise ValueError("blocks must stack to an (M+1, 3, 7) array")
    return s


def _stage_rows(s: np.ndarray, idx: int, meaningful: slice,
                rel=None, col: int = 0) -> list[list[float]]:
    """The meaningful rows of block idx with the residual sign flipped to
    the RHS and, given rel (the previous stage's relation for the variable
    in column col), that variable substituted into the two columns after it.
    """
    rows = s[idx].tolist()[meaningful]
    for row in rows:
        row[_RHS] = -row[_RHS]
        if rel is not None:
            f = row[col]
            if f != 0.0:
                row[col + 1] -= f * rel[0]
                row[col + 2] -= f * rel[1]
                row[_RHS] -= f * rel[2]
    return rows


def _gauss_jordan(rows, sub_cols, k: int) -> list[list[float]]:
    """Diagonalise the square sub-block; return the pivot row of each sub column.

    Pivots are chosen scaled-partial style: each unassigned row offers
    its largest |entry| over the unassigned sub_cols, weighted by the
    row's initial scale; ties keep the lowest row and column index.  A
    zero scale or zero pivot means the block cannot determine its
    variables.  Only the unassigned sub columns and the columns after
    the sub-block are updated, since no other entry is read again.
    """
    carry = list(range(sub_cols[-1] + 1, _RHS + 1))
    scale = []
    for row in rows:
        big = abs(row[sub_cols[0]])
        for c in sub_cols[1:]:
            v = abs(row[c])
            if v > big:
                big = v
        if not big > 0.0:
            raise SingularBlockError(k)
        scale.append(1.0 / big)

    open_cols = list(sub_cols)
    free = list(range(len(rows)))
    pivots = [None] * len(sub_cols)
    for _ in sub_cols:
        best = 0.0
        prow = pcol = -1
        for i in free:
            row = rows[i]
            big = 0.0
            jp = -1
            for c in open_cols:
                v = abs(row[c])
                if v > big:
                    big = v
                    jp = c
            if big * scale[i] > best:
                best = big * scale[i]
                prow, pcol = i, jp
        if prow < 0:
            raise SingularBlockError(k)
        open_cols.remove(pcol)
        free.remove(prow)
        live = open_cols + carry
        piv = rows[prow]
        inv = 1.0 / piv[pcol]
        for c in live:
            piv[c] *= inv
        for row in rows:
            f = row[pcol]
            if row is not piv and f != 0.0:
                for c in live:
                    row[c] -= f * piv[c]
        pivots[sub_cols.index(pcol)] = piv
    return pivots


def solve_block_system(blocks) -> np.ndarray:
    """Solve S*delta = -E for the corrections, block by block.

    blocks is an (M+1, 3, 7) array, or a sequence of M+1 blocks, ordered
    left boundary, M-1 interior couplings, right boundary.  Returns the
    3 x M correction array.  Raises SingularBlockError (with the 1-based
    block index) when a stage cannot determine its variables.
    """
    s = _stack(blocks)
    m = s.shape[0] - 1
    if m < 2:
        raise ValueError("need a boundary block at each end and at least one interior block")

    # rels[idx] holds stage idx's solved relations; each entry is
    # (c1, c2, r) meaning delta = r - c1*d1 - c2*d2 with (d1, d2) the
    # trailing variables of the stage's rightmost point.  The relation
    # for variable 0 of point idx is always last.
    rows = _stage_rows(s, 0, slice(N_VARS - N_LEFT, N_VARS))
    (row,) = _gauss_jordan(rows, (N_VARS,), k=1)
    rels = [[(row[4], row[5], row[_RHS])]]

    for idx in range(1, m):
        rows = _stage_rows(s, idx, slice(N_VARS), rels[-1][-1])
        rels.append([(row[4], row[5], row[_RHS]) for row in
                     _gauss_jordan(rows, (1, 2, N_VARS), k=idx + 1)])

    rows = _stage_rows(s, m, slice(N_RIGHT), rels[-1][-1], col=N_VARS)
    last1, last2 = _gauss_jordan(rows, (4, 5), k=m + 1)

    dy0, dy1, dy2 = dy = [[0.0] * m for _ in range(N_VARS)]
    dy1[m - 1] = last1[_RHS]
    dy2[m - 1] = last2[_RHS]
    for idx in range(m - 1, 0, -1):
        d1 = dy1[idx]
        d2 = dy2[idx]
        r0, r1, r2 = rels[idx]
        dy1[idx - 1] = r0[2] - r0[0] * d1 - r0[1] * d2
        dy2[idx - 1] = r1[2] - r1[0] * d1 - r1[1] * d2
        dy0[idx] = r2[2] - r2[0] * d1 - r2[1] * d2
    rel = rels[0][0]
    dy0[0] = rel[2] - rel[0] * dy1[0] - rel[1] * dy2[0]
    return np.array(dy)


def _exactly_solved(s: np.ndarray) -> bool:
    """True when every meaningful residual entry is exactly zero.

    Such a grid already solves the discrete system, so the Newton
    correction is zero by definition and no elimination is needed; the
    Jacobian may legitimately be singular there (on the all-zero trivial
    solution the energy column vanishes entirely).
    """
    return not (s[0, N_VARS - N_LEFT:, _RHS].any() or s[1:-1, :, _RHS].any()
                or s[-1, :N_RIGHT, _RHS].any())


def relax(problem: Callable[[int, SolutionGrid], DifferenceBlock],
          mesh: Mesh, initial: SolutionGrid,
          config: RelaxConfig) -> RelaxOutcome:
    """Iterate damped Newton steps until the correction norm drops below conv.

    problem.assemble(grid), when present, must return the (M+1, 3, 7)
    blocks of a sweep and is called once per sweep.  Otherwise
    problem(k, grid) must return the difference block for k = 1..M+1;
    the engine requests blocks in that order exactly once per sweep.
    Each sweep solves for the raw corrections, measures
    err = mean(|delta|/scalv), damps by fac = slowc/max(slowc, err), and
    applies y += fac*delta before testing err < conv.  A grid whose
    residuals are all exactly zero converges immediately with zero
    correction.  Non-convergence (itmax exhausted, or a step that would
    leave the finite domain) is reported through the outcome, not raised.
    """
    if initial.m != mesh.m:
        raise ValueError("initial grid does not match the mesh")
    assemble = getattr(problem, "assemble", None)
    y = np.array(initial.y, dtype=float)
    nvar = N_VARS * mesh.m
    err = math.inf
    for it in range(1, config.itmax + 1):
        grid = SolutionGrid(y)
        blocks = _stack(assemble(grid) if assemble is not None else
                        [problem(k, grid) for k in range(1, mesh.m + 2)])
        if _exactly_solved(blocks):
            return RelaxOutcome(grid, it, 0.0, True)
        dy = solve_block_system(blocks)
        err = float(sum(np.abs(dy[j]).sum() / config.scalv[j]
                        for j in range(N_VARS))) / nvar
        if not math.isfinite(err):
            return RelaxOutcome(grid, it, math.inf, False)
        fac = config.slowc / max(config.slowc, err)
        stepped = y + fac * dy
        if not np.isfinite(stepped).all():
            return RelaxOutcome(grid, it, err, False)
        y = stepped
        if err < config.conv:
            return RelaxOutcome(SolutionGrid(y), it, err, True)
    return RelaxOutcome(SolutionGrid(y), config.itmax, err, False)
