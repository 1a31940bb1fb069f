"""Newton relaxation for two-point boundary value problems.

A problem with N unknowns per mesh point is linearised on an M-point
mesh into one N x (2N+1) block per coupling: columns 0..N-1
differentiate with respect to the unknowns at point k-1, columns
N..2N-1 with respect to point k, and column 2N carries the residual E.
Block k = 1 holds the n_left left boundary conditions (its meaningful
rows are the last n_left, derivatives in columns N..2N-1), blocks
k = 2..M couple adjacent mesh points, and the sentinel block k = M+1
holds the N - n_left right boundary conditions (rows 0..N-n_left-1,
derivatives in columns N..2N-1).

The problem names which unknowns the left conditions determine, its
`left` tuple; n_left = len(left).  The original formulation has N = 3,
left = (0,) (y1 = 0 at x = 0); the normalised one has N = 4,
left = (0, 3) (y1 = 0 and y4 = 0).  This is the layout of solvde in
Numerical Recipes, section 17.3, with the pinned unknowns named rather
than required to come first.

The linear system S*delta = -E is block tridiagonal.  With a sweep's
blocks held as one (M+1, N, 2N+1) array, it is solved by the usual
forward pivot/eliminate/reduce sweep, one block at a time, followed by
back-substitution, never materialising the dense matrix.

relax_batch runs one Newton loop over B grids (relax is its B = 1
case), as a scan relaxes a window of guesses.  Their systems are
eliminated in lockstep: stage by stage, numpy calls over the batch
apply every member's own pivots with the same rule and arithmetic, so
each grid stops at the same sweep with the same bits as it would alone.
A batch is assembled a few blocks at a time, so only the relations that
back-substitution needs are held for the whole mesh.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from operator import itemgetter
from typing import Callable

import numpy as np

from .grid import Mesh, RelaxConfig, SolutionGrid
from .lockstep import eliminate

LEFT = (0,)                     # unknowns pinned at x = 0 unless the problem says


class SingularBlockError(ArithmeticError):
    """Raised when elimination hits a zero pivot in block k (1-based)."""

    def __init__(self, k: int):
        self.k = k
        super().__init__(f"singular block at k={k}")


@dataclass(frozen=True)
class DifferenceBlock:
    """One linearised block: N x (2N+1) matrix [dE/dy_(k-1) | dE/dy_k | E]."""

    s: np.ndarray

    def __post_init__(self):
        s = np.asarray(self.s, dtype=float)
        if s.ndim != 2 or s.shape[1] != 2 * s.shape[0] + 1:
            raise ValueError("block must be N x (2N+1)")
        object.__setattr__(self, "s", s)


@dataclass(frozen=True)
class RelaxOutcome:
    grid: SolutionGrid
    iterations: int
    final_err: float
    converged: bool


def _stack(blocks) -> np.ndarray:
    """Blocks as one (M+1, N, 2N+1) float array; arrays pass through."""
    s = np.asarray(blocks if isinstance(blocks, np.ndarray)
                   else [getattr(b, "s", b) for b in blocks], dtype=float)
    if s.ndim != 3 or s.shape[2] != 2 * s.shape[1] + 1:
        raise ValueError("blocks must stack to an (M+1, N, 2N+1) array")
    return s


def _gauss_jordan(rows, sub_cols, carry, k: int) -> list[list[float]]:
    """Diagonalise the square sub-block; return the pivot row of each sub column.

    Pivots are chosen scaled-partial style: each unassigned row offers
    its largest |entry| over the unassigned sub_cols, weighted by the
    row's initial scale; ties keep the lowest row and column index.  A
    zero scale or zero pivot means the block cannot determine its
    variables.  Only the unassigned sub columns and the carry columns
    (the relation columns and the RHS) are updated, since no other
    entry is read again.
    """
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


def _split(n: int, left) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(left, trailing) unknowns: those the left conditions pin, the rest."""
    left = tuple(left)
    if (not left or len(set(left)) != len(left) or len(left) >= n
            or not all(0 <= v < n for v in left)):
        raise ValueError(f"left must name 1..{n - 1} distinct unknowns of {n}")
    return left, tuple(v for v in range(n) if v not in left)


def _compile(name: str, lines: list[str]):
    namespace = {}
    exec("\n".join(lines), namespace)
    return namespace[name]


class _Layout:
    """Index plan and stage arithmetic for N unknowns with `left` pinned.

    Every stage leaves, per unknown it solves for, a relation
    delta = p[-1] - sum(p[j]*delta_t_j) over the trailing unknowns t_j
    of the stage's rightmost point (the carry columns of its pivot row);
    the relations for the pinned unknowns of that point come last.
    Substituting those relations into the next block and
    back-substituting are a few multiply-subtracts per mesh point, so
    they are written out as straight-line Python once per layout (the
    statements a hand-written N = 3 solver holds).  Loops over index
    lists made the whole elimination about 35% slower.
    """

    def __init__(self, n: int, left: tuple[int, ...]):
        lead, trail = _split(n, left)
        nl = len(lead)
        self.n, self.n_left, self.lead, self.trail = n, nl, lead, trail
        self.pinned_cols = [n + a for a in lead]
        self.trailing_cols = [n + t for t in trail]
        self.carry = self.trailing_cols + [2 * n]
        self.relation = itemgetter(*self.carry)
        self.interior_cols = list(trail) + self.pinned_cols
        # substitute(rows, pivots): the previous stage's relations for
        # the pinned unknowns (its last n_left relations) into rows whose
        # columns for that point start at `offset`; residuals to the RHS
        self.substitute = [
            _compile("substitute", [
                "def substitute(rows, pivots):",
                *(f" q{i} = pivots[{i - nl}]" for i in range(nl)),
                " for row in rows:",
                "  row[-1] = -row[-1]",
                *(line for i, a in enumerate(lead) for line in (
                    f"  f = row[{offset + a}]",
                    "  if f != 0.0:",
                    *(f"   row[{offset + t}] -= f * q{i}[{j}]"
                      for j, t in enumerate(trail)),
                    f"   row[-1] -= f * q{i}[-1]")),
                " return rows"])
            for offset in (0, n)]

        def value(p):
            return f"{p}[-1]" + "".join(f" - {p}[{j}] * x{t}"
                                        for j, t in enumerate(trail))
        d = ", ".join(f"d{v}" for v in range(n))
        self.back_substitute = _compile("back", [
            "def back(rels, last, m):",
            f" {d}, = dy = [[0.0] * m for _ in range({n})]",
            *(f" d{t}[m - 1] = last[{j}][-1]" for j, t in enumerate(trail)),
            " for idx in range(m - 1, 0, -1):",
            *(f"  x{t} = d{t}[idx]" for t in trail),
            f"  {', '.join(f'p{j}' for j in range(n))}, = rels[idx]",
            *(f"  d{t}[idx - 1] = {value(f'p{j}')}" for j, t in enumerate(trail)),
            *(f"  d{a}[idx] = {value(f'p{len(trail) + i}')}"
              for i, a in enumerate(lead)),
            *(f" x{t} = d{t}[0]" for t in trail),
            *(f" d{a}[0] = {value(f'rels[0][{i}]')}" for i, a in enumerate(lead)),
            " return dy"])


@functools.cache
def _layout(n: int, left: tuple[int, ...]) -> _Layout:
    return _Layout(n, left)


def solve_block_system(blocks, left=LEFT) -> np.ndarray:
    """Solve S*delta = -E for the corrections, block by block.

    blocks is an (M+1, N, 2N+1) array, or a sequence of M+1 blocks,
    ordered left boundary, M-1 interior couplings, right boundary; left
    names the unknowns the left boundary rows determine.  Returns the
    N x M correction array.  Raises SingularBlockError (with the 1-based
    block index) when a stage cannot determine its variables.
    """
    s = _stack(blocks)
    m = s.shape[0] - 1
    if m < 2:
        raise ValueError("need a boundary block at each end and at least one interior block")
    lay = _layout(s.shape[1], tuple(left))
    n, nl, carry, relation = lay.n, lay.n_left, lay.carry, lay.relation
    interior, (into_prev, into_last) = lay.interior_cols, lay.substitute

    rows = s[0].tolist()[n - nl:]
    for row in rows:
        row[-1] = -row[-1]
    rels = [list(map(relation, _gauss_jordan(rows, lay.pinned_cols, carry, k=1)))]
    for idx in range(1, m):
        rows = into_prev(s[idx].tolist(), rels[-1])
        rels.append(list(map(relation, _gauss_jordan(rows, interior, carry,
                                                     k=idx + 1))))
    rows = into_last(s[m].tolist()[:n - nl], rels[-1])
    last = _gauss_jordan(rows, lay.trailing_cols, [2 * n], k=m + 1)
    return np.array(lay.back_substitute(rels, last, m))


def _exactly_solved(s: np.ndarray, n_left: int) -> bool:
    """True when every meaningful residual entry is exactly zero.

    Such a grid already solves the discrete system, so the Newton
    correction is zero by definition and no elimination is needed; the
    Jacobian may legitimately be singular there (on the all-zero trivial
    solution the energy column vanishes entirely).
    """
    n = s.shape[1]
    return not (s[0, n - n_left:, -1].any() or s[1:-1, :, -1].any()
                or s[-1, :n - n_left, -1].any())


SLAB = 8                        # blocks assembled at a time in a batched sweep
BATCH_MIN = 16                  # fewest grids worth eliminating together


def _sweep_blocks(problem, mesh: Mesh, grid: SolutionGrid) -> np.ndarray:
    """One grid's whole sweep, from problem.assemble or block by block."""
    assemble = getattr(problem, "assemble", None)
    blocks = _stack(assemble(grid) if assemble is not None else
                    [problem(k, grid) for k in range(1, mesh.m + 2)])
    if blocks.shape[1] != grid.n_vars:
        raise ValueError(f"blocks have {blocks.shape[1]} unknowns, the grid {grid.n_vars}")
    return blocks


def _corrections(problem, mesh: Mesh, y: np.ndarray, left: tuple[int, ...]):
    """Newton corrections of each grid in y (B, N, M).

    Returns (dy, exact, singular): exact marks grids whose residuals are
    all exactly zero (their dy is zero), singular holds the 1-based block
    where a grid's elimination failed, else 0.

    This is the one place the engine forks.  Fewer than BATCH_MIN grids
    are assembled whole and eliminated one at a time by
    solve_block_system's generated straight-line Python.  From BATCH_MIN
    on they are assembled SLAB blocks at a time and eliminated together
    by lockstep.eliminate, numpy calls over the batch.  Numpy's per-call
    overhead makes a batched sweep cost about the same for any batch of
    up to a few dozen grids: at M = 101 it took 25-40 ms against 1.1-2.3
    ms per grid for the straight-line kernel, so batching pays from about
    16 grids, and on a single grid at M = 10001 it is 13 times slower
    (2.2 s against 0.17 s per sweep; 2-core Xeon VM).  Both kernels give
    the same bits.
    """
    b, n, m = y.shape
    if b < BATCH_MIN:
        dy, exact, singular = [], np.zeros(b, dtype=bool), np.zeros(b, dtype=int)
        for i, g in enumerate(y):
            blocks = _sweep_blocks(problem, mesh, SolutionGrid(g, n))
            exact[i] = _exactly_solved(blocks, len(left))
            try:
                dy.append(np.zeros((n, m)) if exact[i] else
                          solve_block_system(blocks, left))
            except SingularBlockError as exc:
                singular[i] = exc.k
                dy.append(np.zeros((n, m)))
            del blocks
        return np.stack(dy), exact, singular

    blocks_of = getattr(problem, "assemble_slab", None)
    if blocks_of is None:
        whole = np.stack([_sweep_blocks(problem, mesh, SolutionGrid(g, n)) for g in y])
        blocks_of = lambda lo, hi: whole[:, lo:hi]
    else:
        blocks_of = functools.partial(blocks_of, y)
    with np.errstate(all="ignore"):
        dy, moved, singular = eliminate(blocks_of, b, m, _layout(n, left), SLAB)
    return dy, ~moved, singular


def relax(problem: Callable[[int, SolutionGrid], DifferenceBlock],
          mesh: Mesh, initial: SolutionGrid,
          config: RelaxConfig) -> RelaxOutcome:
    """Iterate damped Newton steps until the correction norm drops below conv.

    problem.assemble(grid), when present, must return the (M+1, N, 2N+1)
    blocks of a sweep and is called once per sweep.  Otherwise
    problem(k, grid) must return the difference block for k = 1..M+1;
    the engine requests blocks in that order exactly once per sweep.
    N is the initial grid's row count; problem.left, when present, names
    the unknowns the left boundary rows determine (default (0,)), and
    config.scalv needs one entry per unknown.  Each sweep solves for the
    raw corrections, measures err = mean(|delta|/scalv), damps by
    fac = slowc/max(slowc, err), and applies y += fac*delta before
    testing err < conv.  A grid whose residuals are all exactly zero
    converges immediately with zero correction.  Non-convergence (itmax
    exhausted, or a step that would leave the finite domain) is reported
    through the outcome, not raised; a singular block raises
    SingularBlockError.  This is relax_batch with one grid.
    """
    out, = relax_batch(problem, mesh, [initial], [config])
    if isinstance(out, SingularBlockError):
        raise out
    return out


def relax_batch(problem, mesh: Mesh, initial, config) -> list:
    """relax every grid of initial, each with its own config, in lockstep.

    initial and config are equal-length sequences.  All grids share one
    Newton loop: each sweep corrects every grid still iterating at once,
    and a grid leaves the loop at exactly the sweep, and with exactly
    the outcome, that relax would give it alone.  The result lists, in
    order, each grid's RelaxOutcome, or the SingularBlockError its
    elimination hit, so one singular grid does not stop the others.

    The problem contract is relax's: a per-block problem(k, grid), or
    problem.assemble(grid), is asked for each grid's sweep in turn.
    For BATCH_MIN grids or more, problem.assemble_slab(y, lo, hi) is
    used when present: blocks lo+1..hi of the sweep at every grid of
    the stacked (B, N, M) array y, as (B, hi-lo, N, 2N+1).  The engine
    then never holds a batch's whole sweep.
    """
    grids, configs = list(initial), list(config)
    if len(grids) != len(configs):
        raise ValueError("need one config per initial grid")
    if not grids:
        return []
    n = grids[0].n_vars
    for grid, cfg in zip(grids, configs):
        if grid.m != mesh.m:
            raise ValueError("initial grid does not match the mesh")
        if grid.n_vars != n:
            raise ValueError("initial grids differ in their number of unknowns")
        if len(cfg.scalv) != n:
            raise ValueError(f"scalv needs one entry per unknown ({n})")
    left = tuple(getattr(problem, "left", LEFT))
    _split(n, left)
    y = np.stack([grid.y for grid in grids])
    del grids, initial                  # the loop needs only the stacked copy
    scalv = np.array([cfg.scalv for cfg in configs])
    slowc = np.array([cfg.slowc for cfg in configs])
    conv = np.array([cfg.conv for cfg in configs])
    itmax = np.array([cfg.itmax for cfg in configs])
    live = np.arange(len(y))            # members still iterating; rows of y
    out = [None] * len(y)
    nvar = n * mesh.m
    it = 0
    while live.size:
        it += 1
        dy, exact, singular = _corrections(problem, mesh, y, left)
        with np.errstate(over="ignore", invalid="ignore"):
            # err as a per-unknown loop sums it, then y + fac*dy in place;
            # rows that do not step get values that are never used
            terms = np.abs(dy).sum(axis=2) / scalv[live]
            err = terms[:, 0]
            for j in range(1, n):
                err = err + terms[:, j]
            err = err / nvar
            dy *= (slowc[live] / np.maximum(slowc[live], err))[:, None, None]
            dy += y
        finite = np.isfinite(err)
        stepped = ~exact & (singular == 0) & finite & np.isfinite(dy).all(axis=(1, 2))
        np.copyto(y, dy, where=stepped[:, None, None])
        done = stepped & ((err < conv[live]) | (it == itmax[live]))
        for i in np.flatnonzero(~stepped | done):
            if exact[i]:
                result = RelaxOutcome(SolutionGrid(y[i], n), it, 0.0, True)
            elif singular[i]:
                result = SingularBlockError(int(singular[i]))
            elif not finite[i]:
                result = RelaxOutcome(SolutionGrid(y[i], n), it, math.inf, False)
            else:
                result = RelaxOutcome(SolutionGrid(y[i], n), it, float(err[i]),
                                      bool(stepped[i] and err[i] < conv[live[i]]))
            out[live[i]] = result
        keep = stepped & ~done
        if not keep.all():
            live, y = live[keep], y[keep]
        del dy                          # before the next sweep allocates its own
    return out
