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
`left` tuple; n_left = len(left).  Each formulation's N and left follow
from its end conditions in problems._FORMULATIONS.  This is the layout
of solvde in Numerical Recipes, section 17.3, with the pinned unknowns
named rather than required to come first.

The linear system S*delta = -E is block tridiagonal.  It is solved
stage by stage and back-substituted, never materialising the dense
matrix, by one elimination generated per layout: straight-line Python
whose interior stage loops over the sweep's blocks, packing float64
relation records into one store as solvde fills c; its back-substitution
writes the corrections straight into one float64 array, as bksub fills y.
relax_batch runs one Newton loop over B grids (relax is B = 1), as a
scan relaxes a window of guesses, and eliminates each grid alone, so each
grid stops at the same sweep with the same bits as it would alone.  One
loop assembles grids a group at a time in slabs of GROUP_BLOCKS rows, so a
longer sweep streams into its elimination, as solvde asks difeq for blocks.
With two CPUs a helper process (_Helper), started at a process's second
batch of two groups or more and killed at its exit, eliminates every
other group.
"""

from __future__ import annotations

import atexit
import collections
import contextlib
import functools
import itertools
import math
import os
import struct
import sys
import threading
from dataclasses import dataclass

import numpy as np

from .grid import RelaxConfig, SolutionGrid

LEFT = (0,)                     # unknowns pinned at x = 0 unless the problem says
_HEAD = struct.Struct("4q")     # a helper request: groups, intervals, N, len(left)


class SingularBlockError(ArithmeticError):
    """Raised when elimination hits a zero pivot in block k (1-based)."""

    def __init__(self, k: int):
        self.k = k
        super().__init__(f"singular block at k={k}")

    def __reduce__(self):           # pickle and copy rebuild from k, not the message
        return type(self), (self.k,)


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
    """Blocks as one C-contiguous (M+1, N, 2N+1) float array; such arrays pass through."""
    s = np.ascontiguousarray(blocks if isinstance(blocks, np.ndarray)
                             else [getattr(b, "s", b) for b in blocks], dtype=float)
    if s.ndim != 3 or s.shape[2] != 2 * s.shape[1] + 1:
        raise ValueError("blocks must stack to an (M+1, N, 2N+1) array")
    return s


def _split(n: int, left) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(left, trailing) unknowns: those the left conditions pin, the rest."""
    left = tuple(left)
    if (not left or len(set(left)) != len(left) or len(left) >= n
            or not all(0 <= v < n for v in left)):
        raise ValueError(f"left must name 1..{n - 1} distinct unknowns of {n}")
    return left, tuple(v for v in range(n) if v not in left)


def _compile(name: str, lines: list[str], **names):
    namespace = {"SingularBlockError": SingularBlockError, **names}
    exec("\n".join(lines), namespace)
    return namespace[name]


class _Layout:
    """Index plan and generated elimination for N unknowns with `left` pinned.

    Every stage leaves, per sub column in order, a relation
    delta = p[-1] - sum(p[j]*delta_t_j) over the trailing unknowns t_j
    of the stage's rightmost point (the carry columns of its pivot row),
    so the relations for the pinned unknowns of that point come last.

    A stage eliminates its square sub-block Gauss-Jordan style by this
    pivot rule: each row's scale is 1/max|entry| over its sub columns,
    taken once (zero, or NaN first, is singular); at each step every
    unassigned row offers its first largest |entry| over the open sub
    columns, the first row whose offer times its scale is largest wins
    (a NaN never wins; a step without a positive product is singular),
    and the pivot row, divided by the pivot, is subtracted f times from
    each other row with f != 0.0, over the open sub and carry columns
    only.  eliminate(blocks, m, out), generated once per layout, runs the
    interior stage as the body of one loop over blocks, the flat tuples
    unpack(s) reads from a C-contiguous sweep (or slab after slab), counting k.
    Each interior stage packs its carry rows (row j holds sub column j's
    relation), N x (len(trail)+1) floats, as one record into a bytearray
    filled from the end; back reads them in order and stores unknown v's
    corrections in d{v}, slice [v*M:(v+1)*M] of a flat memoryview of out,
    the C-contiguous (N, M) float64 array eliminate writes and returns.
    The boundary stages and back run once per solve, compiled apart:
    compile memory grows with source.
    """

    def __init__(self, n: int, left: tuple[int, ...]):
        lead, trail = _split(n, left)
        nl, w = len(lead), len(trail) + 1       # a relation's width, RHS last
        self.n, self.lead, self.trail = n, lead, trail
        pinned, trailing = [n + a for a in lead], [n + t for t in trail]
        # per kind of stage (left boundary, interior, right boundary): the
        # rows it reads, its sub and carry columns, and where the columns
        # of the point whose pinned unknowns the previous stage relates start
        kinds = [(range(n - nl, n), pinned, trailing + [2 * n], None),
                 (range(n), [*trail, *pinned], trailing + [2 * n], 0),
                 (range(n - nl), trailing, [2 * n], n)]
        (t0, first), (t1, inner), (t2, right) = (self._stage(*kind) for kind in kinds)

        def flat(p, rows, width=w):     # rows' relations as names, row by row
            return ", ".join(f"{p}{i}_{j}" for i in rows for j in range(width))

        def stage(target, body, r, width, rel=""):
            return _compile("stage", ["def stage(block, rel, k):", f" {target} = block",
                                      *([f" {rel}, = rel"] if rel else []),
                                      *(f" {line}" for line in body),
                                      f" return {flat('c', range(r), width)},"])

        def value(p, i):
            return f"{p}{i}_{w - 1}" + "".join(f" - {p}{i}_{j} * x{t}"
                                               for j, t in enumerate(trail))
        x, q = ", ".join(f"x{t}" for t in trail), flat("q", range(nl))
        record = struct.Struct(f"{n * w}d")     # one interior stage's relations
        back = _compile("back", [
            "def back(recs, rel0, last, m, out):",
            " dy = memoryview(out).cast('B').cast('d')",
            f" {', '.join(f'd{v}' for v in range(n))}, ="
            f" {', '.join(f'dy[{v} * m:{v + 1} * m]' for v in range(n))},",
            f" {x}, = last",
            f" for idx, ({flat('p', range(n))}) in"
            f" zip(range(m - 1, 0, -1), unpack(recs)):",
            *(f"  d{t}[idx] = x{t}" for t in trail),
            *(f"  d{a}[idx] = {value('p', len(trail) + i)}" for i, a in enumerate(lead)),
            f"  {x}, = {', '.join(value('p', j) for j in range(len(trail)))},",
            *(f" d{t}[0] = x{t}" for t in trail),
            f" {q}, = rel0",
            *(f" d{a}[0] = {value('q', i)}" for i, a in enumerate(lead)),
            " return out"], unpack=record.iter_unpack)
        self.unpack = struct.Struct(f"{n * (2 * n + 1)}d").iter_unpack
        self.eliminate = _compile("eliminate", [
            "def eliminate(blocks, m, out):",
            f" {q}, = rel0 = first(next(blocks), None, 1)",
            f" recs, k = bytearray({record.size} * (m - 1)), 1",
            f" for {t1} in islice(blocks, m - 1):",
            "  k += 1",
            *(f"  {line}" for line in inner),
            f"  pack_into(recs, (m - k) * {record.size}, {flat('c', range(n))})",
            f"  {q} = {flat('c', range(n - nl, n))}",
            f" return back(recs, rel0, right(next(blocks), ({q},), m + 1), m, out)"],
            islice=itertools.islice,
            pack_into=record.pack_into,
            first=stage(t0, first, nl, w), right=stage(t2, right, n - nl, 1, q), back=back)

    def _stage(self, rows: range, sub: list[int], carry: list[int], offset):
        """(target, body): the source of one kind of stage, to be indented.

        target unpacks a block's flat tuple into row i's a{i}_{j} (sub),
        c{i}_{j} (carry) and f{i}_{j} (the previous point's pinned
        columns).  body negates the RHS, substitutes the previous stage's
        pinned relations q{i}_{j} (unless offset is None), eliminates by
        the pivot rule, raising SingularBlockError(k) where that fails,
        and leaves sub column j's relation in row j's carry locals.  A
        step rotates its pivot row and column to position `step`, so the
        searches stay first-largest, and keeps its pivot column in
        pc{step}; the body ends by undoing the column rotations on the
        carry rows, last step first.  So the source grows as r**3, not r!
        (337 lines for the N = 4 interior body).  |x| is written
        x if x >= 0.0 else -x: it compares as abs(x) does, NaN included.
        """
        n, lead, trail, r, w = self.n, self.lead, self.trail, len(sub), len(carry)
        names = {col: f"a{{}}_{j}" for j, col in enumerate(sub)}
        names.update({col: f"c{{}}_{j}" for j, col in enumerate(carry)})
        names.update({col + offset: f"f{{}}_{j}" for j, col in enumerate(lead)
                      if offset is not None})

        def rotate(group, by=-1):       # the last to the front (by=1: the first to the end)
            return f" {', '.join(group)} = {', '.join(group[by:] + group[:by])}"

        def search(i, step):            # row i's offer: its first largest |entry|, scaled
            # the first step's search also takes the row's scale: starting
            # from |entry 0| rather than 0.0 changes b or jp only when that
            # entry is NaN, and then the row is singular
            first = step == 0
            return [*([f"b = a{i}_0 if a{i}_0 >= 0.0 else -a{i}_0", "jp = 0"]
                      if first else ["b = 0.0"]),
                    *(line for j in range(step + first, r) for line in (
                        f"v = a{i}_{j} if a{i}_{j} >= 0.0 else -a{i}_{j}",
                        f"if v > b: b = v; jp = {j}")),
                    *(["if not b > 0.0: raise SingularBlockError(k)", f"s{i} = 1.0 / b"]
                      if first else []),
                    f"v = b * s{i}", f"if v > best: best = v; prow = {i}; pcol = jp"]

        def live(i, step):              # row i's entries still read from step on
            return [f"a{i}_{j}" for j in range(step, r)] + [f"c{i}_{j}" for j in range(w)]

        def branches(test, step, group):    # one rotation of group(p) per pcol or prow p
            return [line for p in range(step + 1, r) for line in (
                f"{'el' if p > step + 1 else ''}if {test} == {p}:", *group(p))]

        rhs = [f"c{i}_{w - 1}" for i in range(r)]
        target = ", ".join(names.get(col, "_").format(rows.index(row)) if row in rows
                           else "_" for row in range(n) for col in range(2 * n + 1))
        lines = [f"{x} = -{x}" for x in rhs]
        for i in range(len(lead) if offset is not None else 0):
            for row in range(r):
                lines += [f"if f{row}_{i} != 0.0:",
                          *(f" {names[offset + u].format(row)} -= f{row}_{i} * q{i}_{j}"
                            for j, u in enumerate(trail)),
                          f" {rhs[row]} -= f{row}_{i} * q{i}_{len(trail)}"]
        for step in range(r):
            lines += ["best = 0.0", "prow = -1",
                      *(line for i in range(step, r) for line in search(i, step)),
                      "if prow < 0: raise SingularBlockError(k)"]
            lines += branches("prow", step, lambda p: [
                *map(rotate, zip(*(live(i, step) for i in range(step, p + 1)))),
                f" {', '.join(f's{i}' for i in range(step + 1, p + 1))}"
                f" = {', '.join(f's{i}' for i in range(step, p))}"])
            lines += branches("pcol", step, lambda p: [
                rotate([f"a{i}_{j}" for j in range(step, p + 1)]) for i in range(r)])
            lines += [f"pc{step} = pcol"] if step < r - 1 else []
            piv = live(step, step + 1)
            lines += [f"inv = 1.0 / a{step}_{step}", *(f"{x} *= inv" for x in piv)]
            for i in range(r):
                if i != step:
                    lines += [f"if a{i}_{step} != 0.0:",
                              *(f" {x} -= a{i}_{step} * {y}"
                                for x, y in zip(live(i, step + 1), piv))]
        for step in reversed(range(r - 1)):
            lines += branches(f"pc{step}", step, lambda p: [
                rotate([f"c{i}_{j}" for i in range(step, p + 1)], 1) for j in range(w)])
        return target, lines


_layout = functools.cache(_Layout)     # one per layout, built at its first solve


def solve_block_system(blocks, left=LEFT) -> np.ndarray:
    """Solve S*delta = -E for the corrections, block by block.

    blocks is an (M+1, N, 2N+1) array, or a sequence of M+1 blocks,
    ordered left boundary, M-1 interior couplings, right boundary; left
    names the unknowns the left boundary rows determine.  Returns the
    corrections as a fresh (N, M) float64 array per call.  A stage
    that cannot determine its variables raises SingularBlockError.
    """
    s = _stack(blocks)
    m = s.shape[0] - 1
    if m < 2:
        raise ValueError("need a boundary block at each end and at least one interior block")
    layout = _layout(s.shape[1], tuple(left))
    return layout.eliminate(layout.unpack(s), m, np.empty((s.shape[1], m)))


GROUP_BLOCKS = 1024     # blocks alive at once: amortises numpy's call cost; 0.3 MB at N = 4


def _eliminate(sweeps, left, dy: np.ndarray, singular: np.ndarray):
    """Each sweep's corrections into dy, else where its elimination fails:
    an (M+1, N, 2N+1) array goes whole to solve_block_system, a stream of
    block tuples into the generated elimination, which writes into dy."""
    for i, sweep in enumerate(sweeps):
        try:
            if isinstance(sweep, np.ndarray):
                dy[i] = solve_block_system(sweep, left)
            else:
                _layout(dy.shape[1], left).eliminate(sweep, dy.shape[2], dy[i])
        except SingularBlockError as exc:
            singular[i] = exc.k
            collections.deque(iter(sweep), 0)   # a stream's later slabs: the exactness test


class _Helper:
    """The one helper process of a process: _serve answers each group's
    header and raw float64 sweeps on its stdin with their singular blocks
    (int64) and corrections (float64) on its stdout.  Only the thread that
    started it uses it, so requests never interleave."""

    proc = owner = None
    ready = False

    def __init__(self):
        self.batches = itertools.count()

    def batch(self):
        """For a batch of two groups or more: this helper if it is ready and
        this thread started it, else None.  It starts at the second batch."""
        if len(getattr(os, "sched_getaffinity", lambda _: ())(0)) < 2:
            return None
        if next(self.batches) == 1:
            import subprocess
            code = ("import signal, sys; signal.signal(signal.SIGINT, signal.SIG_IGN); "
                    f"sys.path.insert(0, {os.path.dirname(os.path.dirname(__file__))!r}); "
                    "from relaxbound.relax import _serve; _serve()")
            with contextlib.suppress(OSError):      # no Popen, no helper
                self.proc = subprocess.Popen([sys.executable, "-c", code],
                                             stdin=subprocess.PIPE, stdout=subprocess.PIPE)
                self.owner = os.getpid(), threading.get_ident()
                atexit.register(self.stop)
        if self.proc is None or self.owner != (os.getpid(), threading.get_ident()):
            return None
        if not self.ready:
            import select
            if not select.select([self.proc.stdout], [], [], 0)[0]:
                return None
            self.ready = self.proc.stdout.read(1) == b"R"
        if not self.ready or self.proc.poll() is not None:
            self.stop()             # it died: run without it
        return None if self.proc is None else self

    def send(self, s: np.ndarray, left):
        head = _HEAD.pack(len(s), s.shape[1] - 1, s.shape[2], len(left))
        try:
            self.proc.stdin.writelines([head, struct.pack(f"{len(left)}q", *left), s])
            self.proc.stdin.flush()
        except BrokenPipeError as exc:
            raise RuntimeError("the elimination helper died") from exc

    def receive(self, *out: np.ndarray):
        for view in (memoryview(a).cast("B") for a in out):
            if self.proc.stdout.readinto(view) != len(view):
                raise RuntimeError("the elimination helper died")

    def stop(self):
        """Kill and reap the helper, unless another process started it."""
        if self.proc is not None and self.owner[0] == os.getpid():
            proc, self.proc = self.proc, None
            with contextlib.suppress(BrokenPipeError), proc:    # closes the pipes, waits
                proc.kill()


_HELPER = _Helper()


def _serve():
    """The helper's loop: answer each request until its stdin closes."""
    src, dst = sys.stdin.buffer, sys.stdout.buffer
    dst.write(b"R")
    dst.flush()
    while head := src.read(_HEAD.size):
        g, m, n, nl = _HEAD.unpack(head)
        left = struct.unpack(f"{nl}q", src.read(8 * nl))
        s = np.frombuffer(src.read(8 * g * (m + 1) * n * (2 * n + 1)))
        dy, singular = np.zeros((g, n, m)), np.zeros(g, dtype=np.int64)
        _eliminate(s.reshape(g, m + 1, n, -1), left, dy, singular)
        dst.writelines([singular, dy])
        dst.flush()


def _corrections(problem, y: np.ndarray, left: tuple[int, ...], helper):
    """Newton corrections of each grid in y (B, N, M), in one array.

    Returns (dy, singular): singular holds the 1-based block where a
    grid's elimination failed, else 0.  Once all are eliminated, here or
    by the helper, a grid whose meaningful residuals are all exactly zero
    gets dy = -0.0 and no singular block: it already solves the discrete
    system, and its Jacobian may legitimately be singular (on the
    all-zero trivial solution the energy column vanishes entirely).  Its
    step then keeps its bits, and its err, 0.0, passes the test < conv.

    Groups of about GROUP_BLOCKS blocks of grids are assembled in slabs of
    at most GROUP_BLOCKS rows, by problem.assemble_batch(y, lo, hi), else
    by problem(k, grid) for k = 1..M+1, grid by grid.  A short sweep, or
    any of a problem without assemble_batch, is one slab and goes whole to
    solve_block_system; a longer one, alone in its group, streams into its
    elimination.  Given relax_batch's helper, groups go in pairs: the
    second is sent to the helper, the first eliminated here, then the
    helper's answer is read into dy.  If anything raises meanwhile, the
    helper is dropped: a request or answer may be cut short.
    """
    b, n, m = y.shape
    t = n - len(left)               # the right block's rows; the left block's start at t
    per_k = not hasattr(problem, "assemble_batch")
    rows = m + 1 if per_k else GROUP_BLOCKS     # per slab
    group = max(1, GROUP_BLOCKS // (m + 1))
    dy, exact, singular = np.zeros((b, n, m)), np.ones(b, dtype=bool), np.zeros(b, dtype=int)

    def slab(lo, start):            # rows start.. of the sweeps of the group at lo
        grids, stop = y[lo:lo + group], min(start + rows, m + 1)
        if per_k:
            s = np.stack([_stack([problem(k, grid) for k in range(1, m + 2)])
                          for grid in (SolutionGrid(g, n) for g in grids)])
        else:
            s = np.ascontiguousarray(problem.assemble_batch(grids, start, stop), dtype=float)
        want = (len(grids), stop - start, n, 2 * n + 1)
        if s.shape != want:
            raise ValueError(f"sweeps of {len(grids)} grids must be {want}, not {s.shape}")
        e = s[..., -1].reshape(len(s), -1)      # residuals; flat t..M*N+t-1 mean something
        exact[lo:lo + group] &= ~e[:, max(t - start * n, 0):(m - start) * n + t].any(axis=1)
        return s

    def sweeps(lo):                 # whole, or a stream: map keeps no slab past its blocks
        if rows > m:
            return slab(lo, 0)
        unpack = _layout(n, left).unpack
        return [itertools.chain.from_iterable(
            map(lambda start: unpack(slab(lo, start)), range(0, m + 1, rows)))]

    for lo in range(0, b, group if helper is None else 2 * group):
        mid, hi = lo + group, lo + 2 * group
        pending = helper is not None and mid < b
        try:
            if pending:
                helper.send(sweeps(mid), left)
            _eliminate(sweeps(lo), left, dy[lo:mid], singular[lo:mid])
            if pending:
                helper.receive(singular[mid:hi], dy[mid:hi])
        except BaseException:
            if pending:
                helper.stop()
            raise
    singular[exact], dy[exact] = 0, -0.0       # x + -0.0 is x, signed zeros too
    return dy, singular


def relax(problem, initial: SolutionGrid, config: RelaxConfig) -> RelaxOutcome:
    """Iterate damped Newton steps until the correction norm drops below conv.

    problem.assemble_batch(y, lo, hi), when present, must return rows
    lo..hi-1 (B, hi-lo, N, 2N+1) of the sweeps at each grid of the stacked
    (B, N, M) array y, row k-1 holding block k; every sweep is asked for,
    whole (lo, hi = 0, M+1) or in slabs of GROUP_BLOCKS rows if it is
    longer.  Otherwise problem(k, grid) must return block k (a
    DifferenceBlock or N x (2N+1) array) for k = 1..M+1, requested in
    that order exactly once per sweep.  N and M are the initial grid's
    shape; the mesh is the problem's own.  problem.left, when present,
    names the unknowns the left boundary rows determine (default (0,)),
    and config.scalv needs one entry per unknown.  Each sweep solves for
    the raw corrections, measures err = mean(|delta|/scalv), damps by
    fac = slowc/max(slowc, err), and applies y += fac*delta before
    testing err < conv.  Non-convergence (itmax exhausted, or a step
    that would leave the finite domain) is reported through the outcome,
    not raised; a singular block raises SingularBlockError.  This is
    relax_batch with one grid.
    """
    out, = relax_batch(problem, [initial], [config])
    if isinstance(out, SingularBlockError):
        raise out
    return out


def relax_batch(problem, initial, config) -> list:
    """relax every grid of initial, each with its own config, together.

    initial and config are equal-length sequences, and the grids share
    one shape.  All grids share one Newton loop: each sweep corrects
    every grid still iterating at once, and a grid leaves the loop at
    exactly the sweep, and with exactly the outcome, that relax would
    give it alone.  The result lists, in order, each grid's
    RelaxOutcome, or the SingularBlockError its elimination hit, so one
    singular grid does not stop the others.

    The problem contract is relax's: _corrections asks assemble_batch for
    each group's rows (0, M+1), or a longer sweep's slab by slab, and
    eliminates each grid alone.  With two CPUs, once the process's helper
    is ready, a sweep of two assembly groups or more (at most GROUP_BLOCKS
    blocks per grid) leaves every odd-numbered group to it; this process
    eliminates the others.
    """
    grids, configs = list(initial), list(config)
    if len(grids) != len(configs):
        raise ValueError("need one config per initial grid")
    if not grids:
        return []
    n, m = grids[0].y.shape
    for grid, cfg in zip(grids, configs):
        if grid.y.shape != (n, m):
            raise ValueError("initial grids differ in shape")
        if len(cfg.scalv) != n:
            raise ValueError(f"scalv needs one entry per unknown ({n})")
    left = tuple(getattr(problem, "left", LEFT))
    _split(n, left)
    helper = (_HELPER.batch() if m + 1 <= GROUP_BLOCKS and len(grids) > GROUP_BLOCKS // (m + 1)
              else None)
    y = np.stack([grid.y for grid in grids])
    del grids, initial                  # the loop needs only the stacked copy
    scalv = np.array([cfg.scalv for cfg in configs])
    slowc = np.array([cfg.slowc for cfg in configs])
    conv = np.array([cfg.conv for cfg in configs])
    itmax = np.array([cfg.itmax for cfg in configs])
    live = np.arange(len(y))            # members still iterating; rows of y
    out = [None] * len(y)
    nvar = n * m
    it = 0
    while live.size:
        it += 1
        dy, singular = _corrections(problem, y, left, helper)
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
        stepped = (singular == 0) & finite & np.isfinite(dy).all(axis=(1, 2))
        np.copyto(y, dy, where=stepped[:, None, None])
        done = stepped & ((err < conv[live]) | (it == itmax[live]))
        for i in np.flatnonzero(~stepped | done):
            if singular[i]:
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
