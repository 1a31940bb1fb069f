"""In-memory spans around the calls one relaxbound layer makes into another.

Tracing replaces, for the duration of each traced call, the attribute a
calling module looks up (``relaxbound.problems.relax``,
``relaxbound.relax.solve_block_system``, ...) with a wrapper that
records a span: name, start, end, parent and a small note.  The package
source is never modified and untraced passes run the original objects.

Difference-block assembly is one span per Newton sweep: the wrapped
``block_builder`` callback opens it when relax requests block k = 1 and
closes it after block k = M+1, because the engine requests every block
exactly once per sweep in that order.

A layer's self time is the duration of its spans minus the part covered
by their direct child spans.
"""

from __future__ import annotations

import time
from collections import Counter
from contextlib import contextmanager
from importlib import import_module

# import_module, because the package re-exports a function named relax
# over its relax submodule
cli_mod, oracles_mod, problems_mod, relax_mod, scanner_mod = (
    import_module(f"relaxbound.{name}")
    for name in ("cli", "oracles", "problems", "relax", "scanner"))

ASSEMBLE = "problems.assemble"
PROBLEMS = "problems"
RELAX = "relax"
BLOCK_SOLVE = "relax.block_solve"
SCANNER = "scanner"
ORACLES = "oracles"
CLI = "cli"

# self-time metric for each span name
SELF_METRIC = {
    ASSEMBLE: "problems.assemble_s",
    PROBLEMS: "problems.self_s",
    BLOCK_SOLVE: "relax.block_solve_s",
    RELAX: "relax.self_s",
    SCANNER: "scanner.self_s",
    ORACLES: "oracles.s",
    CLI: "cli.self_s",
}


def _note_blocks(args, out):
    return {"blocks": len(args[0])}


def _note_outcome(args, out):
    return {"converged": out.converged, "sweeps": out.iterations,
            "energy": out.grid.energy}


def note_scan(args, out):
    return {"guesses": len(out.entries),
            "converged": sum(e.converged for e in out.entries)}


# (module, attribute, span name, note) for every cross-layer call site
_SITES = (
    (relax_mod, "solve_block_system", BLOCK_SOLVE, _note_blocks),
    (problems_mod, "relax", RELAX, _note_outcome),
    (scanner_mod, "relax", RELAX, _note_outcome),
    (scanner_mod, "solve_bound_state", PROBLEMS, None),
    (cli_mod, "solve_bound_state", PROBLEMS, None),
    (scanner_mod, "scan", SCANNER, note_scan),
    (cli_mod, "scan", SCANNER, note_scan),
    (cli_mod, "reproduce_tables", SCANNER, None),
    (scanner_mod, "hydrogen_energy", ORACLES, None),
    (scanner_mod, "linear_energy", ORACLES, None),
    (cli_mod, "hydrogen_energy", ORACLES, None),
    (cli_mod, "linear_energy", ORACLES, None),
    (cli_mod, "sample_exact_curve", ORACLES, None),
    (oracles_mod, "airy_zero_table", ORACLES, None),
)
_BUILDER_SITES = (problems_mod, scanner_mod)


class Tracer:
    """Span store; each span is [name, start, end, parent index, note]."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, None])
        self._stack.append(idx)
        return idx

    def close(self, idx: int, note=None) -> None:
        """End span idx and any child an exception left open inside it."""
        end = time.perf_counter()
        while self._stack and self._stack[-1] >= idx:
            self.spans[self._stack.pop()][2] = end
        if note is not None:
            self.spans[idx][4] = note

    def _wrap(self, name, fn, note):
        def traced(*args, **kwargs):
            idx = self.open(name)
            try:
                out = fn(*args, **kwargs)
            except Exception as exc:
                self.close(idx, {"raised": type(exc).__name__})
                raise
            self.close(idx, note(args, out) if note is not None else None)
            return out
        return traced

    def _wrap_builder(self, block_builder):
        def traced_builder(mesh, spec):
            build = block_builder(mesh, spec)
            last = mesh.m + 1
            current = [-1]

            def traced_build(k, grid):
                if k == 1:
                    current[0] = self.open(ASSEMBLE)
                block = build(k, grid)
                if k == last:
                    self.close(current[0], {"blocks": last})
                return block
            return traced_build
        return traced_builder

    @contextmanager
    def installed(self):
        """Route every cross-layer call site through a span wrapper."""
        saved = []
        try:
            for mod, attr, name, note in _SITES:
                fn = getattr(mod, attr)
                saved.append((mod, attr, fn))
                setattr(mod, attr, self._wrap(name, fn, note))
            for mod in _BUILDER_SITES:
                fn = mod.block_builder
                saved.append((mod, "block_builder", fn))
                mod.block_builder = self._wrap_builder(fn)
            yield self
        finally:
            for mod, attr, fn in reversed(saved):
                setattr(mod, attr, fn)


def summarise(spans: list[list], lo: int = 0) -> dict:
    """Self times (s) and counts over spans[lo:]; parents index spans."""
    child = Counter()
    for name, start, end, parent, _ in spans[lo:]:
        if parent >= lo:
            child[parent] += end - start
    self_s = Counter()
    counts = Counter()
    for i in range(lo, len(spans)):
        name, start, end, _, note = spans[i]
        self_s[SELF_METRIC[name]] += (end - start) - child[i]
        note = note or {}
        if name == ASSEMBLE:
            counts["problems.blocks"] += note.get("blocks", 0)
            counts["relax.sweeps"] += 1
        elif name == BLOCK_SOLVE:
            counts["relax.block_solves"] += 1
            counts["blocks_solved"] += note.get("blocks", 0)
        elif name == RELAX:
            counts["relax.solves"] += 1
            if note.get("raised") == "SingularBlockError":
                counts["relax.singular"] += 1
            elif not note.get("converged", False):
                counts["relax.nonconverged"] += 1
        elif name == SCANNER:
            counts["scanner.guesses"] += note.get("guesses", 0)
            counts["scan_converged"] += note.get("converged", 0)
        elif name == ORACLES:
            counts["oracles.calls"] += 1
        elif name == CLI:
            counts["cli.calls"] += 1
    return {"self_s": dict(self_s), "counts": dict(counts)}
