"""Spans and counts recorded around calls into qscramble's public functions.

Nothing here reaches inside the package: each wrapper replaces a module
attribute at the place where the calling module looks the name up (for
example ``detector.solve_batch``, which ``scan_details`` calls), and is
removed again by :meth:`Tracer.restore`.  Spans stay in memory until the
run ends.  Counts are read from return values, so the program is not
modified.
"""

from __future__ import annotations

import functools
import importlib
from collections import Counter
from time import perf_counter

from qscramble import detector, feasibility, witness
from qscramble.feasibility import FeasibilityStatus

# the package's `entropy` attribute is the function, not the module
entropy = importlib.import_module("qscramble.entropy")

# (module, attribute looked up by the caller, span name)
SPANS = (
    (detector, "random_hs_stack", "quantum.random_hs_stack"),
    (detector, "probabilities_stack", "measurement.probabilities_stack"),
    (detector, "scan_details", "detector.scan_details"),
    (detector, "nonconvex_slice", "detector.nonconvex_slice"),
    (detector, "scrambled_possibly_separable", "feasibility.scrambled_possibly_separable"),
    (detector, "scrambled_family_min", "witness.scrambled_family_min"),
    (detector, "get_separable_boundary", "entropy.get_separable_boundary"),
    (entropy, "get_separable_boundary", "entropy.get_separable_boundary"),
    (detector, "tangent_curve", "witness.tangent_curve"),
    (witness, "tangent_curve", "witness.tangent_curve"),
)
SOLVE_SITES = ((detector, "solve_batch"), (feasibility, "solve_batch"))
MINIMIZE_SITES = ((entropy, "multistart_minimize"), (witness, "multistart_minimize"))

# per-layer metric -> span whose total time it reports
TIMED = {
    "cli.main.s": "cli.main",
    "quantum.random_hs_stack.s": "quantum.random_hs_stack",
    "measurement.probabilities_stack.s": "measurement.probabilities_stack",
    "feasibility.solve_batch.s": "feasibility.solve_batch",
    "feasibility.scrambled_possibly_separable.s": "feasibility.scrambled_possibly_separable",
    "entropy.get_separable_boundary.s": "entropy.get_separable_boundary",
    "witness.tangent_curve.s": "witness.tangent_curve",
    "optimize.multistart_minimize.s": "optimize.multistart_minimize",
    "witness.scrambled_family_min.s": "witness.scrambled_family_min",
}
SELF_TIMED = {
    "detector.scan_details.self_s": "detector.scan_details",
    "detector.nonconvex_slice.self_s": "detector.nonconvex_slice",
}
COUNTED = ("feasibility.problems", "feasibility.cycles", "feasibility.cycles_infeasible",
           "feasibility.infeasible", "feasibility.inconclusive", "optimize.objective_evals")


def count_solve(counts: Counter, result) -> None:
    """Problem, cycle and status counts from one ``solve_batch`` return value."""
    statuses, _, _, cycles = result
    counts["feasibility.problems"] += len(statuses)
    counts["feasibility.cycles"] += int(sum(int(c) for c in cycles))
    for s, c in zip(statuses, cycles):
        if s is FeasibilityStatus.INFEASIBLE:
            counts["feasibility.infeasible"] += 1
            counts["feasibility.cycles_infeasible"] += int(c)
        elif s is FeasibilityStatus.INCONCLUSIVE:
            counts["feasibility.inconclusive"] += 1


class Patches:
    """Module attributes replaced for one run; :meth:`restore` puts them back."""

    def __init__(self):
        self._saved = []

    def replace(self, module, attr, make):
        original = getattr(module, attr)
        self._saved.append((module, attr, original))
        setattr(module, attr, make(original))

    def restore(self):
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)


class Tracer(Patches):
    """Records one span (name, start, end, parent index) per wrapped call."""

    def __init__(self):
        super().__init__()
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    def wrap(self, name, fn, on_result=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            span = [name, perf_counter(), None, self._stack[-1] if self._stack else None]
            self.spans.append(span)
            self._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                self._stack.pop()
            if on_result is not None:
                on_result(self.counts, result)
            return result
        return traced

    def install(self):
        for module, attr, name in SPANS:
            self.replace(module, attr, functools.partial(self.wrap, name))
        for module, attr in SOLVE_SITES:
            self.replace(module, attr, lambda fn: self.wrap("feasibility.solve_batch", fn,
                                                            count_solve))
        for module, attr in MINIMIZE_SITES:
            self.replace(module, attr, self._wrap_minimize)

    def _wrap_minimize(self, fn):
        counts = self.counts

        def minimize(f, starts, **kwargs):
            def objective(x):
                counts["optimize.objective_evals"] += 1
                return f(x)
            return fn(objective, starts, **kwargs)
        return self.wrap("optimize.multistart_minimize", minimize)

    def per_layer(self, ops: int) -> dict[str, float]:
        total = Counter()
        child = Counter()
        for name, start, end, parent in self.spans:
            total[name] += end - start
            if parent is not None:
                child[parent] += end - start
        own = Counter()
        for index, (name, start, end, _) in enumerate(self.spans):
            own[name] += end - start - child[index]
        out = {metric: total[span] for metric, span in TIMED.items()}
        out.update({metric: own[span] for metric, span in SELF_TIMED.items()})
        out.update({metric: self.counts[metric] for metric in COUNTED})
        out["detector.assignments_per_sample"] = self.counts["feasibility.problems"] / ops
        return out
