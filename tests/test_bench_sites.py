"""The benchmark under bench/ wraps package functions at the module
attributes their callers look them up by, so a rename or a bypass there
breaks its traced runs or zeroes its counts.  These checks fail fast first."""

import importlib.util
from pathlib import Path

import qscramble.detector as det
from qscramble.detector import nonconvex_slice
from qscramble.feasibility import solve_batch

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _bench_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", BENCH / "spans.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_lookup_site_exists():
    spans = _bench_spans()
    sites = ([(module, attr) for module, attr, _ in spans.SPANS]
             + list(spans.SOLVE_SITES) + list(spans.MINIMIZE_SITES))
    missing = [f"{module.__name__}.{attr}" for module, attr in sites
               if not callable(getattr(module, attr, None))]
    assert not missing


def test_nonconvex_slice_decides_through_detector_solve_batch(monkeypatch):
    rows = []

    def counting(p_xx, p_zz, **kwargs):
        rows.append(len(p_xx))
        return solve_batch(p_xx, p_zz, **kwargs)

    monkeypatch.setattr(det, "solve_batch", counting)
    points = nonconvex_slice(8, rays=4)
    # the 18 assignments of every grid point, then of 4 rays x 3 bisection
    # midpoints; the ray ends come last in the output
    assert sum(rows) == 18 * (len(points) - 4 + 4 * 3)
