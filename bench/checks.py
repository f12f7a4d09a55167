"""Output checks computed apart from the solver, with numpy only.

States, projectors, partial transposes and probabilities are rebuilt here
from their definitions rather than taken from qscramble, so a check cannot
pass merely because the program agrees with itself.  Every function returns
a list of failure messages; an empty list means the check passed.
"""

from __future__ import annotations

import math

import numpy as np

MASK64 = (1 << 64) - 1
PSD_TOL = 1e-8
PROB_TOL = 1e-7
HS_RATE = 0.012  # the paper's unscrambled detection rate of Hilbert-Schmidt states

_PLUS = np.array([1.0, 1.0]) / math.sqrt(2.0)
_MINUS = np.array([1.0, -1.0]) / math.sqrt(2.0)
_ZERO = np.array([1.0, 0.0])
_ONE = np.array([0.0, 1.0])
# outcome order (++, +-, -+, --) and (00, 01, 10, 11)
XX_KETS = np.array([np.kron(a, b) for a in (_PLUS, _MINUS) for b in (_PLUS, _MINUS)])
ZZ_KETS = np.array([np.kron(a, b) for a in (_ZERO, _ONE) for b in (_ZERO, _ONE)])


def split_mix(seed: int, index: int) -> int:
    z = (seed + (index + 1) * 0x9E3779B97F4A7C15) & MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
    return z ^ (z >> 31)


def hs_states(seed: int, count: int) -> np.ndarray:
    """The scan's documented sample stream: sample i is G G^dag / Tr with G a
    Ginibre matrix from Box-Muller Gaussians of a Philox stream keyed by the
    SplitMix64 hash of (seed, i)."""
    out = np.empty((count, 4, 4), dtype=complex)
    for i in range(count):
        u = np.random.Generator(np.random.Philox(key=split_mix(seed, i))).random((2, 16))
        r = np.sqrt(-2.0 * np.log1p(-u[0]))
        g = (r * np.cos(2.0 * math.pi * u[1]) + 1j * r * np.sin(2.0 * math.pi * u[1]))
        g = g.reshape(4, 4)
        s = g @ g.conj().T
        out[i] = s / np.trace(s).real
    return out


def partial_transpose(m: np.ndarray) -> np.ndarray:
    """rho^{T_B} of a stack: <a b| rho^{T_B} |c d> = <a d| rho |c b>."""
    n = m.reshape(-1, 2, 2, 2, 2).transpose(0, 1, 4, 3, 2)
    return n.reshape(m.shape)


def min_eig(m: np.ndarray) -> np.ndarray:
    return np.linalg.eigvalsh(0.5 * (m + np.swapaxes(m, -1, -2).conj()))[..., 0]


def pt_min_eig(m: np.ndarray) -> np.ndarray:
    return min_eig(partial_transpose(m))


def probs(m: np.ndarray, kets: np.ndarray) -> np.ndarray:
    return np.real(np.einsum("ka,...ab,kb->...k", kets.conj(), m, kets))


def multisets(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """XX and ZZ probabilities sorted in descending order."""
    return (-np.sort(-probs(m, XX_KETS), axis=-1), -np.sort(-probs(m, ZZ_KETS), axis=-1))


def certificate(cert: np.ndarray, p_xx: np.ndarray, p_zz: np.ndarray, where: str) -> list[str]:
    """A separability certificate is a PSD, PPT, trace-one state with the given rows."""
    bad = []
    if abs(np.trace(cert).real - 1.0) > PSD_TOL:
        bad.append(f"{where}: certificate trace {np.trace(cert).real!r}")
    if min_eig(cert) < -PSD_TOL or pt_min_eig(cert) < -PSD_TOL:
        bad.append(f"{where}: certificate is not PSD and PPT within {PSD_TOL}")
    err = max(np.max(np.abs(probs(cert, XX_KETS) - p_xx)),
              np.max(np.abs(probs(cert, ZZ_KETS) - p_zz)))
    if err > PROB_TOL:
        bad.append(f"{where}: certificate misses the XX/ZZ rows by {err:.3g}")
    return bad


# ---------------------------------------------------------------------------
# Scans
# ---------------------------------------------------------------------------


def scan_outcomes(states: np.ndarray, outcomes: np.ndarray, label: str) -> list[str]:
    """A detected sample is NPT; a PPT sample, its own certificate, is not detected."""
    pt = pt_min_eig(states)
    bad = [f"{label}: sample {i} detected but PPT (min eig {pt[i]:.3g})"
           for i in np.nonzero((outcomes == 1) & (pt >= 0.0))[0]]
    return bad


def binomial_band(detected: int, samples: int, rate: float = HS_RATE) -> list[str]:
    """Detected count within four standard deviations of ``rate * samples``."""
    mean = rate * samples
    half = 4.0 * math.sqrt(samples * rate * (1.0 - rate))
    if abs(detected - mean) > half:
        return [f"scan-hs: {detected} of {samples} detected, outside "
                f"[{mean - half:.1f}, {mean + half:.1f}]"]
    return []


# ---------------------------------------------------------------------------
# The symmetric slice
# ---------------------------------------------------------------------------


def slice_multiset(p_pp: float, p_pm: float) -> np.ndarray:
    return np.array([p_pp, p_pm, p_pm, 1.0 - p_pp - 2.0 * p_pm])


def tsallis2(m: np.ndarray) -> float:
    return 1.0 - float(np.sum(m * m))


def separable_boundary_t2(s: float) -> float:
    """Closed-form q = qtilde = 2 separable boundary: -9/4 + 3 sqrt(1 - S) + S."""
    return -2.25 + 3.0 * math.sqrt(1.0 - s) + s


def segment_state(p_pp: float) -> np.ndarray:
    """Separable state on the segment p_pp + p_pm = 1/2: (1-w)|+0><+0| + w I/4,
    whose XX and ZZ multisets are {1/2 - w/4 (x2), w/4 (x2)}."""
    w = 4.0 * min(p_pp, 0.5 - p_pp)
    ket = np.kron(_PLUS, _ZERO).astype(complex)
    return (1.0 - w) * np.outer(ket, ket) + w * np.eye(4) / 4.0


def slice_points(points, rays: int) -> list[str]:
    """Properties of the classified grid (every point but the ray ends)."""
    bad = []
    grid = points[:len(points) - rays]
    on_segment = 0
    below = 0
    for pt in grid:
        m = slice_multiset(pt.p_pp, pt.p_pm)
        if abs(pt.p_pp + pt.p_pm - 0.5) < 1e-12 and pt.p_pp <= 0.5 + 1e-12:
            on_segment += 1
            rho = segment_state(pt.p_pp)
            mx, mz = multisets(rho)
            target = np.sort(m)[::-1]
            if max(np.max(np.abs(mx - target)), np.max(np.abs(mz - target))) > 1e-12:
                bad.append(f"slice: mixture does not realize ({pt.p_pp}, {pt.p_pm})")
            if not pt.possibly_separable:
                bad.append(f"slice: segment point ({pt.p_pp:.4f}, {pt.p_pm:.4f}) detected, "
                           "but a separable mixture of I/4 and |+>|0> produces it")
        s = tsallis2(m)
        if s < separable_boundary_t2(s) - 1e-9:
            below += 1
            if pt.possibly_separable:
                bad.append(f"slice: ({pt.p_pp:.4f}, {pt.p_pm:.4f}) lies below the Tsallis-2 "
                           "separable boundary but is not detected")
    if on_segment == 0 or below == 0:
        bad.append(f"slice: vacuous grid check ({on_segment} segment points, {below} "
                   "points below the entropy boundary)")
    if not all(pt.possibly_separable for pt in points[len(points) - rays:]):
        bad.append("slice: a ray boundary point is not marked possibly separable")
    return bad


# ---------------------------------------------------------------------------
# detect
# ---------------------------------------------------------------------------

PSI3 = np.array([3.0, 1.0, 1.0, 1.0]) / math.sqrt(12.0)


def noise_ray(lams) -> np.ndarray:
    """(1 - lam) I/4 + lam |psi_3><psi_3| for each lam."""
    proj = np.outer(PSI3, PSI3).astype(complex)
    return np.array([(1.0 - lam) * np.eye(4) / 4.0 + lam * proj for lam in lams])


def ginibre_states(seed: int, count: int) -> np.ndarray:
    """Hilbert-Schmidt states from a numpy Generator seeded by ``seed``."""
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((count, 4, 4)) + 1j * rng.standard_normal((count, 4, 4))
    s = g @ np.swapaxes(g, -1, -2).conj()
    return s / np.trace(s, axis1=1, axis2=2).real[:, None, None]


def detect_report(state: np.ndarray, report, where: str) -> list[str]:
    """Certificates, NPT-ness and the method hierarchy of one detect report."""
    bad = []
    methods = report.methods
    if methods.get("sdp") == "possibly_separable":
        ev = report.evidence.get("sdp", {})
        if "state" not in ev or ev.get("permutation") is None:
            return [f"{where}: possibly separable without a certificate state and permutation"]
        cert = np.array(ev["state"], dtype=complex)
        mx, mz = multisets(state)
        pi_x = ev["permutation"]["pi_x"]
        pi_z = ev["permutation"]["pi_z"]
        bad += certificate(cert, mx[pi_x], mz[pi_z], where)
    if report.overall == "detected" and pt_min_eig(state) >= 0.0:
        bad.append(f"{where}: detected but the input is PPT")
    for method in ("witness", "entropy"):
        if methods.get(method) == "detected" and methods.get("sdp") != "detected":
            bad.append(f"{where}: {method} detects but sdp does not")
    return bad


def single_flip(verdicts: list[str], where: str) -> list[str]:
    """Along a ray from I/4 the sdp verdict may change at most once."""
    changes = sum(1 for a, b in zip(verdicts, verdicts[1:]) if a != b)
    return [f"{where}: sdp verdict changes {changes} times: {verdicts}"] if changes > 1 else []
