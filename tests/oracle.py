"""The independent L-BFGS oracle that the tests compare the closed-form solver against.

Run with scipy installed (the ``test`` extra); the package itself needs numpy alone.
"""

import math

import numpy as np

from qscramble.errors import check_probabilities
from qscramble.feasibility import _PROJECTORS
from qscramble.quantum import _ginibre, derive_seed, partial_transpose_stack

# ---------------------------------------------------------------------------
# Independent oracle: direct minimization of the constraint violation over a
# parametrized family of PPT states.  Kept deliberately separate from the
# closed-form solver: the two routes share the measured projectors and the
# package's partial transpose, and no step of a decision.
# ---------------------------------------------------------------------------

ORACLE_FEASIBLE_TOL = 1e-10
_ORACLE_STARTS = 6
_ORACLE_SEED = 0x0AC1E


def oracle_objective(avec: np.ndarray, targets: np.ndarray):
    """Violation value and analytic gradient at rho = A A^T / Tr(A A^T).

    The violation is the squared probability mismatch plus the squared
    negative part of the partially transposed spectrum.
    """
    ops = _PROJECTORS
    a = avec.reshape(4, 4)
    s = a @ a.T
    tr = float(np.trace(s))
    if tr < 1e-12:
        return 1e6 + tr, -2.0 * avec
    rho = s / tr
    r = np.einsum("kab,ab->k", ops, rho) - targets
    m = partial_transpose_stack(rho)
    w, v = np.linalg.eigh(0.5 * (m + m.T))
    neg = np.minimum(w, 0.0)
    value = float(r @ r + neg @ neg)
    d = 2.0 * np.einsum("k,kab->ab", r, ops)
    dpen = 2.0 * (v * neg) @ v.T
    d = d + partial_transpose_stack(dpen)
    grad = (2.0 / tr) * (d @ a - float(np.sum(d * rho)) * a)
    return value, grad.ravel()


def oracle_min_violation(p_xx: np.ndarray, p_zz: np.ndarray) -> float:
    """Smallest achievable squared constraint violation over PPT states.

    Parametrizes rho = A A^T / Tr(A A^T) with real A; real states suffice
    because the constraint operators are real, so the real part of any
    feasible state is feasible.  The PPT condition enters as a squared
    eigenvalue-negativity penalty, minimized by L-BFGS with an analytic
    gradient from six starts: the identity and five fixed random matrices.
    """
    targets = np.concatenate([check_probabilities("p_xx", p_xx, 1),
                              check_probabilities("p_zz", p_zz, 1)])
    from scipy.optimize import minimize

    best = math.inf
    for k in range(_ORACLE_STARTS):
        if k == 0:
            a0 = (0.5 * np.eye(4)).ravel()
        else:
            a0 = _ginibre(derive_seed(_ORACLE_SEED, k))[0].real.ravel() * 0.5
        res = minimize(oracle_objective, a0, args=(targets,), jac=True,
                       method="L-BFGS-B",
                       options={"maxiter": 400, "ftol": 1e-18, "gtol": 1e-12})
        best = min(best, float(res.fun))
        if best <= 1e-18:
            break
    return best


def oracle_feasible(p_xx: np.ndarray, p_zz: np.ndarray) -> bool:
    return oracle_min_violation(p_xx, p_zz) < ORACLE_FEASIBLE_TOL
