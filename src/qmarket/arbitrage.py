"""No-arbitrage decision via faithful martingale-state feasibility.

A state rho is a martingale state iff tr(rho G_m) = 0 for every element
G_m of an orthonormal basis of the attainable-claim space, which the
market builds once and which is itself the constraint set (see
:class:`qmarket.market.AttainableSpace`).
Arbitrage-freeness is decided by one ascent of the minimum eigenvalue of rho
over the affine slice {rho Hermitian : tr rho = 1, tr(rho G_m) = 0}: a
strictly positive optimum lambda* certifies a faithful (risk-neutral)
witness.  A negative one yields the dual certificate: at the optimum the
minimum-eigenspace weight W of rho is lambda* I + k with k in K, so
k = W - lambda* I >= -lambda* I is a positive attainable claim.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np
import scipy.optimize

# MartingaleConstraintSet and martingale_affine_slice are re-exported here
from .market import MartingaleConstraintSet, attainable_space, discount, martingale_affine_slice
from .operators import as_hermitian, herm_to_vec, trace_pairings, vec_to_herm
from .quantum import DensityState

FAITHFUL_STATE_FOUND = "FAITHFUL_STATE_FOUND"
NO_FAITHFUL_STATE = "NO_FAITHFUL_STATE"
INDETERMINATE = "INDETERMINATE"

FEASIBILITY_THRESHOLD = 1e-9
CLAIM_PSD_TOL = 1e-8
DEFAULT_MAX_ITERS = 50_000

# smoothing schedule of the ascent: beta = BETA_START * BETA_GROWTH^k up to BETA_CAP
BETA_START, BETA_GROWTH, BETA_CAP = 8.0, 8.0, 1.2e12
BETA_FINAL = BETA_START * BETA_GROWTH ** int(np.log(BETA_CAP / BETA_START) / np.log(BETA_GROWTH))


@dataclass
class FeasibilityResult:
    status: str
    lambda_star: float
    witness_state: Optional[DensityState] = None
    arbitrage_claim: Optional[np.ndarray] = None
    iterations: int = 0
    note: str = ""


def build_constraints(market):
    """Martingale-state constraints of a discounted market: its attainable space.

    rho is a martingale state iff it annihilates every element of the
    orthonormal basis of K.
    """
    return attainable_space(market)


def is_martingale_state(rho, market, tol=1e-8):
    """True iff rho annihilates every (unit-norm) martingale constraint."""
    cs = build_constraints(discount(market))
    mat = as_hermitian(rho.mat if isinstance(rho, DensityState) else rho)
    return bool(np.all(np.abs(cs.vecs @ herm_to_vec(mat)) <= tol))


# --- concave spectral solver ------------------------------------------------


def _soft_min(mat, beta):
    """(-log sum exp(-beta * spectrum) / beta, its gradient W): W >= 0, tr W = 1."""
    vals, vecs = np.linalg.eigh(mat)
    m = vals[0]
    z = np.exp(-beta * (vals - m))
    s = z.sum()
    w = z / s
    return m - np.log(s) / beta, (vecs * w) @ vecs.conj().T


def maximize_lambda_min(x0, basis, max_iters=DEFAULT_MAX_ITERS):
    """Maximize lambda_min(x0 + sum_i c_i B_i) over real coefficients c.

    The objective is concave and piecewise smooth; it is ascended through a
    sequence of smoothed surrogates -log sum exp(-beta * spectrum) / beta
    with increasing beta, each maximized by quasi-Newton steps using the
    exact eigenprojector gradient.  Returns (lambda, c, evaluations).
    """
    if len(basis) == 0:
        return float(np.linalg.eigvalsh(x0)[0]), np.zeros(0), 1
    stack = np.asarray(basis)
    sigma = max(1.0, float(np.linalg.norm(x0, 2)))
    x0n = np.asarray(x0, dtype=complex) / sigma
    flat = stack.reshape(len(stack), -1) / sigma

    def objective(c, beta):
        f, big_w = _soft_min(x0n + (c @ flat).reshape(x0n.shape), beta)
        return -f, -trace_pairings(flat, big_w)

    c = np.zeros(len(basis))
    evals = 0
    beta = BETA_START
    while beta <= BETA_CAP and evals < max_iters:
        res = scipy.optimize.minimize(
            objective,
            c,
            args=(beta,),
            jac=True,
            method="L-BFGS-B",
            options={"maxiter": 500, "ftol": 1e-18, "gtol": 1e-14},
        )
        c = res.x
        evals += res.nfev
        beta *= BETA_GROWTH
    lam = float(np.linalg.eigvalsh(x0 + np.tensordot(c, stack, axes=1))[0])
    return lam, c, evals


def _claim_decision(constraints, mat, lam, evals, note=""):
    """NO_FAITHFUL_STATE if mat projected onto K is a positive claim, else INDETERMINATE."""
    vecs = constraints.vecs
    claim = vec_to_herm((vecs @ herm_to_vec(mat)) @ vecs, constraints.dim)
    trace = float(np.trace(claim).real)
    lam_claim = float(np.linalg.eigvalsh(claim)[0]) / trace if trace > CLAIM_PSD_TOL else -np.inf
    if lam_claim >= -CLAIM_PSD_TOL:
        return FeasibilityResult(
            NO_FAITHFUL_STATE, lam, arbitrage_claim=claim / trace, iterations=evals, note=note
        )
    return FeasibilityResult(
        INDETERMINATE, lam, iterations=evals,
        note=f"no faithful state, best positive-claim lambda {lam_claim:.3e}",
    )


def max_min_eig_over_slice(constraints, max_iters=DEFAULT_MAX_ITERS):
    """Solve max lambda_min(rho) over the martingale-state slice.

    A positive optimum returns its witness, a negative one the dual certificate.
    """
    d = constraints.dim
    slice_ = constraints.affine_slice
    if slice_ is None:
        # I lies in K, so P_K(I) = I is the positive attainable claim
        return _claim_decision(
            constraints, np.eye(d, dtype=complex), float("-inf"), 0, note="affine set empty"
        )
    x0, basis = slice_
    lam, c, evals = maximize_lambda_min(x0, basis, max_iters)
    rho = x0 + np.tensordot(c, basis, axes=1)
    if lam > FEASIBILITY_THRESHOLD:
        return FeasibilityResult(
            FAITHFUL_STATE_FOUND, lam, witness_state=DensityState(rho), iterations=evals
        )
    if lam >= -FEASIBILITY_THRESHOLD:
        return FeasibilityResult(INDETERMINATE, lam, iterations=evals)
    # the last surrogate's weight on rho's spectrum, on the ascent's scale
    _, weight = _soft_min(rho / max(1.0, float(np.linalg.norm(x0, 2))), BETA_FINAL)
    return _claim_decision(constraints, weight - lam * np.eye(d), lam, evals)


def check_no_arbitrage(market, max_iters=DEFAULT_MAX_ITERS):
    """Fundamental-theorem decision: faithful witness or positive-claim certificate.

    The decision is kept on the market's constraint set, one per
    ``max_iters``, and every later call on the same market returns that
    same result object.
    """
    cs = build_constraints(discount(market))
    if max_iters not in cs.decisions:
        if len(cs) == 0:
            cs.decisions[max_iters] = FeasibilityResult(
                FAITHFUL_STATE_FOUND, 1.0 / cs.dim,
                witness_state=DensityState.maximally_mixed(cs.dim),
                note="no constraints: every state is a martingale state",
            )
        else:
            cs.decisions[max_iters] = max_min_eig_over_slice(cs, max_iters=max_iters)
    return cs.decisions[max_iters]
