"""No-arbitrage decision via faithful martingale-state feasibility.

A state rho is a martingale state iff tr(rho G_m) = 0 for every element
G_m of an orthonormal basis of the attainable-claim space, which the
market builds once and which is itself the constraint set (see
:class:`qmarket.market.AttainableSpace`).
Arbitrage-freeness is decided by maximizing the minimum eigenvalue of rho
over the affine slice {rho Hermitian : tr rho = 1, tr(rho G_m) = 0}: a
strictly positive optimum certifies a faithful (risk-neutral) witness, a
non-positive one triggers a search for a positive attainable claim as the
opposing certificate.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np
import scipy.linalg
import scipy.optimize

# MartingaleConstraintSet and martingale_affine_slice are re-exported here
from .market import MartingaleConstraintSet, attainable_space, discount, martingale_affine_slice
from .operators import as_hermitian, herm_to_vec, vec_to_herm
from .quantum import DensityState

FAITHFUL_STATE_FOUND = "FAITHFUL_STATE_FOUND"
NO_FAITHFUL_STATE = "NO_FAITHFUL_STATE"
INDETERMINATE = "INDETERMINATE"

FEASIBILITY_THRESHOLD = 1e-9
CLAIM_PSD_TOL = 1e-8
DEFAULT_MAX_ITERS = 50_000


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


def maximize_lambda_min(x0, basis, max_iters=DEFAULT_MAX_ITERS):
    """Maximize lambda_min(x0 + sum_i c_i B_i) over real coefficients c.

    The objective is concave and piecewise smooth; it is ascended through a
    sequence of smoothed surrogates -log sum exp(-beta * spectrum) / beta
    with increasing beta, each maximized by quasi-Newton steps using the
    exact eigenprojector gradient.  Returns (lambda, c, evaluations).
    """
    if len(basis) == 0:
        return float(np.linalg.eigvalsh(x0)[0]), np.zeros(0), 1
    stack = np.array(basis)
    sigma = max(1.0, float(np.linalg.norm(x0, 2)))
    x0n = np.asarray(x0, dtype=complex) / sigma
    flat = stack.reshape(len(stack), -1) / sigma
    flat_conj = flat.conj()

    def objective(c, beta):
        rho = x0n + (c @ flat).reshape(x0n.shape)
        vals, vecs = np.linalg.eigh(rho)
        m = vals[0]
        z = np.exp(-beta * (vals - m))
        s = z.sum()
        f = m - np.log(s) / beta
        w = z / s
        big_w = (vecs * w) @ vecs.conj().T
        # Re tr(W B_i) for Hermitian B_i
        grad = (flat_conj @ big_w.reshape(-1)).real
        return -f, -grad

    c = np.zeros(len(basis))
    evals = 0
    beta = 8.0
    while beta <= 1.2e12 and evals < max_iters:
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
        beta *= 8.0
    lam = float(np.linalg.eigvalsh(x0 + np.tensordot(c, stack, axes=1))[0])
    return lam, c, evals


def max_min_eig_over_slice(constraints, max_iters=DEFAULT_MAX_ITERS):
    """Solve max lambda_min(rho) over the martingale-state slice."""
    slice_ = constraints.affine_slice
    if slice_ is None:
        return FeasibilityResult(NO_FAITHFUL_STATE, float("-inf"), note="affine set empty")
    x0, basis = slice_
    lam, c, evals = maximize_lambda_min(x0, basis, max_iters)
    rho = x0 + np.tensordot(c, basis, axes=1)
    witness = None
    status = NO_FAITHFUL_STATE
    if lam > FEASIBILITY_THRESHOLD:
        witness = DensityState(rho)
        status = FAITHFUL_STATE_FOUND
    elif abs(lam) <= FEASIBILITY_THRESHOLD:
        status = INDETERMINATE
    return FeasibilityResult(status, lam, witness_state=witness, iterations=evals)


def _positive_claim_search(constraints, max_iters):
    """Maximize lambda_min(K) over {K in span(K-basis), tr K = 1}."""
    d = constraints.dim
    vecs = constraints.vecs
    traces = vecs @ herm_to_vec(np.eye(d, dtype=complex))
    nrm2 = float(traces @ traces)
    if nrm2 <= 1e-20:
        return None, 0.0, 0
    x0 = vec_to_herm((traces / nrm2) @ vecs, d)
    null = scipy.linalg.null_space(traces.reshape(1, -1))
    basis = vec_to_herm(null.T @ vecs, d)
    lam, c, evals = maximize_lambda_min(x0, basis, max_iters)
    claim = x0 + np.tensordot(c, basis, axes=1)
    return claim, lam, evals


def check_no_arbitrage(market, max_iters=DEFAULT_MAX_ITERS):
    """Fundamental-theorem decision: faithful witness or positive-claim certificate."""
    m = discount(market)
    cs = build_constraints(m)
    d = m.dim
    if len(cs) == 0:
        witness = DensityState.maximally_mixed(d)
        return FeasibilityResult(
            FAITHFUL_STATE_FOUND, 1.0 / d, witness_state=witness,
            note="no constraints: every state is a martingale state",
        )
    result = max_min_eig_over_slice(cs, max_iters=max_iters)
    if result.status == FAITHFUL_STATE_FOUND:
        return result
    if result.status == INDETERMINATE:
        return result
    claim, lam_claim, extra = _positive_claim_search(cs, max_iters)
    iters = result.iterations + extra
    if claim is None:
        # trace vanishes identically on the attainable span: a PSD traceless
        # operator is zero, so no positive claim can exist
        return FeasibilityResult(
            FAITHFUL_STATE_FOUND, result.lambda_star, iterations=iters,
            note="trace functional vanishes on the attainable span",
        )
    if lam_claim >= -CLAIM_PSD_TOL:
        return FeasibilityResult(
            NO_FAITHFUL_STATE, result.lambda_star,
            arbitrage_claim=claim, iterations=iters,
        )
    return FeasibilityResult(
        INDETERMINATE, result.lambda_star, iterations=iters,
        note=f"no faithful state, best positive-claim lambda {lam_claim:.3e}",
    )
