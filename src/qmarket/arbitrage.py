"""No-arbitrage decision via faithful martingale-state feasibility.

A state rho is a martingale state iff tr(rho G_m) = 0 for every element
G_m of an orthonormal basis of the attainable-claim space, which the
market builds once and which is itself the constraint set (see
:class:`qmarket.market.AttainableSpace`).
Arbitrage-freeness is decided by one ascent of the minimum eigenvalue of rho
over the affine slice {rho Hermitian : tr rho = 1, tr(rho G_m) = 0}, for
every market and once per market: a strictly positive optimum lambda*
certifies a faithful (risk-neutral) witness.  Any other yields the dual
certificate: at the optimum the minimum-eigenspace weight W of rho is
lambda* I + k with k in K, so k = W - lambda* I >= -lambda* I is a positive
attainable claim.  At a band edge of a binomial market (r = a or r = b)
lambda* is zero and k is still positive, so band edges get a certificate too.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np
import scipy.optimize

# MartingaleConstraintSet is re-exported here
from .market import MartingaleConstraintSet, attainable_space, discount
from .operators import as_hermitian, herm_to_vec, vec_to_herm
from .quantum import DensityState

FAITHFUL_STATE_FOUND = "FAITHFUL_STATE_FOUND"
NO_FAITHFUL_STATE = "NO_FAITHFUL_STATE"
INDETERMINATE = "INDETERMINATE"

FEASIBILITY_THRESHOLD = 1e-9
CLAIM_PSD_TOL = 1e-8
MAX_EVALS = 50_000  # objective evaluations of one ascent, over all its smoothing stages
STAGE_ITERS = 500  # L-BFGS iterations of one smoothing stage

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


def maximize_lambda_min(x0, span, adjoint, size):
    """Maximize lambda_min(x0 + span(c)) over c in R^size, size >= 1.

    ``span`` maps R^size linearly to Hermitian operators and ``adjoint`` is
    its adjoint, W -> [tr(span(e_i) W)]_i.  Callers divide x0 and span by
    max(1, |x0|_2), so the schedule below is relative.  The objective is
    concave and piecewise smooth; it is ascended through a
    sequence of smoothed surrogates -log sum exp(-beta * spectrum) / beta
    with increasing beta, each maximized by quasi-Newton steps using the
    exact eigenprojector gradient.  Returns (lambda, c, evaluations,
    the number of stages stopped at their STAGE_ITERS cap).
    """

    def objective(c, beta):
        f, big_w = _soft_min(x0 + span(c), beta)
        return -f, -adjoint(big_w)

    c = np.zeros(size)
    evals = capped = 0
    beta = BETA_START
    while beta <= BETA_CAP and evals < MAX_EVALS:
        res = scipy.optimize.minimize(
            objective,
            c,
            args=(beta,),
            jac=True,
            method="L-BFGS-B",
            options={"maxiter": STAGE_ITERS, "ftol": 1e-18, "gtol": 1e-14},
        )
        c = res.x
        evals += res.nfev
        capped += res.nit >= STAGE_ITERS
        beta *= BETA_GROWTH
    return float(np.linalg.eigvalsh(x0 + span(c))[0]), c, evals, capped


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
    best = f"no faithful state, best positive-claim lambda {lam_claim:.3e}"
    return FeasibilityResult(
        INDETERMINATE, lam, iterations=evals, note="; ".join(filter(None, [note, best]))
    )


def max_min_eig_over_slice(constraints):
    """Solve max lambda_min(rho) over the martingale-state slice.

    A positive optimum returns its witness, any other the dual certificate.
    """
    d = constraints.dim
    x0 = constraints.slice_point
    if x0 is None:
        # I lies in K, so P_K(I) = I is the positive attainable claim
        return _claim_decision(
            constraints, np.eye(d, dtype=complex), float("-inf"), 0, note="affine set empty"
        )
    # rho = x0 + P(y) over herm-vec y, on the scale of x0
    step, scale = constraints.slice_step, max(1.0, float(np.linalg.norm(x0, 2)))
    lam, y, evals, capped = maximize_lambda_min(
        x0 / scale, lambda y: vec_to_herm(step(y), d), lambda w: step(herm_to_vec(w)), d * d
    )
    note = (
        f"{capped} smoothing stages stopped at their {STAGE_ITERS}-iteration cap" if capped else ""
    )
    lam *= scale
    rho_n = x0 / scale + vec_to_herm(step(y), d)
    if lam > FEASIBILITY_THRESHOLD:
        return FeasibilityResult(
            FAITHFUL_STATE_FOUND, lam, witness_state=DensityState(scale * rho_n),
            iterations=evals, note=note,
        )
    # the last surrogate's weight on rho's spectrum, on the ascent's scale
    _, weight = _soft_min(rho_n, BETA_FINAL)
    return _claim_decision(constraints, weight - lam * np.eye(d), lam, evals, note)


def check_no_arbitrage(market):
    """Fundamental-theorem decision: faithful witness or positive-claim certificate.

    The decision is kept on the market's constraint set, and every later
    call on the same market returns that same result object.
    """
    cs = build_constraints(discount(market))
    if cs.decision is None:
        cs.decision = max_min_eig_over_slice(cs)
    return cs.decision
