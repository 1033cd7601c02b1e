"""No-arbitrage decision via faithful martingale-state feasibility.

A state rho is a martingale state iff tr(rho G_m) = 0 for every element
G_m of an orthonormal basis of the attainable-claim space, which the
market builds once and which is itself the constraint set (see
:class:`qmarket.market.AttainableSpace`).

The decision and the super-hedge of :mod:`qmarket.pricing` are one
semidefinite program over span(I, K): the least multiple alpha of I with
F + alpha I + k >= 0 over k in K.  :func:`newton_core` solves it by Newton
steps on the log-det barrier for a geometric schedule of tau (Vandenberghe
& Boyd, "Semidefinite Programming", SIAM Review 38, 1996, sections 3 and
6); each centred step's dual estimate rho bounds the optimum from below, so
the solve stops on a certified gap.

For the decision, lambda* = max lambda_min(rho) over martingale states is
min{c : Z = c I + k >= 0, tr Z = 1, k in K}.  With T_i = K_i - tr(K_i)/d I,
Z(y) = I/d + sum_i y_i T_i has unit trace and c(y) = 1/d - tr(K).y/d, and
I/d is a strictly feasible start.  The dual rho gives the martingale state
rho + nu I with nu = (1 - tr rho)/d, so [nu, c] brackets lambda*.  nu above
FEASIBILITY_THRESHOLD certifies a faithful witness; c at or below it makes
Z - c I = sum_i y_i K_i >= -c I the positive attainable claim.  A band edge
of a binomial market (r = a or r = b), where lambda* = 0, is decided with a
certificate too.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np

# MartingaleConstraintSet is re-exported here
from .market import MartingaleConstraintSet, attainable_space, discount
from .operators import as_hermitian, herm_to_vec, vec_to_herm
from .quantum import DensityState

FAITHFUL_STATE_FOUND = "FAITHFUL_STATE_FOUND"
NO_FAITHFUL_STATE = "NO_FAITHFUL_STATE"
INDETERMINATE = "INDETERMINATE"

FEASIBILITY_THRESHOLD = 1e-9
CLAIM_PSD_TOL = 1e-8  # a certificate's lambda_min over its trace is at least minus this

GAP_TOL = 1e-10  # the Newton core stops once its certified gap is below this
TAU_STEP = 0.005  # tau schedule 1, TAU_STEP, TAU_STEP^2, ...
NEWTON_TOL = 1e-2  # squared Newton decrement at which an iterate counts as centred
NEWTON_STEPS = 500
WHITEN_ROWS = 64  # basis rows whitened per block, which bounds the solver's working set
LINE_GRID = 2.0 ** (-np.arange(320) / 8)  # trial step lengths 2^(-k/8) from 1 down to 1e-12


@dataclass
class FeasibilityResult:
    status: str
    lambda_star: float
    witness_state: Optional[DensityState] = None
    arbitrage_claim: Optional[np.ndarray] = None
    iterations: int = 0
    note: str = ""
    lambda_interval: Optional[tuple] = None  # the certified [nu, c] around lambda*
    witness_residual: Optional[float] = None  # max_m |tr(witness G_m)|


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


# --- the Newton core ---------------------------------------------------------


def newton_core(objective, offset, rows, start):
    """min c.x over X(x) = offset + (c.x) I + sum_j x_{l+j} G_j > 0, c = ``objective``.

    G_j are the herm-vec ``rows`` and l = len(c) - len(rows): the first l
    coordinates move I alone.  Newton steps on c.x - tau logdet X from the
    strictly feasible ``start``.  With X^-1 = W W* and M_i the whitened basis
    element W* B_i W, the gradient is c - tau tr M and the Hessian
    tau Re<M_i, M_j>.  At the Newton step s, with S = sum_i s_i M_i, the
    dual estimate rho = tau W (I - S) W* has tr(rho B_i) = c_i, and the gap
    c.x - (its dual value) is tau (d - tr S).  |S|_F^2 is the squared Newton
    decrement; an iterate with |S|_F <= 1/2 is centred, and its rho is
    positive definite.

    Returns (x, rho, gap, steps, failure): x the last iterate with X(x)
    positive definite, rho and gap those of the last centred iterate (None
    and inf before the first), and failure None once the gap is at most
    GAP_TOL, else the reason the solve stopped.  What a failure means is the
    caller's to decide.
    """
    d = offset.shape[0]
    lead = len(objective) - len(rows)
    m = np.empty((len(objective), d * d))  # herm-vec rows of the M_i
    rhs = np.stack([objective, objective], axis=1)  # columns c and tr M, set per step
    x = good = np.array(start, dtype=float)
    tau, centred = 1.0, None  # (tau, W, herm-vec of S) of the last centred iterate

    def result(x, steps, failure):
        if centred is None:
            return x, None, np.inf, steps, failure
        tau_c, w_c, s_c = centred
        rho = tau_c * w_c @ (np.eye(d) - vec_to_herm(s_c, d)) @ w_c.conj().T
        return x, rho, tau_c * (d - s_c[:d].sum()), steps, failure

    for steps in range(NEWTON_STEPS):
        lam, vecs = np.linalg.eigh(offset + vec_to_herm(x[lead:] @ rows, d))
        lam += objective @ x
        if lam[0] <= 0.0:
            return result(good, steps, "iterate is not positive definite")
        good, w = x, vecs / np.sqrt(lam)
        # whiten B_i = c_i I + G_{i-l} in blocks: M_i = c_i diag(1 / lam) + W* G W
        m[:lead] = 0.0
        for lo in range(0, len(rows), WHITEN_ROWS):
            block = vec_to_herm(rows[lo : lo + WHITEN_ROWS], d)
            k = len(block)
            white = w.conj().T @ (block.reshape(k * d, d) @ w).reshape(k, d, d)
            m[lead + lo : lead + lo + k] = herm_to_vec(white)
        m[:, :d] += objective[:, None] / lam
        rhs[:, 1] = m[:, :d].sum(axis=1)
        try:
            # the step at any tau is -(tau H)^-1 (c - tau tr M) = v - u / tau
            u, v = np.linalg.solve(m @ m.T, rhs).T
        except np.linalg.LinAlgError:
            return result(x, steps, f"Newton system is singular at tau={tau:.1e}")
        while True:
            step = v - u / tau
            s_vec = step @ m  # herm-vec of S
            dec = s_vec @ s_vec
            if dec <= 0.25:
                centred = (tau, w, s_vec)
                if tau * (d - s_vec[:d].sum()) <= GAP_TOL:
                    return result(x, steps, None)
            if dec > NEWTON_TOL:
                break
            tau *= TAU_STEP  # centred: follow the central path
        # line search: the longest grid step at which the objective, convex along the
        # step and exact in whitened form, still descends; the grid starts at the
        # first step that keeps X = W^-* (I + t S) W^-1 positive definite
        mu = np.linalg.eigvalsh(vec_to_herm(s_vec, d))
        rate = objective @ step
        first = 0 if mu[0] > -1.0 else int(8.0 * np.log2(-mu[0]) + 1e-9) + 1
        for lo in range(first, len(LINE_GRID), 64):
            grid = LINE_GRID[lo : lo + 64]
            descent = rate - tau * (mu / (1.0 + np.multiply.outer(grid, mu))).sum(axis=1) <= 0.0
            if descent.any():
                break
        else:
            return result(x, steps, f"line search failed at tau={tau:.1e}")
        x = x + grid[descent.argmax()] * step
    return result(good, NEWTON_STEPS, f"no convergence in {NEWTON_STEPS} Newton steps")


def max_min_eig_over_slice(constraints):
    """Decide max lambda_min(rho) over the martingale-state slice by the Newton core.

    A certified positive lambda* returns its witness, a certified
    non-positive one the positive attainable claim; an interval that still
    straddles the threshold is INDETERMINATE.
    """
    d = constraints.dim
    if constraints.perp is None:
        # I lies in K, so I / d is the positive attainable claim
        return FeasibilityResult(
            NO_FAITHFUL_STATE, float("-inf"), arbitrage_claim=np.eye(d, dtype=complex) / d,
            note="affine set empty",
        )
    vecs = constraints.vecs
    shift = -vecs[:, :d].sum(axis=1) / d  # -tr(K_i) / d: T_i = K_i + shift_i I
    y, rho, _, steps, failure = newton_core(
        shift, np.eye(d, dtype=complex) / d, vecs, np.zeros(len(vecs))
    )
    c = 1.0 / d + float(shift @ y)
    nu = -np.inf if rho is None else (1.0 - float(np.trace(rho).real)) / d
    bounds = f"lambda* in [{nu:.3e}, {c:.3e}]"
    note = f"{failure}; {bounds}" if failure else ""
    res = FeasibilityResult(INDETERMINATE, c, iterations=steps, note=note, lambda_interval=(nu, c))
    if nu > FEASIBILITY_THRESHOLD:
        witness = rho + nu * np.eye(d)
        witness /= np.trace(witness).real
        res.status, res.witness_state = FAITHFUL_STATE_FOUND, DensityState(witness)
        res.witness_residual = float(np.abs(vecs @ herm_to_vec(witness)).max(initial=0.0))
    elif c <= FEASIBILITY_THRESHOLD:
        # Z - c I = sum_i y_i K_i: in K by construction, and >= -c I
        claim = vec_to_herm(y @ vecs, d)
        res.status, res.arbitrage_claim = NO_FAITHFUL_STATE, claim / np.trace(claim).real
    else:
        res.note = note or bounds
    return res


def check_no_arbitrage(market):
    """Fundamental-theorem decision: faithful witness or positive-claim certificate.

    The decision is kept on the market's constraint set, and every later
    call on the same market returns that same result object.
    """
    cs = build_constraints(discount(market))
    if cs.decision is None:
        cs.decision = max_min_eig_over_slice(cs)
    return cs.decision
