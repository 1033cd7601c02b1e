"""No-arbitrage decision via faithful martingale-state feasibility.

A state rho is a martingale state iff tr(rho G_m) = 0 for every unit-norm
row G_m of the period bases of the attainable-claim space (``rows``), which
the market builds once and which is itself the constraint set (see
:class:`qmarket.market.AttainableSpace`); the Newton core reads its basis.

The decision and the super-hedge of :mod:`qmarket.pricing` over a K of rank
two or more are one semidefinite program over span(I, K): the least multiple
alpha of I with F + alpha I + k >= 0 over k in K.  (Pricing hedges over a K
of one element in one variable.)  :func:`newton_core` solves it by Newton
steps on the log-det barrier for a geometric schedule of tau (Vandenberghe &
Boyd, "Semidefinite Programming", SIAM Review 38, 1996, sections 3 and 6);
each centred step's dual estimate rho bounds the optimum from below, so the
solve stops on a certified gap.  A Newton step goes at least the damped
length 1/(1 + |S|_F) of a self-concordant barrier (Nesterov, "Introductory
Lectures on Convex Optimization", 2004, section 4.1.5), so a tau stage of a
one-generator decision takes about one step.  Each call solves one such
program: the two ends of a price interval are two calls.

For the decision, lambda* = max lambda_min(rho) over martingale states is
min{c : Z = c I + k >= 0, tr Z = 1, k in K}.  With T_i = K_i - tr(K_i)/d I,
Z(y) = I/d + sum_i y_i T_i has unit trace and c(y) = 1/d - tr(K).y/d, and
I/d is a strictly feasible start.  The dual rho gives the martingale state
rho + nu I with nu = (1 - tr rho)/d, so [nu, c] brackets lambda*.  nu above
FEASIBILITY_THRESHOLD certifies a faithful witness; c at or below it makes
Z - c I = sum_i y_i K_i >= -c I the positive attainable claim.  A band edge
of a binomial market (r = a or r = b), where lambda* = 0, is decided with a
certificate too.

:func:`check_no_arbitrage` decides once per market, and pricing reads that
decision.  It runs no solver where K factorizes, as on a K of rank one and
on the paper's N-period binomial market, a tensor product of one-period
qubit markets: :func:`product_decision` brackets lambda* from the period
rows alone, by products of per-period optima and end bounds, one eigh each,
and decides wherever that bracket is as tight as the solver's gap.
"""

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

# MartingaleConstraintSet is re-exported here
from .market import SPAN_TOL, MartingaleConstraintSet, attainable_space, discount, require_dim
from .operators import as_hermitian, herm_to_vec, kron, vec_to_herm
from .quantum import DensityState

FAITHFUL_STATE_FOUND = "FAITHFUL_STATE_FOUND"
NO_FAITHFUL_STATE = "NO_FAITHFUL_STATE"
INDETERMINATE = "INDETERMINATE"

FEASIBILITY_THRESHOLD = 1e-9

GAP_TOL = 1e-10  # the Newton core stops once its certified gap is below this
TAU_STEP = 0.005  # tau schedule 1, TAU_STEP, TAU_STEP^2, ...
NEWTON_TOL = 1e-2  # squared Newton decrement at which an iterate counts as centred
NEWTON_STEPS = 500
SOLVE_TOL = 1e-12  # relative error below which a Newton step solves its system
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
    witness_residual: Optional[float] = None  # max_m |tr(witness G_m)| over the period rows


def is_martingale_state(rho, market, tol=1e-8):
    """True iff |tr(rho G)| <= tol for every unit-norm period row G of K (``rows``)."""
    mat = rho.mat if isinstance(rho, DensityState) else rho
    require_dim(mat, market.dim, "state")
    cs = attainable_space(discount(market))
    return bool(np.all(np.abs(cs.rows @ herm_to_vec(as_hermitian(mat))) <= tol))


# --- the Newton core ---------------------------------------------------------


def newton_core(objective, offset, rows, start):
    """min c.x over X(x) = offset + (c.x) I + sum_j x_{l+j} G_j > 0, c = ``objective``.

    G_j are the herm-vec ``rows`` and l = len(c) - len(rows): the first l
    coordinates move I alone.  Newton steps on c.x - tau logdet X from the
    strictly feasible ``start``; a step makes one eigh, one solve and one
    eigvalsh.

    With X^-1 = W W* and M_i the whitened basis element W* B_i W, the
    gradient is c - tau tr M and the Hessian tau Re<M_i, M_j>.  At the Newton
    step s, with S = sum_i s_i M_i, the dual estimate rho = tau W (I - S) W*
    has tr(rho B_i) = c_i, and the gap c.x - (its dual value) is
    tau (d - tr S).  |S|_F^2 is the squared Newton decrement; an iterate with
    |S|_F <= 1/2 is centred, and its rho is positive definite.

    The step at any tau is v - u / tau, so until the first centred iterate
    tau drops to 1/sigma for the sigma that minimises |(v - sigma u).m|^2 =
    |S|^2, when that is lower.  A singular Newton system takes the
    minimum-norm least-squares step, and a rho from such a step counts only
    if the step solves the system to rounding (SOLVE_TOL).

    With mu the eigenvalues of S, the line search tests in one pass every
    step t of the grid 2^(-k/8) with every 1 + t mu_i > 0, and takes the
    longest at which c.x - tau logdet X still descends.  A step that solves
    its system goes at least the damped length t = 1/(1 + |S|_F): there
    every 1 + t mu_i >= t > 0, and as c.s = tau (tr S - |S|_F^2) the slope
    tau sum_i mu_i^2 (t - 1 - t mu_i) / (1 + t mu_i) is not positive up to
    that t.  Without it the grid falls
    just short of the next centre after each tau cut, and each stage pays
    two corrector steps.  An ill-conditioned solve at small tau can miss
    that identity, so the damped step is taken only where it holds to
    SOLVE_TOL.

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
        lam += x @ objective
        if lam[0] <= 0.0:
            return result(good, steps, "iterate is not positive definite")
        good, w = x, vecs / np.sqrt(lam)
        # whiten B_i = c_i I + G_{i-l} block by block: M_i = c_i diag(1 / lam) + W* G W
        m[:lead] = 0.0
        for lo in range(0, len(rows), WHITEN_ROWS):
            block = vec_to_herm(rows[lo : lo + WHITEN_ROWS], d)
            k = len(block)
            white = w.conj().T @ (block.reshape(k * d, d) @ w).reshape(k, d, d)
            m[lead + lo : lead + lo + k] = herm_to_vec(white)
        m[:, :d] += objective[:, None] / lam
        rhs[:, 1] = m[:, :d].sum(axis=1)
        hess = m @ m.T
        exact = True
        try:
            # the step at any tau is -(tau H)^-1 (c - tau tr M) = v - u / tau
            u, v = np.linalg.solve(hess, rhs).T
        except np.linalg.LinAlgError:
            try:
                sol = np.linalg.pinv(hess, hermitian=True) @ rhs
            except np.linalg.LinAlgError:
                return result(x, steps, f"Newton system is singular at tau={tau:.1e}")
            miss = np.abs(hess @ sol - rhs).max()
            exact = miss <= SOLVE_TOL * (np.abs(hess).max() * np.abs(sol).max() + np.abs(rhs).max())
            u, v = sol.T
        if centred is None:
            # before the first centred iterate: sigma = c.v / c.u minimises |S|^2
            cu, cv = float(u @ objective), float(v @ objective)
            if cu > 0.0 and cv * tau > cu:
                tau = cu / cv
        while True:
            step = v - u / tau
            s_vec = step @ m  # herm-vec of S
            dec = float(s_vec @ s_vec)
            if dec <= 0.25 and exact:
                centred = (tau, w, s_vec)
                if tau * (d - s_vec[:d].sum()) <= GAP_TOL:
                    return result(x, steps, None)
            if dec > NEWTON_TOL:
                break
            tau *= TAU_STEP  # centred: follow the central path
        # line search: of the grid steps that keep X = W^-* (I + t S) W^-1 positive
        # definite, the longest at which the objective, convex along the step, descends
        mu = np.linalg.eigvalsh(vec_to_herm(s_vec, d))
        rate = float(step @ objective)
        grid = LINE_GRID[1.0 + LINE_GRID * mu[0] > 0.0]
        descent = rate <= tau * (mu / (1.0 + grid[:, None] * mu)).sum(axis=1)
        if not descent.any():
            return result(x, steps, f"line search failed at tau={tau:.1e}")
        length = grid[descent.argmax()]
        # a step that solves its Newton system, c.s = tau (tr S - |S|_F^2), descends
        # up to the damped step 1/(1 + |S|_F), which the grid can miss
        damped = 1.0 / (1.0 + math.sqrt(dec))
        if damped > length:
            trace = float(s_vec[:d].sum())
            if abs(rate - tau * (trace - dec)) <= SOLVE_TOL * tau * (abs(trace) + dec):
                length = damped
        x = x + length * step
    return result(good, NEWTON_STEPS, f"no convergence in {NEWTON_STEPS} Newton steps")


def _settle(res, witness, claim, rows):
    """Set res's status from its [nu, c] and return it.

    nu above FEASIBILITY_THRESHOLD certifies the ``witness`` state, with the
    residual max_m |tr(witness G_m)| of the state as reported over the unit-norm
    ``rows``; c at or below it makes the positive attainable ``claim``, scaled to
    unit trace, the certificate; any other interval is INDETERMINATE, its bounds noted.
    """
    nu, c = res.lambda_interval
    if nu > FEASIBILITY_THRESHOLD:
        res.status, res.witness_state = FAITHFUL_STATE_FOUND, witness
        res.witness_residual = float(np.abs(rows @ herm_to_vec(witness.mat)).max(initial=0.0))
    elif c <= FEASIBILITY_THRESHOLD:
        res.status, res.arbitrage_claim = NO_FAITHFUL_STATE, claim / np.trace(claim).real
    else:
        res.note = res.note or f"lambda* in [{nu:.3e}, {c:.3e}]"
    return res


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
    note = f"{failure}; lambda* in [{nu:.3e}, {c:.3e}]" if failure else ""
    res = FeasibilityResult(INDETERMINATE, c, iterations=steps, note=note, lambda_interval=(nu, c))
    witness = None
    if nu > FEASIBILITY_THRESHOLD:
        witness = rho + nu * np.eye(d)
        witness = DensityState(witness / np.trace(witness).real)
    # Z - c I = sum_i y_i K_i: in K by construction, and >= -c I
    return _settle(res, witness, vec_to_herm(y @ vecs, d), constraints.rows)


def _factor_pieces(constraints):
    """[(n, D)] with K = sum_t Herm(M_{n_1...n_{t-1}}) (x) D_t (x) I, or None.

    The pieces split C^d as C^{n_1} (x) ... (x) C^{n_T}, and D is Hermitian
    on its piece, or None for a period that attains nothing.  A K spanned by
    at most one row is one piece, its element on C^d.  A factor filtration whose
    every W_t (see :class:`qmarket.market.PeriodSpan`) holds at most one
    element D_t (x) I has one piece per period: C^{n_t} is the factor that
    A_t adds to A_{t-1}, and the last period takes the rest of C^d.
    """
    d, rows = constraints.dim, constraints.rows
    if len(rows) <= 1:
        return [(d, vec_to_herm(rows[0], d) if len(rows) else None)]
    periods = constraints.periods
    if any(p.w is None or len(p.w) > 1 for p in periods):
        return None
    sizes = [p.w.shape[-1] for p in periods] + [1]  # W_t acts on C^{d / m_{t-1}}
    pieces = []
    for p, k, rest in zip(periods, sizes, sizes[1:]):
        n = k // rest
        if not len(p.w):
            pieces.append((n, None))
            continue
        d_t = np.trace(p.w[0].reshape(n, rest, n, rest), axis1=1, axis2=3) / rest
        if np.linalg.norm(p.w[0] - kron(d_t, np.eye(rest))) > SPAN_TOL:
            return None
        pieces.append((n, d_t))
    return pieces


def piece_optimum(d_t):
    """((lambda, Z), rho, (lambda', Z')) of a piece C^n with Hermitian D; None if D is c I.

    With D's eigenvalues g_1 <= ... <= g_n and s = tr D, the end bounds
    Z = (D - g_1 I) / (s - n g_1) and (g_n I - D) / (n g_n - s) are positive
    semidefinite of unit trace, and Z - lambda I is a multiple of D for
    lambda = -g_1 / (s - n g_1) and g_n / (n g_n - s): each lambda caps
    max lambda_min(rho) over {rho : tr rho = 1, tr rho D = 0}.  The lesser,
    binding end comes first: it is that maximum, positive iff D is
    indefinite, at rho = lambda I + (1 - n lambda) v v*, v its eigenvector.
    """
    n = len(d_t)
    g, v = np.linalg.eigh(d_t)
    if g[-1] - g[0] <= SPAN_TOL * np.abs(g).max():
        return None  # D = c I; otherwise s - n g_1 and n g_n - s are both positive
    low, high = float((g - g[0]).sum()), float((g[-1] - g).sum())
    lo = (-g[0] / low, (d_t - g[0] * np.eye(n)) / low, v[:, 0])
    hi = (g[-1] / high, (g[-1] * np.eye(n) - d_t) / high, v[:, -1])
    (lam, z, vec), (other, z_other, _) = (lo, hi) if -g[0] * high <= g[-1] * low else (hi, lo)
    rho = lam * np.eye(n) + (1.0 - n * lam) * np.outer(vec, vec.conj())
    return (lam, z), rho, (max(other, lam), z_other)  # a tie may round the other way


def product_decision(constraints):
    """The decision in closed form where K factorizes (``_factor_pieces``), else None.

    Each piece C^n has its state rho_t and two end bounds (lambda, Z) from
    ``piece_optimum`` (1/n and I/n without D; a D_t = c I puts I in K, left
    to the Newton path).  (x)_t rho_t annihilates every Herm(M) (x) D_t (x) I,
    and with one end per piece (x)_t Z_t - (prod_t lambda_t) I lies in K
    (split off the last factor and recurse), so lambda* lies in [nu, c]: c
    the least such product, carried with the greatest as a negative lambda
    swaps them, nu = lambda_min((x)_t rho_t) kept at most c.  On a piece C^2
    the ends are D_t's eigenprojectors: on every binomial market nu = c up
    to rounding.  The closed form is taken only where c - nu is within
    GAP_TOL, the Newton core's gap; it takes no Newton step.
    """
    pieces = _factor_pieces(constraints)
    if pieces is None:
        return None
    witness = bound = np.ones((1, 1))
    least = most = (1.0, [])  # (product, the end bound taken on each piece)
    for n, d_t in pieces:
        flat = (1.0 / n, np.eye(n) / n)
        optimum = (flat, flat[1], flat) if d_t is None else piece_optimum(d_t)
        if optimum is None:
            return None
        end, rho, other = optimum
        products = [(p * float(v), zs + [z]) for p, zs in (least, most) for v, z in (end, other)]
        least, most = min(products, key=lambda e: e[0]), max(products, key=lambda e: e[0])
        witness = kron(witness, rho)
    c, ends = least
    for z in ends:
        bound = kron(bound, z)
    witness /= np.trace(witness).real
    nu = min(float(np.linalg.eigvalsh(witness)[0]), c)
    if c - nu > GAP_TOL:
        return None
    if nu > FEASIBILITY_THRESHOLD:
        # nu is then the least eigenvalue of the state as reported, after its trace repair
        witness = DensityState(witness)
        nu = min(float(np.linalg.eigvalsh(witness.mat)[0]), c)
    res = FeasibilityResult(INDETERMINATE, c, lambda_interval=(nu, c))
    return _settle(res, witness, bound - c * np.eye(constraints.dim), constraints.rows)


def check_no_arbitrage(market):
    """Fundamental-theorem decision: faithful witness or positive-claim certificate.

    Decided once per market, in closed form where K factorizes and by the
    Newton core elsewhere; every later call on the same market, pricing's
    too, returns that same result object.
    """
    cs = attainable_space(discount(market))
    if cs.decision is None:
        cs.decision = product_decision(cs) or max_min_eig_over_slice(cs)
    return cs.decision
