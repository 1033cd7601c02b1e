"""No-arbitrage decision via faithful martingale-state feasibility.

A state rho is a martingale state iff tr(rho G_m) = 0 for every element
G_m of an orthonormal basis of the attainable-claim space, which the
market builds once and which is itself the constraint set (see
:class:`qmarket.market.AttainableSpace`).

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
one-generator decision takes about one step.  It solves a stack of such
programs that share K in one pass, each on its own tau path: the two ends of
a price interval are one call.

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
qubit markets: :func:`product_decision` brackets lambda* by tensor products
of per-period optima, each from one eigh, and decides wherever that bracket
is as tight as the solver's gap.
"""

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

# MartingaleConstraintSet is re-exported here
from .market import SPAN_TOL, MartingaleConstraintSet, attainable_space, discount, require_dim
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
SOLVE_TOL = 1e-12  # relative error below which a Newton step solves its system
WHITEN_ROWS = 64  # basis rows whitened per block, which bounds the solver's working set
LINE_GRID = 2.0 ** (-np.arange(320) / 8)  # trial step lengths 2^(-k/8) from 1 down to 1e-12
# LINE_WINDOWS[k] holds the 64 grid steps from the k-th on, NaN past the end of the grid
LINE_WINDOWS = np.append(LINE_GRID, np.full(64, np.nan))[np.add.outer(np.arange(321), np.arange(64))]


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


def is_martingale_state(rho, market, tol=1e-8):
    """True iff rho annihilates every (unit-norm) martingale constraint."""
    mat = rho.mat if isinstance(rho, DensityState) else rho
    require_dim(mat, market.dim, "state")
    cs = attainable_space(discount(market))
    return bool(np.all(np.abs(cs.vecs @ herm_to_vec(as_hermitian(mat))) <= tol))


# --- the Newton core ---------------------------------------------------------


def newton_core(objective, offsets, rows, starts):
    """min c.x over X(x) = F + (c.x) I + sum_j x_{l+j} G_j > 0, c = ``objective``, per F.

    Solves a stack of such problems that share c and the span: F runs over
    ``offsets`` (B, d, d), and each problem starts from its row of the
    strictly feasible ``starts`` (B, n).  G_j are the herm-vec ``rows`` and
    l = n - len(rows): the first l coordinates move I alone.  Newton steps on
    c.x - tau logdet X, each problem on its own tau schedule; a step makes one
    stacked eigh, one solve and one eigvalsh for the problems still in the
    stack, and a problem leaves the stack once its own gap is certified.

    With X^-1 = W W* and M_i the whitened basis element W* B_i W, the
    gradient is c - tau tr M and the Hessian tau Re<M_i, M_j>.  At the Newton
    step s, with S = sum_i s_i M_i, the dual estimate rho = tau W (I - S) W*
    has tr(rho B_i) = c_i, and the gap c.x - (its dual value) is
    tau (d - tr S).  |S|_F^2 is the squared Newton decrement; an iterate with
    |S|_F <= 1/2 is centred, and its rho is positive definite.

    The step at any tau is v - u / tau, so until a problem's first centred
    iterate its tau drops to 1/sigma for the sigma that minimises
    |(v - sigma u).m|^2 = |S|^2, when that is lower.  A singular Newton system
    takes the minimum-norm least-squares step, and a rho from such a step
    counts only if the step solves the system to rounding (SOLVE_TOL).

    The line search takes the longest step on the grid 2^(-k/8) at which
    c.x - tau logdet X still descends, and a step that solves its system
    goes at least the damped length t = 1/(1 + |S|_F): with mu the
    eigenvalues of S, every 1 + t mu_i >= t > 0, and as c.s =
    tau (tr S - |S|_F^2) the slope tau sum_i mu_i^2 (t - 1 - t mu_i) /
    (1 + t mu_i) is not positive up to that t.  Without it the grid falls
    just short of the next centre after each tau cut, and each stage pays
    two corrector steps.  An ill-conditioned solve at small tau can miss
    that identity, so the damped step is taken only where it holds to
    SOLVE_TOL.

    Returns one (x, rho, gap, steps, failure) per problem: x the last iterate
    with X(x) positive definite, rho and gap those of the last centred
    iterate (None and inf before the first), and failure None once certified,
    else the reason the solve stopped.  What a failure means is the caller's
    to decide.
    """
    count, d = offsets.shape[0], offsets.shape[-1]
    lead = len(objective) - len(rows)
    m_all = np.empty((count, len(objective), d * d))  # herm-vec rows of each problem's M_i
    rhs_all = np.empty((count, len(objective), 2))  # columns c and tr M, the latter set per step
    rhs_all[:, :, 0] = objective
    # a span of one block is kept as matrices; a longer one is turned into matrices
    # block by block per step, which bounds the working set
    mats = vec_to_herm(rows, d) if len(rows) <= WHITEN_ROWS else None
    x = good = np.array(starts, dtype=float)
    tau = np.ones(count)
    ids = list(range(count))  # the problems still in the stack
    centred = [None] * count  # (tau, W, herm-vec of S) of each one's last centred iterate
    fresh = set(ids)  # the problems without a centred iterate yet
    out = [None] * count

    def leave(verdicts, last, steps):
        """Record each problem whose verdict is None (certified) or a failure; mask the rest.

        A verdict of False keeps the problem in the stack.
        """
        keep = np.array([verdict is False for verdict in verdicts])
        for j in np.flatnonzero(~keep):
            if centred[ids[j]] is None:
                out[ids[j]] = (last[j], None, np.inf, steps, verdicts[j])
                continue
            tau_c, w_c, s_c = centred[ids[j]]
            rho = tau_c * w_c @ (np.eye(d) - vec_to_herm(s_c, d)) @ w_c.conj().T
            out[ids[j]] = (last[j], rho, tau_c * (d - s_c[:d].sum()), steps, verdicts[j])
        ids[:] = [i for i, k in zip(ids, keep) if k]
        return keep

    for steps in range(NEWTON_STEPS):
        if mats is None:
            span = vec_to_herm(x[:, lead:] @ rows, d)
        else:
            span = (x[:, lead:] @ mats.reshape(len(rows), d * d)).reshape(-1, d, d)
        lam, vecs = np.linalg.eigh(offsets + span)
        lam += (x @ objective)[:, None]
        lows = lam[:, 0].tolist()
        if min(lows) <= 0.0:
            verdicts = ["iterate is not positive definite" if low <= 0.0 else False for low in lows]
            keep = leave(verdicts, good, steps)
            if not ids:
                return out
            x, offsets, tau, lam, vecs = x[keep], offsets[keep], tau[keep], lam[keep], vecs[keep]
        size = len(ids)
        good, w = x, vecs / np.sqrt(lam)[:, None, :]
        # whiten B_i = c_i I + G_{i-l} in blocks: M_i = c_i diag(1 / lam) + W* G W
        m, rhs = m_all[:size], rhs_all[:size]
        m[:, :lead] = 0.0
        w_adj = w.conj().transpose(0, 2, 1)[:, None]
        for lo in range(0, len(rows), WHITEN_ROWS):
            block = vec_to_herm(rows[lo : lo + WHITEN_ROWS], d) if mats is None else mats
            k = len(block)
            white = w_adj @ (block.reshape(k * d, d) @ w).reshape(size, k, d, d)
            m[:, lead + lo : lead + lo + k] = herm_to_vec(white)
        m[:, :, :d] += objective[:, None] / lam[:, None, :]
        rhs[:, :, 1] = m[:, :, :d].sum(axis=2)
        hess = m @ m.transpose(0, 2, 1)
        exact = [True] * size
        try:
            # the step at any tau is -(tau H)^-1 (c - tau tr M) = v - u / tau
            u, v = np.linalg.solve(hess, rhs).transpose(2, 0, 1)
        except np.linalg.LinAlgError:
            try:
                sol = np.linalg.pinv(hess, hermitian=True) @ rhs
            except np.linalg.LinAlgError:
                leave([f"Newton system is singular at tau={t:.1e}" for t in tau], x, steps)
                return out
            miss = np.abs(hess @ sol - rhs).max(axis=(1, 2))
            bound = np.abs(hess).max(axis=(1, 2)) * np.abs(sol).max(axis=(1, 2))
            exact = (miss <= SOLVE_TOL * (bound + np.abs(rhs).max(axis=(1, 2)))).tolist()
            u, v = sol.transpose(2, 0, 1)
        if fresh:
            # before the first centred iterate: sigma = c.v / c.u minimises |S|^2
            for j, (cu, cv) in enumerate(zip((u @ objective).tolist(), (v @ objective).tolist())):
                if ids[j] in fresh and cu > 0.0 and cv * tau[j] > cu:
                    tau[j] = cu / cv
        done = [False] * size
        while True:
            step = v - u / tau[:, None]
            s_vec = np.matmul(step[:, None], m)[:, 0]  # herm-vec of S
            decs = (s_vec * s_vec).sum(axis=1).tolist()
            if min(decs) > 0.25:
                break
            follow = False
            traces = s_vec[:, :d].sum(axis=1).tolist()
            for j, (dec, trace, t) in enumerate(zip(decs, traces, tau.tolist())):
                if done[j]:
                    continue
                if dec <= 0.25 and exact[j]:
                    centred[ids[j]] = (t, w[j], s_vec[j])
                    fresh.discard(ids[j])
                    done[j] = t * (d - trace) <= GAP_TOL
                if dec <= NEWTON_TOL and not done[j]:
                    tau[j] = t * TAU_STEP  # centred: follow the central path
                    follow = True
            if not follow:
                break
        if all(done):
            leave([None] * size, x, steps)
            return out
        # line search: the longest grid step at which the objective, convex along the
        # step and exact in whitened form, still descends; each grid starts at the
        # first step that keeps X = W^-* (I + t S) W^-1 positive definite
        mu = np.linalg.eigvalsh(vec_to_herm(s_vec, d))
        rates, mu_row = (step @ objective)[:, None], mu[:, None, :]
        first = [
            0 if low > -1.0 else min(int(8.0 * math.log2(-low) + 1e-9) + 1, len(LINE_GRID))
            for low in mu[:, 0].tolist()
        ]
        lengths = [float(gone) for gone in done]  # 0 until a descending step is found
        for lo in range(0, len(LINE_GRID), 64):
            grid = LINE_WINDOWS[first if lo == 0 else [min(k + lo, len(LINE_GRID)) for k in first]]
            slope = (mu_row / (1.0 + grid[:, :, None] * mu_row)).sum(axis=2)
            descent = rates <= tau[:, None] * slope
            for j, k in enumerate(descent.argmax(axis=1).tolist()):
                if descent[j, k] and not lengths[j]:
                    lengths[j] = grid[j, k]
                    # a step that solves its Newton system, c.s = tau (tr S - |S|_F^2),
                    # descends up to the damped step 1/(1 + |S|_F), which the grid can miss
                    damped = 1.0 / (1.0 + math.sqrt(decs[j]))
                    if damped > lengths[j]:
                        trace = float(s_vec[j, :d].sum())
                        miss = abs(rates[j, 0] - tau[j] * (trace - decs[j]))
                        if miss <= SOLVE_TOL * tau[j] * (abs(trace) + decs[j]):
                            lengths[j] = damped
            if all(lengths):
                break
        if any(done) or not all(lengths):
            verdicts = [
                None if gone else False if length else f"line search failed at tau={t:.1e}"
                for gone, length, t in zip(done, lengths, tau)
            ]
            keep = leave(verdicts, x, steps)
            if not ids:
                return out
            good, offsets, tau, step = good[keep], offsets[keep], tau[keep], step[keep]
            lengths = [length for length, k in zip(lengths, keep) if k]
        x = good + np.array(lengths)[:, None] * step
    leave([f"no convergence in {NEWTON_STEPS} Newton steps"] * len(ids), good, NEWTON_STEPS)
    return out


def _settle(res, witness, claim, vecs):
    """Set res's status from its [nu, c] and return it.

    nu above FEASIBILITY_THRESHOLD certifies the ``witness`` state, whose
    residual max_m |tr(witness G_m)| is read off the state as reported; c at
    or below it makes the positive attainable ``claim``, scaled to unit
    trace, the certificate; any other interval is INDETERMINATE, with its
    bounds in the note.
    """
    nu, c = res.lambda_interval
    if nu > FEASIBILITY_THRESHOLD:
        res.status, res.witness_state = FAITHFUL_STATE_FOUND, witness
        res.witness_residual = float(np.abs(vecs @ herm_to_vec(witness.mat)).max(initial=0.0))
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
    [(y, rho, _, steps, failure)] = newton_core(
        shift, np.eye(d, dtype=complex)[None] / d, vecs, np.zeros((1, len(vecs)))
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
    return _settle(res, witness, vec_to_herm(y @ vecs, d), vecs)


def _factor_pieces(constraints):
    """[(n, D)] with K = sum_t Herm(M_{n_1...n_{t-1}}) (x) D_t (x) I, or None.

    The pieces split C^d as C^{n_1} (x) ... (x) C^{n_T}, and D is Hermitian
    on its piece, or None for a period that attains nothing.  A K of rank at
    most one is one piece, its element on C^d.  A factor filtration whose
    every W_t (see :class:`qmarket.market.PeriodSpan`) holds at most one
    element D_t (x) I has one piece per period: C^{n_t} is the factor that
    A_t adds to A_{t-1}, and the last period takes the rest of C^d.
    """
    d = constraints.dim
    if constraints.rank <= 1:
        return [(d, vec_to_herm(constraints.vecs[0], d) if constraints.rank else None)]
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
        if np.linalg.norm(p.w[0] - np.kron(d_t, np.eye(rest))) > SPAN_TOL:
            return None
        pieces.append((n, d_t))
    return pieces


def piece_optimum(d_t):
    """(lambda, rho, Z) of one piece C^n whose Hermitian D is no multiple of I, from one eigh.

    With D's eigenvalues g_1 <= ... <= g_n and s = tr D, max lambda_min over
    {rho : tr rho = 1, tr rho D = 0} is
    lambda = min(-g_1 / (s - n g_1), g_n / (n g_n - s)), positive iff D is
    indefinite.  It is reached at rho = lambda I + (1 - n lambda) v v*, v the
    eigenvector of the binding end, and bounded by Z = lambda I + y D, which
    is positive semidefinite of unit trace.
    """
    n = len(d_t)
    g, v = np.linalg.eigh(d_t)
    # s - n g_1 and n g_n - s, both positive as D is no multiple of I
    low, high = float((g - g[0]).sum()), float((g[-1] - g).sum())
    if -g[0] * high <= g[-1] * low:
        lam, vec, z = -g[0] / low, v[:, 0], (d_t - g[0] * np.eye(n)) / low
    else:
        lam, vec, z = g[-1] / high, v[:, -1], (g[-1] * np.eye(n) - d_t) / high
    return lam, lam * np.eye(n) + (1.0 - n * lam) * np.outer(vec, vec.conj()), z


def product_decision(constraints):
    """The decision in closed form where K factorizes (``_factor_pieces``), else None.

    Each piece C^n has its optimum lambda_t, state rho_t and bound Z_t from
    ``piece_optimum`` (1/n and I/n without D; no D_t is a multiple of I, as
    I is not in K).  The product state (x)_t rho_t annihilates every Herm(M)
    (x) D_t (x) I, and (x)_t Z_t - (prod_t lambda_t) I lies in K (split off
    the last factor and recurse), so lambda* lies in [nu, c] with c = prod_t
    lambda_t and nu = lambda_min((x)_t rho_t), kept at most c.  When every
    lambda_t is non-negative, or K is one piece, nu = c up to rounding.  The
    closed form is taken only where c - nu is within GAP_TOL, the gap at
    which the Newton core stops; it takes no Newton step.
    """
    if constraints.perp is None:
        return None
    pieces = _factor_pieces(constraints)
    if pieces is None:
        return None
    witness = bound = np.ones((1, 1))
    c = 1.0
    for n, d_t in pieces:
        if d_t is None:
            lam, rho, z = 1.0 / n, np.eye(n) / n, np.eye(n) / n
        else:
            lam, rho, z = piece_optimum(d_t)
        witness, bound, c = np.kron(witness, rho), np.kron(bound, z), c * float(lam)
    witness /= np.trace(witness).real
    nu = min(float(np.linalg.eigvalsh(witness)[0]), c)
    if c - nu > GAP_TOL:
        return None
    if nu > FEASIBILITY_THRESHOLD:
        # nu is then the least eigenvalue of the state as reported, after its trace repair
        witness = DensityState(witness)
        nu = min(float(np.linalg.eigvalsh(witness.mat)[0]), c)
    res = FeasibilityResult(INDETERMINATE, c, lambda_interval=(nu, c))
    return _settle(res, witness, bound - c * np.eye(constraints.dim), constraints.vecs)


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
