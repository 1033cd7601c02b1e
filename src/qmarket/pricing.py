"""Replication, arbitrage-free price intervals, and optional decomposition.

Both rest on one super-hedge of one target per call.  The sup of tr(rho A)
over martingale states is the super-hedging price min{alpha : alpha I + k -
A >= 0, k in K}: a price hedges A for its upper end, then -A for its lower.
Each period of the optional decomposition hedges one increment of V over
K_t.  A target in span(I, K) is its own hedge: the projection that
``replicate`` makes, with no solver, and its gap is 0.  Any other target is
hedged over its span.  A span of one element D, as in every one-asset
single-period market, leaves one variable: alpha = min_y lambda_max(A - y D),
which ``_hedge_one_element`` minimises by eigenvalue evaluations, bounded
from below by two top eigenvectors.  A wider span is hedged by the Newton
core of :mod:`qmarket.arbitrage` on alpha - tau logdet(alpha I + k - A) over
(alpha, k), the solver that also decides no-arbitrage where K does not
factorize.  Either way the witness rho is a faithful martingale state, and
alpha - tr(rho A) is the certified gap of the hedge; the solve stops once
that gap is below GAP_TOL, relative to max(1, |A|_2).  An attainable price's
witness is that of the market's no-arbitrage decision (``check_no_arbitrage``).
"""

from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple, Optional

import numpy as np

from .arbitrage import (
    FAITHFUL_STATE_FOUND,
    GAP_TOL,
    NEWTON_STEPS,
    NO_FAITHFUL_STATE,
    check_no_arbitrage,
    newton_core,
    piece_optimum,
)
from .errors import ArbitrageError, InternalConsistencyError, SolverError, ValidationError
from .market import MartingaleConstraintSet, TradingStrategy, attainable_space, require_dim
from .operators import as_hermitian, herm_to_vec, hs_inner, vec_to_herm
from .quantum import DensityState

ATTAINABLE_RESIDUAL_TOL = 1e-8
CONSUMPTION_PSD_TOL = 1e-8


@dataclass
class Replication:
    """A hedge alpha I + sum_i coeffs_i K_i of a target A over ``space``; H built when read.

    ``residual`` is |alpha I + (H # S)_T - A|: for a replication that part is
    orthogonal to span(I, K), for a super-hedge it is positive.
    """

    alpha: float
    coeffs: np.ndarray = field(repr=False)
    space: MartingaleConstraintSet = field(repr=False)
    residual: float
    scale: float = 1.0
    steps: int = 0  # super-hedge Newton steps, or eigh evaluations on one element; 0 if projected

    @property
    def attainable(self):
        return self.residual <= ATTAINABLE_RESIDUAL_TOL * self.scale

    @cached_property
    def strategy(self):
        return self.space.strategy(self.coeffs)


@dataclass
class PriceInterval:
    """[lower, upper] with each end's witness and certified gap; a singleton when attainable."""

    lower: float
    upper: float
    attainable: bool
    witness_states: tuple = (None, None)
    gaps: tuple = (0.0, 0.0)
    steps: tuple = (0, 0)  # each end's super-hedge steps (see Replication); (0, 0) when attainable
    replication: Optional[Replication] = field(default=None, repr=False)
    hedge: Optional[Replication] = field(default=None, repr=False)  # the upper super-hedge
    unique_price: Optional[float] = None  # the replication's alpha when attainable


@dataclass
class OptionalDecompositionResult:
    v0: float
    strategy: TradingStrategy
    consumption: list


@dataclass
class CompletenessReport:
    complete: bool
    affine_dim: int
    observable_dim: int


def _require_discounted(market):
    if not market.is_discounted():
        raise ValidationError("pricing operations require a discounted market (B = 1)")


def _require_terminal_observable(a, market):
    a = as_hermitian(a)
    require_dim(a, market.dim, "claim")
    if not market.filtration[market.horizon].contains(a):
        raise ValidationError("claim is not adapted to the terminal algebra A_T")
    return a


def _split(target, space):
    """target = alpha I + coeffs @ K + R, R orthogonal to span(I, K), as a Replication.

    alpha = <perp, target> / |perp|^2 (see ``perp``), or 0 when I lies in K.
    """
    perp = space.perp
    vec = herm_to_vec(target)
    alpha = 0.0 if perp is None else float(perp @ vec / (perp @ perp))
    rest = vec - alpha * herm_to_vec(np.eye(space.dim, dtype=complex))
    coef = space.vecs @ rest
    residual = float(np.linalg.norm(rest - coef @ space.vecs))
    return Replication(alpha, coef, space, residual, max(1.0, float(np.linalg.norm(target))))


def replicate(a, market):
    """Replicate A = alpha I + sum_i c_i K_i by projection; alpha is the candidate price."""
    _require_discounted(market)
    return _split(_require_terminal_observable(a, market), attainable_space(market))


# --- the super-hedge ---------------------------------------------------------


class _TopLine(NamedTuple):
    """f(y) = lambda_max(a - y D) at y; its top eigenvector v gives the line v*a v - y' v*Dv <= f."""

    y: float
    f: float
    v_a_v: float
    v_d_v: float
    lam: np.ndarray  # the eigenvalues of a - y D
    coupling: np.ndarray  # v_k* D v over its eigenvectors v_k
    top: np.ndarray


def _top_line(a, element, y):
    lam, vecs = np.linalg.eigh(a - y * element)
    top = vecs[:, -1]
    coupling = vecs.conj().T @ (element @ top)
    v_a_v = float((top.conj() @ a @ top).real)
    return _TopLine(y, float(lam[-1]), v_a_v, float(coupling[-1].real), lam, coupling, top)


def _hedge_one_element(a, norm, element):
    """min_y f(y) = lambda_max(a - y D) for a normalised target a, D the span's one element.

    f is convex, and the top eigenvector v at any y gives the line
    v*a v - y v*Dv below f (Lewis & Overton, "Eigenvalue optimization",
    Acta Numerica 5, 1996).  The minimum lies between a y where v*Dv > 0 and
    one where v*Dv < 0, found at y = -(2 norm + 1) / lambda_max(D) and
    (2 norm + 1) / -lambda_min(D), norm = |a|_2.  The latest such line on
    each side, of slopes -s_L < 0 < -s_R, cross at the value tr(rho_2 a) of
    the martingale state rho_2 = p v_L v_L* + (1 - p) v_R v_R*,
    p = -s_R / (s_L - s_R), which bounds min f from below.  The next y is a
    Newton step on f' = -v*Dv with f'' = 2 sum_k |v_k* D v|^2 /
    (lambda_max - lambda_k) from the eigh at the best y, or the crossing
    where that step leaves the bracket or the last one did not halve the
    gap; where D commutes with a, f is piecewise linear and the crossing
    exact.  It stops once the best f is within GAP_TOL / 2 of the crossing,
    after at most NEWTON_STEPS evaluations.  rho_2 mixed with D's faithful
    optimum (``piece_optimum``) at weight GAP_TOL / 4 is the faithful
    witness; as |a|_2 <= 1, its gap is at most GAP_TOL.

    Returns ((alpha, y), rho, gap, steps), steps counting the eigh
    evaluations; raises SolverError for a D that is not indefinite, a failed
    bracket or no convergence.
    """
    g = np.linalg.eigvalsh(element)
    if not g[0] < 0.0 < g[-1]:
        raise SolverError(
            f"super-hedge: the span's element is not indefinite, spectrum [{g[0]:.3e}, {g[-1]:.3e}]"
        )
    reach = 2.0 * norm + 1.0
    left, right = _top_line(a, element, -reach / g[-1]), _top_line(a, element, reach / -g[0])
    if not left.v_d_v > 0.0 > right.v_d_v:
        raise SolverError("super-hedge: the bracket of the one-element span failed")
    best = min(left, right, key=lambda line: line.f)
    steps, last = 2, np.inf
    while True:
        width = left.v_d_v - right.v_d_v
        p = -right.v_d_v / width
        gap = best.f - (p * left.v_a_v + (1.0 - p) * right.v_a_v)
        if gap <= GAP_TOL / 2:
            break
        if steps >= NEWTON_STEPS:
            raise SolverError(f"super-hedge: no convergence in {NEWTON_STEPS} evaluations")
        y = (left.v_a_v - right.v_a_v) / width  # where the two lines cross
        lam = best.lam
        if gap <= last / 2 and lam[-1] > lam[-2]:
            curve = 2.0 * float((np.abs(best.coupling[:-1]) ** 2 / (lam[-1] - lam[:-1])).sum())
            newton = best.y + best.v_d_v / curve if curve > 0.0 else y
            if left.y < newton < right.y:
                y = newton
        line, steps, last = _top_line(a, element, y), steps + 1, gap
        best = min(best, line, key=lambda line: line.f)
        if line.v_d_v >= 0.0:
            left = line
        else:
            right = line
    rho = p * np.outer(left.top, left.top.conj())
    rho += (1.0 - p) * np.outer(right.top, right.top.conj())
    rho = (1.0 - GAP_TOL / 4) * rho + GAP_TOL / 4 * piece_optimum(element)[1]
    rho /= np.trace(rho).real
    return np.array([best.f, best.y]), rho, best.f - hs_inner(rho, a), steps


def _super_hedge(target, space):
    """min alpha with alpha I + k - target >= 0 over k in the span.

    The target is hedged on its scale max(1, |target|_2).  A span of one
    element D is hedged by ``_hedge_one_element`` over alpha = f(y), k = y D;
    any other by one Newton core call over x = (alpha, k), from the strictly
    feasible alpha = lambda_max + 1, k = 0.  Returns (hedge, witness rho,
    gap); the hedge carries its steps, Newton steps or eigenvalue
    evaluations.  rho has tr rho = 1 and tr(rho K_i) = 0, and the gap
    alpha - tr(rho target) is certified to GAP_TOL times the scale; a solve
    that stops short of it raises SolverError.
    """
    norm = float(np.linalg.norm(target, 2))
    scale = max(1.0, norm)
    a = target / scale
    if space.rank == 1:
        element = vec_to_herm(space.vecs[0], space.dim)
        x, rho, gap, steps = _hedge_one_element(a, norm / scale, element)
    else:
        objective = np.eye(1 + space.rank)[0]
        start = (np.linalg.eigvalsh(a)[-1] + 1.0) * objective
        x, rho, gap, steps, failure = newton_core(objective, -a, space.vecs, start)
        if failure:
            raise SolverError(f"super-hedge: {failure}")
    lam = np.linalg.eigvalsh(rho)[0]
    if lam <= 0.0:
        raise SolverError(f"super-hedge witness is not positive definite: {lam:.3e}")
    slack = vec_to_herm(x[1:] @ space.vecs, space.dim) + x[0] * np.eye(space.dim) - a
    residual = float(np.linalg.norm(slack)) * scale
    hedge = Replication(float(x[0] * scale), x[1:] * scale, space, residual, scale, steps)
    return hedge, rho, gap * scale


def price_bounds(a, market):
    """Arbitrage-free price interval [inf, sup] of tr(rho A) over martingale states."""
    _require_discounted(market)
    a = _require_terminal_observable(a, market)
    space = attainable_space(market)
    rep = _split(a, space)
    na = check_no_arbitrage(market)
    if na.status == NO_FAITHFUL_STATE:
        raise ArbitrageError(
            "market admits arbitrage; price bounds undefined",
            certificate=na.arbitrage_claim,
        )
    if na.status != FAITHFUL_STATE_FOUND:
        raise SolverError(f"no-arbitrage decision is indeterminate: {na.note}")

    # P(A) is the part of A outside span(I, K): |P(A)| = rep.residual
    q_norm = float(np.linalg.norm(space.slice_step(herm_to_vec(a))))
    if (q_norm <= ATTAINABLE_RESIDUAL_TOL * rep.scale) != rep.attainable:
        raise InternalConsistencyError(
            f"attainability disagreement: replication residual {rep.residual:.3e}, "
            f"part outside span(I, K) {q_norm:.3e}"
        )
    if rep.attainable:
        # every martingale state gives A = alpha I + (H # S)_T the price alpha
        witness = na.witness_state
        price = hs_inner(witness.mat, a)
        if abs(rep.alpha - price) > 1e-6 * max(1.0, abs(price)):
            raise InternalConsistencyError(
                f"replication price {rep.alpha!r} disagrees with witness price {price!r}"
            )
        return PriceInterval(
            price, price, attainable=True, witness_states=(witness, witness),
            replication=rep, hedge=rep, unique_price=rep.alpha,
        )
    upper, rho_hi, gap_hi = _super_hedge(a, space)
    lower, rho_lo, gap_lo = _super_hedge(-a, space)
    return PriceInterval(
        -lower.alpha, upper.alpha, attainable=False,
        witness_states=(DensityState(rho_lo), DensityState(rho_hi)),
        gaps=(gap_lo, gap_hi), steps=(lower.steps, upper.steps), replication=rep, hedge=upper,
    )


def is_complete(market):
    """Dimension test: span{I} + span(K) against the Hermitian part of A_T."""
    _require_discounted(market)
    space = attainable_space(market)
    affine_dim = space.rank + (space.perp is not None)
    obs_dim = market.filtration[market.horizon].herm_dim()
    return CompletenessReport(affine_dim == obs_dim, affine_dim, obs_dim)


def _require_values(values, market):
    """A value process as Hermitian operators: one per time, each of the market's size."""
    if len(values) != market.horizon + 1:
        raise ValidationError("value process length does not match the horizon")
    vals = [as_hermitian(v) for v in values]
    for t, v in enumerate(vals):
        require_dim(v, market.dim, f"value process at t={t}")
    return vals


def supermartingale_check(values, rho, market):
    """Gram-matrix test of E_rho A* V_t A <= E_rho A* V_{t-1} A per period."""
    vals = _require_values(values, market)
    mat = as_hermitian(rho.mat if isinstance(rho, DensityState) else rho)
    require_dim(mat, market.dim, "state")
    for t in range(1, market.horizon + 1):
        gram = market.filtration[t - 1].gram(vals[t] - vals[t - 1], mat)
        gram = 0.5 * (gram + gram.conj().T)
        try:  # lambda_max(G) < tol exactly when tol I - G has a Cholesky factor
            np.linalg.cholesky(CONSUMPTION_PSD_TOL * np.eye(len(gram)) - gram)
        except np.linalg.LinAlgError:
            return False
    return True


def optional_decomposition(values, market):
    """Constructive decomposition V = V_0 + H # S - C with C increasing.

    Per period, super-hedges the increment of V over the one-period gain
    span K_t; the hedge's gain minus the increment is the consumption
    increment.
    """
    _require_discounted(market)
    vals = _require_values(values, market)
    for t, v in enumerate(vals):
        if not market.filtration[t].contains(v):
            raise ValidationError(f"value process not adapted at t={t}")
    d = market.dim
    v0 = float(np.trace(vals[0]).real) / d

    na = check_no_arbitrage(market)
    if na.status != FAITHFUL_STATE_FOUND:
        raise ArbitrageError("optional decomposition requires an arbitrage-free market")
    if not supermartingale_check(vals, na.witness_state, market):
        raise ValidationError(
            "value process is not a supermartingale under the risk-neutral witness"
        )

    consumption = [np.zeros((d, d), dtype=complex)]
    strategy = TradingStrategy()
    for period in attainable_space(market).periods:
        t = period.period
        dv = vals[t] - vals[t - 1]
        hedge = _split(dv, period)
        if not hedge.attainable:
            hedge, _, _ = _super_hedge(dv, period)
        dc = vec_to_herm(hedge.coeffs @ period.vecs, d) - dv  # hedge gain minus dv
        lam = float(np.linalg.eigvalsh(dc)[0])
        if lam < -CONSUMPTION_PSD_TOL:
            raise SolverError(
                f"one-period super-replication infeasible at t={t}: "
                f"best minimum eigenvalue {lam:.3e}"
            )
        strategy.hold(period, hedge.coeffs)
        consumption.append(consumption[-1] + 0.5 * (dc + dc.conj().T))
    return OptionalDecompositionResult(v0, strategy, consumption)
