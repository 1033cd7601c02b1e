"""Replication, arbitrage-free price intervals, and optional decomposition.

Both rest on one super-hedge.  The sup of tr(rho A) over martingale states
is the super-hedging price min{alpha : alpha I + k - A >= 0, k in K}, and
each period of the optional decomposition super-hedges one increment of V
over K_t.  A target in span(I, K) is its own hedge: the projection that
``replicate`` makes, with no solver, and its gap is 0.  Any other target is
hedged by the Newton core of :mod:`qmarket.arbitrage` on
alpha - tau logdet(alpha I + k - A) over (alpha, k), the solver that also
decides no-arbitrage; ``price_bounds`` hedges A and -A in one stacked solve.
Its dual estimate rho is a martingale state, and alpha - tr(rho A) is the
certified gap of the price; the solve stops once that gap is below GAP_TOL,
relative to max(1, |A|_2).  An attainable price's witness is the faithful
martingale state of the market's no-arbitrage decision (``check_no_arbitrage``).
"""

from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional

import numpy as np

from .arbitrage import FAITHFUL_STATE_FOUND, NO_FAITHFUL_STATE, check_no_arbitrage, newton_core
from .errors import ArbitrageError, InternalConsistencyError, SolverError, ValidationError
from .market import MartingaleConstraintSet, TradingStrategy, attainable_space, require_dim
from .operators import as_hermitian, herm_to_vec, hs_inner, vec_to_herm
from .quantum import DensityState

ATTAINABLE_RESIDUAL_TOL = 1e-8
# widest interval the super-hedge oracle in the tests may report for an attainable claim
INTERVAL_WIDTH_TOL = 1e-7
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
    steps: int = 0  # Newton steps of the super-hedge solve; 0 for a projection

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
    steps: tuple = (0, 0)  # each end's super-hedge Newton steps; (0, 0) when attainable
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


def _super_hedge(targets, space):
    """Per target, min alpha with alpha I + k - target >= 0 over k in the span.

    One stacked Newton core over x = (alpha, k) for the (B, d, d) ``targets``,
    each on its scale max(1, |target|_2) and from its strictly feasible
    alpha = lambda_max + 1, k = 0.  Returns one (hedge, witness rho, gap) per
    target; the hedge carries its Newton steps.  Each dual rho has tr rho = 1
    and tr(rho K_i) = 0, and the gap alpha - tr(rho target) is certified to
    GAP_TOL times the scale; a solve that stops short of it raises SolverError.
    """
    scale = np.maximum(1.0, np.linalg.norm(targets, 2, axis=(1, 2)))
    a = targets / scale[:, None, None]
    objective = np.zeros(1 + space.rank)
    objective[0] = 1.0
    starts = np.outer(np.linalg.eigvalsh(a)[:, -1] + 1.0, objective)
    out = []
    for (x, rho, gap, steps, failure), a_b, scale_b in zip(
        newton_core(objective, -a, space.vecs, starts), a, scale.tolist()
    ):
        if failure:
            raise SolverError(f"super-hedge: {failure}")
        lam = np.linalg.eigvalsh(rho)[0]
        if lam <= 0.0:
            raise SolverError(f"super-hedge witness is not positive definite: {lam:.3e}")
        slack = vec_to_herm(x[1:] @ space.vecs, space.dim) + x[0] * np.eye(space.dim) - a_b
        residual = float(np.linalg.norm(slack)) * scale_b
        hedge = Replication(float(x[0] * scale_b), x[1:] * scale_b, space, residual, scale_b, steps)
        out.append((hedge, rho, gap * scale_b))
    return out


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
    (upper, rho_hi, gap_hi), (lower, rho_lo, gap_lo) = _super_hedge(np.stack([a, -a]), space)
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
        dv = vals[t] - vals[t - 1]
        basis = np.asarray(market.filtration[t - 1].basis)
        n = len(basis)
        # gram[p, q] = tr(rho A_p* dV A_q) = sum_jk conj(A_p[j, k]) (dV A_q rho)[j, k]
        gram = basis.reshape(n, -1).conj() @ (dv @ basis @ mat).reshape(n, -1).T
        gram = 0.5 * (gram + gram.conj().T)
        if np.linalg.eigvalsh(gram)[-1] > CONSUMPTION_PSD_TOL:
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
    terms = {}
    for period in attainable_space(market).periods:
        t = period.period
        dv = vals[t] - vals[t - 1]
        hedge = _split(dv, period)
        if not hedge.attainable:
            [(hedge, _, _)] = _super_hedge(dv[None], period)
        dc = vec_to_herm(hedge.coeffs @ period.vecs, d) - dv  # hedge gain minus dv
        lam = float(np.linalg.eigvalsh(dc)[0])
        if lam < -CONSUMPTION_PSD_TOL:
            raise SolverError(
                f"one-period super-replication infeasible at t={t}: "
                f"best minimum eigenvalue {lam:.3e}"
            )
        terms.update(period.terms(hedge.coeffs))
        consumption.append(consumption[-1] + 0.5 * (dc + dc.conj().T))
    return OptionalDecompositionResult(v0, TradingStrategy(terms), consumption)
