"""Replication, arbitrage-free price intervals, and optional decomposition.

Price bounds are computed by an interior-point pass: maximize
tr(rho A) + tau * logdet(rho) over the affine martingale slice with damped
Newton steps, driving tau down a geometric schedule; the endpoints of the
tau-path converge to the closed-set optima, which by density of the
faithful states equal the sup/inf over risk-neutral states.
"""

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .arbitrage import (
    DEFAULT_MAX_ITERS,
    FAITHFUL_STATE_FOUND,
    NO_FAITHFUL_STATE,
    check_no_arbitrage,
    maximize_lambda_min,
)
from .errors import ArbitrageError, InternalConsistencyError, SolverError, ValidationError
from .market import TradingStrategy, attainable_space
from .operators import as_hermitian, herm_to_vec, hs_inner
from .quantum import DensityState

ATTAINABLE_RESIDUAL_TOL = 1e-8
INTERVAL_WIDTH_TOL = 1e-7
CONSUMPTION_PSD_TOL = 1e-8
TAU_FLOOR = 1e-10


@dataclass
class Replication:
    """Least-squares replication A = alpha I + (H # S)_T over the gain basis."""

    alpha: float
    strategy: TradingStrategy
    residual: float
    scale: float = 1.0

    @property
    def attainable(self):
        return self.residual <= ATTAINABLE_RESIDUAL_TOL * self.scale


@dataclass
class PriceInterval:
    lower: float
    upper: float
    attainable: bool
    witness_states: tuple = (None, None)
    interval_open: bool = True
    replication: Optional[Replication] = field(default=None, repr=False)


@dataclass
class PriceClassification:
    interval: PriceInterval
    replication: Replication
    unique_price: Optional[float] = None


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
    if not market.filtration[market.horizon].contains(a):
        raise ValidationError("claim is not adapted to the terminal algebra A_T")
    return a


def replicate(a, market):
    """Replicate A = alpha I + sum_i c_i K_i; alpha is the candidate price."""
    _require_discounted(market)
    a = _require_terminal_observable(a, market)
    space = attainable_space(market)
    target = herm_to_vec(a)
    cols = np.column_stack([herm_to_vec(np.eye(market.dim, dtype=complex)), space.vecs.T])
    coef, *_ = np.linalg.lstsq(cols, target, rcond=None)
    residual = float(np.linalg.norm(cols @ coef - target))
    return Replication(
        float(coef[0]),
        space.strategy(coef[1:]),
        residual,
        scale=max(1.0, float(np.linalg.norm(a))),
    )


# --- log-det barrier over the martingale slice ------------------------------


def _barrier_maximize(x0, basis, objective, start_c):
    """max tr(rho(c) A) + tau logdet rho(c) along tau = 1, 0.5, ..., TAU_FLOOR."""
    if len(basis) == 0:
        return float(hs_inner(x0, objective)), np.zeros(0)
    stack = np.asarray(basis)
    q = herm_to_vec(stack) @ herm_to_vec(objective)
    c = np.array(start_c, dtype=float)

    def assemble(cv):
        return x0 + np.tensordot(cv, stack, axes=1)

    def f_value(cv, tau):
        rho = assemble(cv)
        vals = np.linalg.eigvalsh(rho)
        if vals[0] <= 0:
            return -np.inf
        return float(q @ cv) + tau * float(np.log(vals).sum())

    tau = 1.0
    while tau >= TAU_FLOOR:
        for _ in range(60):
            rho = assemble(c)
            inv = np.linalg.inv(rho)
            inv = 0.5 * (inv + inv.conj().T)
            grad = q + tau * np.einsum("ab,iab->i", inv.conj(), stack).real
            m = np.einsum("ab,ibc->iac", inv, stack)
            hess = tau * np.einsum("iab,jba->ij", m, m).real
            hess = 0.5 * (hess + hess.T)
            try:
                step = np.linalg.solve(hess + 1e-14 * np.eye(len(c)), grad)
            except np.linalg.LinAlgError:
                step = grad
            decrement = float(grad @ step)
            if decrement < max(1e-10 * tau, 1e-18):
                break
            t = 1.0
            f0 = f_value(c, tau)
            while t > 1e-14 and f_value(c + t * step, tau) <= f0 - 1e-18:
                t *= 0.5
            if t <= 1e-14:
                break  # no ascent step left at this tau
            c = c + t * step
        tau *= 0.5
    rho = assemble(c)
    return float(hs_inner(rho, objective)), c


def price_bounds(a, market, max_iters=DEFAULT_MAX_ITERS):
    """Arbitrage-free price interval [inf, sup] of tr(rho A) over martingale states."""
    _require_discounted(market)
    a = _require_terminal_observable(a, market)
    na = check_no_arbitrage(market, max_iters=max_iters)
    if na.status == NO_FAITHFUL_STATE:
        raise ArbitrageError(
            "market admits arbitrage; price bounds undefined",
            certificate=na.arbitrage_claim,
        )
    if na.status != FAITHFUL_STATE_FOUND:
        raise SolverError("no-arbitrage decision is indeterminate")

    # the slice check_no_arbitrage searched, kept on the attainable space
    slice_ = attainable_space(market).affine_slice
    if slice_ is None:
        raise SolverError("martingale slice unexpectedly empty")
    x0, basis = slice_
    if na.witness_state is not None:
        # re-express the interior witness in slice coordinates for a warm start
        start = herm_to_vec(basis) @ herm_to_vec(na.witness_state.mat - x0)
    else:
        start = np.zeros(len(basis))

    upper, c_hi = _barrier_maximize(x0, basis, a, start)
    lower_neg, c_lo = _barrier_maximize(x0, basis, -a, start)
    lower = -lower_neg

    def state_at(cv):
        return DensityState(x0 + np.tensordot(cv, basis, axes=1))

    rep = replicate(a, market)
    scale = max(1.0, abs(upper))
    width_small = upper - lower <= INTERVAL_WIDTH_TOL * scale
    if rep.attainable != width_small:
        raise InternalConsistencyError(
            f"attainability disagreement: replication residual {rep.residual:.3e}, "
            f"interval width {upper - lower:.3e}"
        )
    return PriceInterval(
        lower,
        upper,
        attainable=rep.attainable,
        witness_states=(state_at(c_lo), state_at(c_hi)),
        interval_open=not rep.attainable,
        replication=rep,
    )


def arbitrage_free_prices(a, market, max_iters=DEFAULT_MAX_ITERS):
    """Classify the price set: singleton (attainable) or open interval."""
    interval = price_bounds(a, market, max_iters=max_iters)
    rep = interval.replication
    unique = None
    if interval.attainable:
        scale = max(1.0, abs(interval.upper))
        if (
            abs(rep.alpha - interval.upper) > 1e-6 * scale
            or abs(rep.alpha - interval.lower) > 1e-6 * scale
        ):
            raise InternalConsistencyError(
                f"replication price {rep.alpha!r} disagrees with bounds "
                f"({interval.lower!r}, {interval.upper!r})"
            )
        unique = rep.alpha
    return PriceClassification(interval, rep, unique_price=unique)


def is_complete(market):
    """Rank test: span{I} + span(K) against the Hermitian part of A_T."""
    _require_discounted(market)
    eye = herm_to_vec(np.eye(market.dim, dtype=complex))
    rows = np.vstack([eye, attainable_space(market).vecs])
    affine_dim = int(np.linalg.matrix_rank(rows, tol=1e-9))
    obs_dim = market.filtration[market.horizon].herm_dim()
    return CompletenessReport(affine_dim == obs_dim, affine_dim, obs_dim)


def supermartingale_check(values, rho, market, tol=1e-8):
    """Gram-matrix test of E_rho A* V_t A <= E_rho A* V_{t-1} A per period."""
    mat = rho.mat if isinstance(rho, DensityState) else rho
    for t in range(1, market.horizon + 1):
        dv = as_hermitian(values[t]) - as_hermitian(values[t - 1])
        basis = market.filtration[t - 1].basis
        gram = np.array(
            [
                [np.trace(mat @ ap.conj().T @ dv @ aq) for aq in basis]
                for ap in basis
            ]
        )
        gram = 0.5 * (gram + gram.conj().T)
        if np.linalg.eigvalsh(gram)[-1] > tol:
            return False
    return True


def optional_decomposition(values, market, max_iters=DEFAULT_MAX_ITERS):
    """Constructive decomposition V = V_0 + H # S - C with C increasing.

    Per period, super-replicates the increment of V inside the one-period
    gain span by maximizing the minimum eigenvalue of the hedge slack; the
    slack itself is the consumption increment.
    """
    _require_discounted(market)
    horizon = market.horizon
    if len(values) != horizon + 1:
        raise ValidationError("value process length does not match the horizon")
    vals = [as_hermitian(v) for v in values]
    for t, v in enumerate(vals):
        if not market.filtration[t].contains(v):
            raise ValidationError(f"value process not adapted at t={t}")
    d = market.dim
    v0 = float(np.trace(vals[0]).real) / d

    na = check_no_arbitrage(market, max_iters=max_iters)
    if na.status != FAITHFUL_STATE_FOUND:
        raise ArbitrageError("optional decomposition requires an arbitrage-free market")
    if na.witness_state is not None and not supermartingale_check(vals, na.witness_state, market):
        raise ValidationError(
            "value process is not a supermartingale under the risk-neutral witness"
        )

    space = attainable_space(market)
    consumption = [np.zeros((d, d), dtype=complex)]
    terms = {}
    for period in space.periods:
        t = period.period
        dv = vals[t] - vals[t - 1]
        lam, c, _ = maximize_lambda_min(-dv, period.operators, max_iters)
        if lam < -CONSUMPTION_PSD_TOL:
            raise SolverError(
                f"one-period super-replication infeasible at t={t}: "
                f"best minimum eigenvalue {lam:.3e}"
            )
        hedge_gain = np.tensordot(c, period.operators, axes=1)
        terms.update(period.terms(c))
        dc = hedge_gain - dv
        consumption.append(consumption[-1] + 0.5 * (dc + dc.conj().T))
    return OptionalDecompositionResult(v0, TradingStrategy(terms), consumption)
