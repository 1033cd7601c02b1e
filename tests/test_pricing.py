import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmarket.arbitrage import check_no_arbitrage, is_martingale_state
from qmarket.binomial import NPeriodSpec, QubitMarketSpec, build_n_period, build_single_period
from qmarket.errors import ArbitrageError, SolverError, ValidationError
from qmarket.market import (
    Filtration,
    MarketModel,
    OperatorAlgebra,
    discount,
    gain_process,
    value_process,
)
from qmarket.operators import SX, apply_function, min_eigenvalue
from qmarket.pricing import (
    CONSUMPTION_PSD_TOL,
    arbitrage_free_prices,
    is_complete,
    optional_decomposition,
    price_bounds,
    replicate,
    supermartingale_check,
)
from qmarket.quantum import DensityState, expectation

from conftest import (
    classical_lp_bounds,
    random_hermitian,
    random_market,
    random_state,
    trinomial_market,
)

SPEC = QubitMarketSpec(0.05, 0.15, 0.0, 0.0, r=0.05, s0=100.0)
QUBIT_CALL_PRICE = 200.0 / 21.0
TRI_LOWER, TRI_UPPER = 100.0 / 21.0, 200.0 / 21.0


def qubit_market():
    return discount(build_single_period(SPEC))


def qubit_call(mkt):
    return apply_function(1.05 * mkt.assets[0][1], lambda s: max(s - 100.0, 0.0)) / 1.05


def tri_call(mkt):
    return apply_function(1.05 * mkt.assets[0][1], lambda s: max(s - 100.0, 0.0)) / 1.05


def test_replicate_constant_claim():
    mkt = qubit_market()
    rep = replicate(3.5 * np.eye(2), mkt)
    assert rep.attainable
    assert rep.alpha == pytest.approx(3.5, abs=1e-10)
    gains = gain_process(rep.strategy, mkt)
    assert np.abs(gains[-1]).max() <= 1e-9


def test_replicate_qubit_call():
    mkt = qubit_market()
    rep = replicate(qubit_call(mkt), mkt)
    assert rep.attainable
    assert rep.alpha == pytest.approx(QUBIT_CALL_PRICE, abs=1e-9)
    gains = gain_process(rep.strategy, mkt)
    np.testing.assert_allclose(
        rep.alpha * np.eye(2) + gains[-1], qubit_call(mkt), atol=1e-8
    )


def test_replicate_trinomial_call_not_attainable():
    mkt = discount(trinomial_market())
    rep = replicate(tri_call(mkt), mkt)
    assert not rep.attainable
    assert rep.residual > 1.0


def test_replicate_rejects_undiscounted():
    with pytest.raises(ValidationError):
        replicate(np.eye(2), build_single_period(SPEC))


def test_price_bounds_identity_claim():
    iv = price_bounds(np.eye(2), qubit_market())
    assert iv.lower == pytest.approx(1.0, abs=1e-8)
    assert iv.upper == pytest.approx(1.0, abs=1e-8)
    assert iv.attainable and not iv.interval_open


def test_price_bounds_terminal_asset_is_initial_price():
    mkt = qubit_market()
    iv = price_bounds(mkt.assets[0][1], mkt)
    assert iv.lower == pytest.approx(100.0, abs=1e-6)
    assert iv.upper == pytest.approx(100.0, abs=1e-6)


def test_qubit_call_interval_collapses():
    mkt = qubit_market()
    iv = price_bounds(qubit_call(mkt), mkt)
    assert iv.upper - iv.lower <= 1e-7
    assert iv.lower == pytest.approx(QUBIT_CALL_PRICE, abs=1e-6)
    assert iv.attainable


def test_trinomial_interval_matches_lp_oracle():
    mkt = discount(trinomial_market())
    claim = tri_call(mkt)
    iv = price_bounds(claim, mkt)
    prices = np.diag(mkt.assets[0][1]).real
    payoff = np.diag(claim).real
    lo, hi = classical_lp_bounds(prices, 100.0, payoff)
    assert iv.lower == pytest.approx(lo, abs=1e-6)
    assert iv.upper == pytest.approx(hi, abs=1e-6)
    assert iv.lower == pytest.approx(TRI_LOWER, abs=1e-6)
    assert iv.upper == pytest.approx(TRI_UPPER, abs=1e-6)
    assert not iv.attainable and iv.interval_open


def full_single_period_market():
    """d = 3, A_1 = B(C^3): S_1 = 100 (I + 0.1 U diag(-1, 0.5, 1) U*) for a fixed unitary U."""
    rng = np.random.default_rng(3)
    u, _ = np.linalg.qr(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
    s1 = 100.0 * (np.eye(3) + 0.1 * (u * [-1.0, 0.5, 1.0]) @ u.conj().T)
    filt = Filtration([OperatorAlgebra.trivial(3), OperatorAlgebra.full(3)])
    return MarketModel(filt, [1.0, 1.0], [[100.0 * np.eye(3, dtype=complex), s1]])


def test_price_bound_witnesses_price_correctly(rng):
    # each witness is a faithful martingale state whose price is within the
    # certified gap of its endpoint, and the upper hedge super-replicates
    tri = discount(trinomial_market())
    full = full_single_period_market()
    pauli = [[0.15, 0.0, 0.0], [0.0, 0.15, 0.0], [0.09, 0.0, 0.12]]
    tensor = discount(build_n_period(NPeriodSpec(3, -0.1, 0.2, 0.05, 100.0, 1.0, pauli)))
    claims = (tri_call(tri), random_hermitian(rng, 3), random_hermitian(rng, 8))
    for mkt, claim in zip((tri, full, tensor), claims):
        iv = price_bounds(claim, mkt)
        assert not iv.attainable
        scale = max(1.0, float(np.linalg.norm(claim, 2)))
        lo_state, hi_state = iv.witness_states
        for state in (lo_state, hi_state):
            assert is_martingale_state(state, mkt, tol=1e-12)
            assert np.trace(state.mat).real == pytest.approx(1.0, abs=1e-12)
            assert state.min_eigenvalue() > 0.0
        assert 0.0 <= iv.upper - expectation(hi_state, claim) <= 1e-8 * scale
        assert 0.0 <= expectation(lo_state, claim) - iv.lower <= 1e-8 * scale
        hedge = iv.hedge
        slack = hedge.alpha * np.eye(mkt.dim) + gain_process(hedge.strategy, mkt)[-1] - claim
        assert min_eigenvalue(slack) >= -1e-10 * scale


def test_random_lp_oracle_agreement(rng):
    # commutative single-period markets priced against the LP oracle
    for _ in range(5):
        n = int(rng.integers(3, 6))
        rates = np.sort(rng.uniform(-0.3, 0.4, size=n))
        if not (rates[0] < 0.0 < rates[-1]):
            continue
        mkt = discount(trinomial_market(r=0.0, s0=100.0, rates=tuple(rates)))
        payoff = rng.uniform(0.0, 50.0, size=n)
        claim = np.diag(payoff).astype(complex)
        iv = price_bounds(claim, mkt)
        prices = np.diag(mkt.assets[0][1]).real
        lo, hi = classical_lp_bounds(prices, 100.0, payoff)
        assert iv.lower == pytest.approx(lo, abs=2e-5)
        assert iv.upper == pytest.approx(hi, abs=2e-5)


def test_price_bounds_raises_on_arbitrage():
    mkt = discount(build_single_period(QubitMarketSpec(0.05, 0.15, 0.0, 0.0, r=0.3, s0=100.0)))
    with pytest.raises(ArbitrageError):
        price_bounds(np.eye(2), mkt)


def test_arbitrage_free_prices_classification():
    mkt = qubit_market()
    cls = arbitrage_free_prices(qubit_call(mkt), mkt)
    assert cls.unique_price == pytest.approx(QUBIT_CALL_PRICE, abs=1e-6)
    tri = discount(trinomial_market())
    cls_tri = arbitrage_free_prices(tri_call(tri), tri)
    assert cls_tri.unique_price is None
    assert cls_tri.interval.interval_open


def test_is_complete():
    # commutative terminal algebra generated by the asset: complete
    mkt = qubit_market()
    s1 = mkt.assets[0][1]
    filt = Filtration(
        [OperatorAlgebra.trivial(2), OperatorAlgebra.from_basis([np.eye(2), s1])]
    )
    commutative = MarketModel(filt, [1.0, 1.0], [[mkt.assets[0][0], s1]])
    rep = is_complete(commutative)
    assert rep.complete
    assert rep.affine_dim == rep.observable_dim == 2
    # full-matrix terminal algebra: the single gain direction cannot span it
    full = is_complete(mkt)
    assert not full.complete
    assert (full.affine_dim, full.observable_dim) == (2, 4)
    tri = is_complete(discount(trinomial_market()))
    assert not tri.complete
    assert (tri.affine_dim, tri.observable_dim) == (2, 9)
    filt = Filtration([OperatorAlgebra.trivial(2), OperatorAlgebra.full(2)])
    static = MarketModel(filt, [1.0, 1.0], [[100 * np.eye(2), 100 * np.eye(2)]])
    assert not is_complete(static).complete


def test_supermartingale_check():
    mkt = qubit_market()
    rho = DensityState.maximally_mixed(2)
    flat = [2.0 * np.eye(2), 2.0 * np.eye(2)]
    assert supermartingale_check(flat, rho, mkt)
    decreasing = [2.0 * np.eye(2), 1.0 * np.eye(2)]
    assert supermartingale_check(decreasing, rho, mkt)
    increasing = [1.0 * np.eye(2), 2.0 * np.eye(2)]
    assert not supermartingale_check(increasing, rho, mkt)


def loop_gram_top_eigenvalue(values, rho, market):
    """max_t of the top eigenvalue of [tr(rho A_p* dV_t A_q)]_pq, one trace per pair."""
    top = -np.inf
    for t in range(1, market.horizon + 1):
        dv = values[t] - values[t - 1]
        basis = market.filtration[t - 1].basis
        gram = np.array([[np.trace(rho @ ap.conj().T @ dv @ aq) for aq in basis] for ap in basis])
        top = max(top, np.linalg.eigvalsh(0.5 * (gram + gram.conj().T))[-1])
    return top


def test_supermartingale_check_matches_trace_loop(rng):
    # the batched Gram matrix against the per-pair loop it replaced: the
    # Gram matrix is linear in V, so scaling V moves the loop's top
    # eigenvalue to either side of the tolerance, and the check flips there
    for dim, horizon in ((3, 2), (4, 1), (2, 3)):
        mkt = random_market(rng, dim, horizon)
        rho = random_state(rng, dim)
        values = [random_hermitian(rng, dim) for _ in range(horizon + 1)]
        top = loop_gram_top_eigenvalue(values, rho, mkt)
        if top <= 0:  # then -V has a positive top eigenvalue
            values = [-v for v in values]
            top = loop_gram_top_eigenvalue(values, rho, mkt)
        assert top > 0
        for factor, below in ((1.0 - 1e-6, True), (1.0 + 1e-6, False)):
            scaled = [(factor * CONSUMPTION_PSD_TOL / top) * v for v in values]
            assert supermartingale_check(scaled, rho, mkt) == below


def test_optional_decomposition_martingale_case():
    # value process generated by an actual trading strategy: no consumption
    mkt = qubit_market()
    from qmarket.market import TradingStrategy

    h = TradingStrategy({(1, 0): [(0.5, np.eye(2))]})
    values = [3.0 * np.eye(2) + g for g in gain_process(h, mkt)]
    res = optional_decomposition(values, mkt)
    assert res.v0 == pytest.approx(3.0, abs=1e-10)
    for c in res.consumption:
        assert np.linalg.norm(c) <= 1e-7


def test_optional_decomposition_pure_consumption():
    mkt = qubit_market()
    values = [2.0 * np.eye(2), 1.0 * np.eye(2)]
    res = optional_decomposition(values, mkt)
    assert res.v0 == pytest.approx(2.0)
    # consumption increment absorbs the full unit drop
    final = res.consumption[-1]
    gains = gain_process(res.strategy, mkt)
    np.testing.assert_allclose(
        values[1], values[0] + gains[-1] - final, atol=1e-7
    )
    assert min_eigenvalue(final) >= -1e-8


def test_optional_decomposition_trinomial_upper_hedge():
    # super-replication of the call from its upper price: hedge ratio 2/3
    mkt = discount(trinomial_market())
    claim = tri_call(mkt)
    values = [TRI_UPPER * np.eye(3), claim]
    res = optional_decomposition(values, mkt)
    assert res.v0 == pytest.approx(TRI_UPPER, abs=1e-9)
    gains = gain_process(res.strategy, mkt)
    # LP dual hedge: gamma (S1 - S0) with gamma = 2/3
    gamma_gain = (2.0 / 3.0) * mkt.increment(0, 1)
    np.testing.assert_allclose(gains[-1], gamma_gain, atol=1e-5)
    final = res.consumption[-1]
    assert min_eigenvalue(final) >= -1e-8
    np.testing.assert_allclose(
        claim, res.v0 * np.eye(3) + gains[-1] - final, atol=1e-6
    )


def test_optional_decomposition_rejects_submartingale():
    mkt = qubit_market()
    with pytest.raises(ValidationError):
        optional_decomposition([np.eye(2), 2.0 * np.eye(2)], mkt)


def test_optional_decomposition_random_markets(rng):
    for _ in range(5):
        mkt = random_market(rng, 3, 2)
        na = check_no_arbitrage(mkt)
        if na.witness_state is None:
            continue
        # supermartingale by construction: v_t = v0 - t * I
        values = [(5.0 - t) * np.eye(3) for t in range(mkt.horizon + 1)]
        res = optional_decomposition(values, mkt)
        gains = gain_process(res.strategy, mkt)
        np.testing.assert_allclose(
            values[-1], res.v0 * np.eye(3) + gains[-1] - res.consumption[-1], atol=1e-7
        )
        for t in range(1, mkt.horizon + 1):
            dc = res.consumption[t] - res.consumption[t - 1]
            assert min_eigenvalue(dc) >= -1e-8


def test_attainable_claim_price_is_state_independent(rng):
    # every martingale state assigns the attainable call the same price
    mkt = qubit_market()
    claim = qubit_call(mkt)
    for _ in range(20):
        y, z = rng.uniform(-0.7, 0.7, size=2)
        if y * y + z * z >= 1.0:
            continue
        rho = DensityState.from_bloch([0.0, y, z])
        assert expectation(rho, claim) == pytest.approx(QUBIT_CALL_PRICE, abs=1e-9)


def test_dephased_market_agrees_with_classical_bounds():
    # trinomial market is already diagonal; dephasing witnesses changes nothing
    mkt = discount(trinomial_market())
    claim = tri_call(mkt)
    iv = price_bounds(claim, mkt)
    from qmarket.quantum import dephase

    canonical = [np.eye(3)[:, i] for i in range(3)]
    lo_state = dephase(iv.witness_states[0], canonical)
    assert expectation(lo_state, claim) == pytest.approx(iv.lower, abs=1e-5)


def test_singular_barrier_newton_system_raises(monkeypatch):
    # a failed Newton solve is reported, not replaced by a gradient step
    mkt = discount(trinomial_market())
    assert check_no_arbitrage(mkt).witness_state is not None

    def singular(*args, **kwargs):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(np.linalg, "solve", singular)
    with pytest.raises(SolverError, match="Newton system is singular"):
        price_bounds(tri_call(mkt), mkt)


def diagonal_market(rng):
    """Single-period diagonal market with d = 3..8 and r inside the rates; (market, claim, s0)."""
    d = int(rng.integers(3, 9))
    rates = np.sort(rng.uniform(-0.3, 0.4, d))
    r = rates[0] + rng.uniform(0.2, 0.8) * (rates[-1] - rates[0])
    s0 = rng.uniform(50.0, 150.0)
    mkt = discount(trinomial_market(r=r, s0=s0, rates=tuple(rates)))
    return mkt, np.diag(rng.uniform(0.0, 0.2 * s0, d)).astype(complex) / (1.0 + r), s0


@pytest.mark.parametrize("seed", [41, 71])
def test_decomposition_at_the_reported_upper_price_is_feasible(seed):
    # the upper price is the super-hedge's own alpha, so the one-period
    # super-hedge of V_1 - V_0 is feasible at it (these seeds fell 1e-8 and
    # 1e-5 short when the decomposition ran its own lambda_min ascent)
    mkt, claim, _ = diagonal_market(np.random.default_rng(seed))
    upper = price_bounds(claim, mkt).upper
    res = optional_decomposition([upper * np.eye(mkt.dim), claim], mkt)
    assert min_eigenvalue(res.consumption[-1]) >= -CONSUMPTION_PSD_TOL
    gain = gain_process(res.strategy, mkt)[-1]
    recon = upper * np.eye(mkt.dim) + gain - res.consumption[-1]
    np.testing.assert_allclose(claim, recon, atol=1e-8)


@settings(derandomize=True, max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_diagonal_markets_match_the_lp_and_decompose_at_the_upper_price(seed):
    mkt, claim, s0 = diagonal_market(np.random.default_rng(seed))
    iv = price_bounds(claim, mkt)
    lo, hi = classical_lp_bounds(np.diag(mkt.assets[0][1]).real, s0, np.diag(claim).real)
    assert (iv.lower, iv.upper) == pytest.approx((lo, hi), abs=1e-6)
    res = optional_decomposition([iv.upper * np.eye(mkt.dim), claim], mkt)
    for before, after in zip(res.consumption, res.consumption[1:]):
        assert min_eigenvalue(after - before) >= -CONSUMPTION_PSD_TOL
