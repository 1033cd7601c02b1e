import numpy as np
import pytest
from hypothesis import given, settings
from scipy.optimize import linprog
from hypothesis import strategies as st

from qmarket.arbitrage import (
    FAITHFUL_STATE_FOUND,
    GAP_TOL,
    NEWTON_STEPS,
    check_no_arbitrage,
    is_martingale_state,
    newton_core,
)
from qmarket.binomial import NPeriodSpec, QubitMarketSpec, build_n_period, build_single_period
from qmarket.errors import ArbitrageError, SolverError, ValidationError
from qmarket.market import (
    Filtration,
    MarketModel,
    MartingaleConstraintSet,
    OperatorAlgebra,
    attainable_space,
    discount,
    gain_process,
    value_process,
)
from qmarket.operators import SX, apply_function, herm_to_vec, hs_inner, min_eigenvalue, vec_to_herm
from qmarket.pricing import (
    CONSUMPTION_PSD_TOL,
    _super_hedge,
    is_complete,
    optional_decomposition,
    price_bounds,
    replicate,
    supermartingale_check,
)
from qmarket.quantum import DensityState, expectation

from conftest import (
    TWO_PERIOD_CLAIM,
    classical_lp_bounds,
    random_hermitian,
    random_market,
    random_positive,
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
    assert iv.attainable and iv.gaps == (0.0, 0.0) and iv.unique_price == pytest.approx(1.0)


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
    assert not iv.attainable and iv.unique_price is None
    # each end's certified gap: alpha - tr(rho A) of its super-hedge
    assert all(0.0 < gap <= 1e-10 * np.linalg.norm(claim, 2) for gap in iv.gaps)


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


def test_price_bounds_classification():
    mkt = qubit_market()
    iv = price_bounds(qubit_call(mkt), mkt)
    assert iv.unique_price == pytest.approx(QUBIT_CALL_PRICE, abs=1e-6)
    assert iv.unique_price == iv.replication.alpha
    tri = discount(trinomial_market())
    iv_tri = price_bounds(tri_call(tri), tri)
    assert iv_tri.unique_price is None and not iv_tri.attainable


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


@pytest.mark.parametrize(
    "values,state,message",
    [
        pytest.param(
            [np.eye(3)] * 2, np.eye(2) / 2,
            r"value process at t=0 is 3 x 3, the market's dimension is 2", id="value_3x3",
        ),
        pytest.param(
            [np.eye(2)] * 2, np.eye(3) / 3, r"state is 3 x 3, the market's dimension is 2",
            id="state_3x3",
        ),
        pytest.param(
            [np.eye(2)], np.eye(2) / 2, "value process length does not match the horizon",
            id="too_short",
        ),
    ],
)
def test_supermartingale_check_rejects_what_does_not_fit_the_market(values, state, message):
    with pytest.raises(ValidationError, match=message):
        supermartingale_check(values, DensityState(state), qubit_market())


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


def test_optional_decomposition_names_both_dimensions_of_a_value_of_the_wrong_size():
    with pytest.raises(ValidationError, match="at t=0 is 3 x 3, the market's dimension is 2"):
        optional_decomposition([np.eye(3)] * 2, qubit_market())


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
    # a Newton system that neither the solve nor its least-squares fallback
    # solves is reported, not replaced by a gradient step; the N = 2 market's
    # K, of rank 1 + 4, is decided in closed form and hedged by the Newton core
    mkt = discount(build_n_period(NPeriodSpec(2, -0.1, 0.2, 0.05, 100.0)))
    assert check_no_arbitrage(mkt).witness_state is not None
    assert attainable_space(mkt).rank == 5 and not replicate(TWO_PERIOD_CLAIM, mkt).attainable

    def singular(*args, **kwargs):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(np.linalg, "solve", singular)
    monkeypatch.setattr(np.linalg, "pinv", singular)
    with pytest.raises(SolverError, match="Newton system is singular"):
        price_bounds(TWO_PERIOD_CLAIM, mkt)


def test_an_undecided_market_is_not_priced(monkeypatch):
    # the N = 2 market with A_1, A_2 written as explicit bases: its K does not
    # factorize, so the decision runs the Newton core, and with every Newton
    # system singular it is INDETERMINATE; pricing refuses with its note
    mkt = discount(build_n_period(NPeriodSpec(2, -0.1, 0.2, 0.05, 100.0)))
    algebras = [OperatorAlgebra.from_basis(alg.basis) for alg in mkt.filtration.algebras[1:]]
    dense = MarketModel(Filtration([OperatorAlgebra.trivial(4)] + algebras), mkt.bank, mkt.assets)

    def singular(*args, **kwargs):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(np.linalg, "solve", singular)
    monkeypatch.setattr(np.linalg, "pinv", singular)
    with pytest.raises(SolverError) as raised:
        price_bounds(TWO_PERIOD_CLAIM, dense)
    assert str(raised.value).startswith(
        "no-arbitrage decision is indeterminate: Newton system is singular at tau=1.0e+00; "
    )


def test_optional_decomposition_refuses_an_arbitrage_market():
    mkt = discount(build_single_period(QubitMarketSpec(0.05, 0.15, 0.0, 0.0, r=0.3, s0=100.0)))
    with pytest.raises(ArbitrageError, match="requires an arbitrage-free market"):
        optional_decomposition([np.eye(2), np.eye(2)], mkt)


# x, gap and steps of the trinomial call's two ends and a third target, from
# the core that solved a stack of problems and took each one's own tau path
TRINOMIAL_CORE_SOLVES = [
    ([0.5000000000034616, 0.7071067811864441], 5.2254274714991645e-12, 20),
    ([-0.2499999999984375, -0.7099739490557051], 4.687294626487488e-12, 9),
    ([0.8333333333367421, -0.23570226039589837], 4.8908748452661355e-12, 19),
]


def test_the_newton_core_keeps_the_iterates_of_the_stacked_core():
    # one problem per call takes the tau path, steps and gap that the same
    # problem took inside a stack: the two ends of the trinomial call and a
    # third target, each against its recorded solve
    mkt = discount(trinomial_market())
    space = attainable_space(mkt)
    call = tri_call(mkt)
    targets = np.stack([call, -call, np.diag([3.0, -1.0, 2.0]).astype(complex)])
    targets /= np.linalg.norm(targets, 2, axis=(1, 2))[:, None, None]
    objective = np.eye(1 + space.rank)[0]
    for target, (want_x, want_gap, want_steps) in zip(targets, TRINOMIAL_CORE_SOLVES):
        start = (np.linalg.eigvalsh(target)[-1] + 1.0) * objective
        x, rho, gap, steps, failure = newton_core(objective, -target, space.vecs, start)
        assert failure is None and steps == want_steps
        np.testing.assert_allclose(x, want_x, rtol=0, atol=1e-12)
        assert gap == pytest.approx(want_gap, abs=1e-15) and gap <= 1e-10
        assert abs(np.trace(rho).real - 1.0) <= 1e-12
        assert np.abs(space.vecs @ herm_to_vec(rho)).max() <= 1e-12


@pytest.mark.parametrize("held", ["no_asset", "constant_asset"])
def test_a_span_of_rank_zero_is_hedged_by_alpha_alone(held):
    # K = 0: the Newton core moves alpha alone, with no row of K to whiten,
    # and the interval is [lambda_min, lambda_max] of the claim
    filt = Filtration([OperatorAlgebra.trivial(3), OperatorAlgebra.full(3)])
    assets = [] if held == "no_asset" else [[100.0 * np.eye(3), 100.0 * np.eye(3)]]
    mkt = MarketModel(filt, [1.0, 1.0], assets)
    assert attainable_space(mkt).rank == 0
    claim = np.diag([1.0, 2.0, 5.0]).astype(complex)
    iv = price_bounds(claim, mkt)
    assert not iv.attainable and min(iv.steps) > 0
    gap_lo, gap_hi = iv.gaps
    assert 0.0 <= gap_lo <= 5.0 * GAP_TOL and 0.0 <= gap_hi <= 5.0 * GAP_TOL
    assert abs(iv.lower - 1.0) <= gap_lo and abs(iv.upper - 5.0) <= gap_hi
    assert all(min_eigenvalue(w.mat) > 0.0 for w in iv.witness_states)
    # the one-period super-hedge at the upper price reconstructs the claim
    dec = optional_decomposition([iv.upper * np.eye(3), claim], mkt)
    recon = dec.v0 * np.eye(3) + gain_process(dec.strategy, mkt)[-1] - dec.consumption[-1]
    assert dec.v0 == pytest.approx(iv.upper, abs=1e-12)
    assert np.linalg.norm(recon - claim) <= 1e-10
    assert min_eigenvalue(dec.consumption[-1]) >= -CONSUMPTION_PSD_TOL


def one_element_span(d, kind, seed):
    """A span of one indefinite D on C^d and a target: diagonal, near-commuting or full."""
    rng = np.random.default_rng(seed)
    rates = np.sort(rng.uniform(-0.3, 0.4, d))
    shift = rates[0] + rng.uniform(0.2, 0.8) * (rates[-1] - rates[0])
    if kind == "full":
        q, _ = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
        element, target = (q * (rates - shift)) @ q.conj().T, random_hermitian(rng, d, 10.0)
    else:
        element, target = np.diag(rates - shift), np.diag(rng.uniform(0.0, 20.0, d))
        if kind != "diagonal":
            element = element + float(kind) * random_hermitian(rng, d)
    element = 0.5 * (element + element.conj().T)
    return MartingaleConstraintSet(d, [element / np.linalg.norm(element)]), target


SPAN_KINDS = ["diagonal", "1e-9", "1e-4", "full"]  # 1e-9 and 1e-4: a diagonal D plus that much noise


@settings(derandomize=True, max_examples=120, deadline=None)
@given(st.integers(2, 8), st.sampled_from(SPAN_KINDS), st.integers(0, 2**32 - 1))
def test_a_one_element_hedge_matches_the_newton_core(d, kind, seed):
    # the Newton core, run directly, stays the reference: both ends agree
    # within the two certified gaps, and the one-variable route's own
    # certificate (gap, faithful martingale witness, hedge slack) holds
    space, target = one_element_span(d, kind, seed)
    targets = np.stack([target, -target])
    scale = max(1.0, float(np.linalg.norm(target, 2)))
    objective = np.eye(2)[0]
    reference = [
        newton_core(objective, -a, space.vecs, (np.linalg.eigvalsh(a)[-1] + 1.0) * objective)
        for a in targets / scale
    ]
    element = vec_to_herm(space.vecs[0], d)
    for (hedge, rho, gap), (x, _, ref_gap, _, failure), a in zip(
        [_super_hedge(a, space) for a in targets], reference, targets
    ):
        assert failure is None and hedge.scale == scale
        # the two gaps, plus rounding
        assert abs(hedge.alpha - x[0] * scale) <= gap + ref_gap * scale + 1e-13 * scale
        assert -1e-13 * scale <= gap <= GAP_TOL * scale and 0 < hedge.steps <= NEWTON_STEPS
        assert np.linalg.eigvalsh(rho)[0] > 0.0 and abs(np.trace(rho).real - 1.0) <= 1e-12
        assert abs(np.trace(rho @ element)) <= 1e-12
        assert hedge.alpha - hs_inner(rho, a) == pytest.approx(gap, abs=1e-12 * scale)
        slack = hedge.alpha * np.eye(d) + hedge.coeffs[0] * element - a
        assert np.linalg.eigvalsh(slack)[0] >= -1e-10 * scale


@pytest.mark.parametrize(
    "element",
    [np.diag([1.0, 0.5, 0.0]), np.diag([-1.0, -2.0, 0.0]), np.eye(3)],
    ids=["psd", "nsd", "eye"],
)
def test_a_semidefinite_one_element_span_raises(element):
    # no martingale state is faithful: the hedge reports it, with no NaN and no loop
    space = MartingaleConstraintSet(3, [element / np.linalg.norm(element)])
    with pytest.raises(SolverError, match="not indefinite"):
        _super_hedge(np.diag([1.0, 2.0, 3.0]).astype(complex), space)


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


LP_TOL = 1e-10  # the oracle LP's primal and dual feasibility tolerance


@settings(derandomize=True, max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_reported_gaps_bound_the_distance_to_the_lp_endpoints(seed):
    # each end is certified: the LP's sup lies in [upper - upper_gap, upper]
    # and its inf in [lower, lower + lower_gap], up to the LP's own tolerance
    mkt, claim, s0 = diagonal_market(np.random.default_rng(seed))
    iv = price_bounds(claim, mkt)
    outcomes, payoff = np.diag(mkt.assets[0][1]).real, np.diag(claim).real
    n = len(payoff)
    lp = {
        "A_eq": np.vstack([np.ones(n), outcomes]), "b_eq": [1.0, s0], "bounds": [(0, None)] * n,
        "options": {"primal_feasibility_tolerance": LP_TOL, "dual_feasibility_tolerance": LP_TOL},
    }
    inf, sup = linprog(payoff, **lp), linprog(-payoff, **lp)
    assert inf.success and sup.success
    tol = LP_TOL * max(1.0, np.abs(payoff).max())
    assert iv.upper - iv.gaps[1] - tol <= -sup.fun <= iv.upper + tol
    assert iv.lower - tol <= inf.fun <= iv.lower + iv.gaps[0] + tol


@settings(derandomize=True, max_examples=15, deadline=None)
@given(st.integers(2, 5), st.sampled_from([0.01, 100.0]), st.integers(0, 2**32 - 1))
def test_scaling_the_market_and_claim_scales_the_prices(d, c, seed):
    # c S_0, c S_1 has the same span K, so the decision and lambda* stay;
    # the claim c A then has both ends times c, within the certified gaps
    rng = np.random.default_rng(seed)
    asset, claim = random_positive(rng, d) + 0.1 * np.eye(d), random_hermitian(rng, d)
    filt = Filtration([OperatorAlgebra.trivial(d), OperatorAlgebra.full(d)])
    base, scaled = (
        MarketModel(filt, [1.0, 1.0], [[k * np.eye(d, dtype=complex), k * asset]]) for k in (1.0, c)
    )
    ref, res = check_no_arbitrage(base), check_no_arbitrage(scaled)
    assert res.status == ref.status
    assert res.lambda_star == pytest.approx(ref.lambda_star, abs=1e-9)
    if ref.status == FAITHFUL_STATE_FOUND:
        iv, civ = price_bounds(claim, base), price_bounds(c * claim, scaled)
        for end, gap, c_end, c_gap in zip(
            (iv.lower, iv.upper), iv.gaps, (civ.lower, civ.upper), civ.gaps
        ):
            assert abs(c_end - c * end) <= c_gap + c * gap + 1e-9 * max(1.0, abs(c * end))


def one_period(assets, claim, active, pad=1):
    """(market, claim (x) I_pad): A_1 = B(C^active) (x) I_pad, S_0 = I, S_1 = asset (x) I_pad."""
    eye = np.eye(pad)
    dim = active * pad
    filt = Filtration([OperatorAlgebra.trivial(dim), OperatorAlgebra.tensor_factor(active, dim)])
    procs = [[np.eye(dim, dtype=complex), np.kron(s, eye)] for s in assets]
    return MarketModel(filt, [1.0, 1.0], procs), np.kron(claim, eye)


@settings(derandomize=True, max_examples=20, deadline=None)
@given(st.integers(2, 5), st.integers(1, 2), st.sampled_from([2, 3]), st.integers(0, 2**32 - 1))
def test_unitary_conjugation_and_padding_keep_decision_and_prices(d, n_assets, k, seed):
    # a martingale state rho of the base market gives U rho U* and rho (x) I_k / k,
    # and the partial trace maps padded states back: lambda* is kept, or divided by k
    rng = np.random.default_rng(seed)
    assets = [random_positive(rng, d) + 0.1 * np.eye(d) for _ in range(n_assets)]
    claim = random_hermitian(rng, d)
    u, _ = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
    rotated = [u @ s @ u.conj().T for s in assets]
    variants = [
        (one_period(assets, claim, d), 1),
        (one_period(rotated, u @ claim @ u.conj().T, d), 1),
        (one_period(assets, claim, d, pad=k), k),
    ]
    base = check_no_arbitrage(variants[0][0][0])
    tol = 1e-9 * max(1.0, np.linalg.norm(claim, 2))
    if base.status == FAITHFUL_STATE_FOUND:
        iv = price_bounds(variants[0][0][1], variants[0][0][0])
    for (mkt, a), scale in variants[1:]:
        res = check_no_arbitrage(mkt)
        assert res.status == base.status
        assert res.lambda_star * scale == pytest.approx(base.lambda_star, abs=1e-9)
        if base.status == FAITHFUL_STATE_FOUND:
            other = price_bounds(a, mkt)
            assert (other.lower, other.upper) == pytest.approx((iv.lower, iv.upper), abs=tol)
