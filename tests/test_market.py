import numpy as np
import pytest

from qmarket.arbitrage import build_constraints, check_no_arbitrage
from qmarket.binomial import QubitMarketSpec, build_single_period
from qmarket.errors import ValidationError
from qmarket.market import (
    Filtration,
    MarketModel,
    OperatorAlgebra,
    TradingStrategy,
    attainable_space,
    attainable_space_basis,
    bimodule_apply,
    discount,
    gain_process,
    tensor_qubit_filtration,
    value_process,
)
from qmarket.operators import I2, SX, SZ, herm_to_vec, hs_inner, pauli_operator
from qmarket.quantum import expectation

from conftest import random_hermitian, random_market, random_strategy

SPEC = QubitMarketSpec(0.05, 0.15, 0.0, 0.0, r=0.05, s0=100.0)


def qubit_market():
    return discount(build_single_period(SPEC))


def test_algebra_factor_membership():
    alg = OperatorAlgebra.tensor_factor(2, 4)
    assert alg.contains(np.kron(SX, I2))
    assert not alg.contains(np.kron(I2, SX))
    assert alg.herm_dim() == 4
    for active, dim in ((3, 4), (0, 2), (0, 0), (1, 0)):
        with pytest.raises(ValidationError, match="must be in 1"):
            OperatorAlgebra.tensor_factor(active, dim)


def test_algebra_explicit_validation():
    a = pauli_operator(0.05, 0.15, 0.0, 0.0)
    alg = OperatorAlgebra.from_basis([I2, a])
    assert alg.contains(a @ a)
    with pytest.raises(ValidationError):
        OperatorAlgebra.from_basis([SX])  # no identity
    with pytest.raises(ValidationError):
        OperatorAlgebra.from_basis([I2, SX, SZ])  # not closed: sx sz outside span


def test_filtration_validation():
    with pytest.raises(ValidationError):
        Filtration([OperatorAlgebra.full(2), OperatorAlgebra.full(2)])
    filt = tensor_qubit_filtration(2)
    assert filt.horizon == 2
    assert filt[0].is_trivial()
    assert filt[1].is_subalgebra_of(filt[2])


def test_market_validation():
    filt = Filtration([OperatorAlgebra.trivial(2), OperatorAlgebra.full(2)])
    with pytest.raises(ValidationError):
        MarketModel(filt, [1.0, 0.0], [[100 * I2, 100 * I2]])
    with pytest.raises(ValidationError):
        MarketModel(filt, [1.0, 1.0], [[SZ, 100 * I2]])  # not positive
    with pytest.raises(ValidationError):
        MarketModel(filt, [1.0, 1.0], [[100 * SX + 101 * I2, 100 * I2]])  # not adapted at 0


def test_bimodule_apply():
    u = random_hermitian(np.random.default_rng(0), 2)
    np.testing.assert_allclose(bimodule_apply((I2, I2), u), u)
    np.testing.assert_allclose(bimodule_apply((SX, SX), SZ), -SZ, atol=1e-12)
    a = np.array([[1.0, 2j], [0.0, 1.0]])
    out = bimodule_apply((a.conj().T, a), SZ)
    assert np.abs(out - out.conj().T).max() <= 1e-12


def test_discount():
    mkt = build_single_period(SPEC)
    d = discount(mkt)
    assert d.is_discounted()
    np.testing.assert_allclose(d.assets[0][1], mkt.assets[0][1] / 1.05)
    dd = discount(d)
    np.testing.assert_allclose(dd.assets[0][1], d.assets[0][1])


def test_discount_preserves_martingale_states():
    mkt = build_single_period(SPEC)
    c1 = build_constraints(discount(mkt))
    c2 = build_constraints(discount(discount(mkt)))
    assert len(c1) == len(c2) == 1
    # same one-dimensional span
    assert abs(abs(hs_inner(c1.operators[0], c2.operators[0])) - 1.0) <= 1e-9


def test_qubit_constraint_is_sigma_x():
    cs = build_constraints(qubit_market())
    g = cs.operators[0]
    assert abs(abs(hs_inner(g, SX / np.sqrt(2))) - 1.0) <= 1e-9


def test_gain_process_zero_and_identity():
    mkt = qubit_market()
    zero = gain_process(TradingStrategy(), mkt)
    assert all(np.abs(g).max() == 0.0 for g in zero)
    h = TradingStrategy({(1, 0): [(1.0, I2)]})
    gains = gain_process(h, mkt)
    np.testing.assert_allclose(gains[1], mkt.increment(0, 1), atol=1e-12)


def test_gain_requires_discounted():
    with pytest.raises(ValidationError):
        gain_process(TradingStrategy(), build_single_period(SPEC))


def test_gain_adaptedness_enforced():
    mkt = qubit_market()
    h = TradingStrategy({(1, 0): [(1.0, SX)]})  # sx not in A_0 = CI
    with pytest.raises(ValidationError):
        gain_process(h, mkt)


def test_replication_strategy_gain_matches_payoff_minus_price():
    # gamma (S1bar - S0) = discounted payoff - price, with gamma = 2/3
    mkt = qubit_market()
    gamma = 2.0 / 3.0
    h = TradingStrategy({(1, 0): [(gamma, I2)]})
    gains = gain_process(h, mkt)
    from qmarket.operators import apply_function

    payoff = apply_function(1.05 * mkt.assets[0][1], lambda s: max(s - 100.0, 0.0)) / 1.05
    price = 200.0 / 21.0
    np.testing.assert_allclose(gains[1], payoff - price * np.eye(2), atol=1e-9)


def test_value_process_constant():
    filt = Filtration([OperatorAlgebra.trivial(2), OperatorAlgebra.full(2)])
    static = MarketModel(filt, [1.0, 1.0], [[100 * I2, 100 * I2]])
    h = TradingStrategy({(1, 0): [(1.0, I2)]}, h0=1.0)
    values = value_process([2.0, 2.0], h, static)
    np.testing.assert_allclose(values[0], values[1], atol=1e-12)


def test_value_process_replicates_call():
    mkt = build_single_period(SPEC)
    beta, gamma = -400.0 / 7.0, 2.0 / 3.0
    h = TradingStrategy({(1, 0): [(gamma, I2)]}, h0=gamma)
    values = value_process([beta, beta], h, mkt)
    from qmarket.operators import apply_function

    payoff = apply_function(mkt.assets[0][1], lambda s: max(s - 100.0, 0.0))
    np.testing.assert_allclose(values[1], payoff, atol=1e-9)
    # single-period self-financing: increment = beta dB + gamma dS
    db = mkt.bank[1] - mkt.bank[0]
    ds = mkt.increment(0, 1)
    np.testing.assert_allclose(
        values[1] - values[0], beta * db * np.eye(2) + gamma * ds, atol=1e-9
    )


def test_attainable_space_static_empty():
    filt = Filtration([OperatorAlgebra.trivial(2), OperatorAlgebra.full(2)])
    static = MarketModel(filt, [1.0, 1.0], [[100 * I2, 100 * I2]])
    assert attainable_space_basis(static) == []


def test_attainable_space_qubit_one_dimensional():
    assert len(attainable_space_basis(qubit_market())) == 1


def test_attainable_basis_preimages_reproduce_basis():
    mkt = qubit_market()
    space = attainable_space(mkt)
    for k, e in zip(attainable_space_basis(mkt), np.eye(space.rank)):
        gains = gain_process(space.strategy(e), mkt)
        np.testing.assert_allclose(gains[-1], k, atol=1e-9)


def test_polarization_completeness_random(rng):
    # gains of random strategies always lie in the polarization span
    for _ in range(10):
        dim = int(rng.integers(2, 6))
        horizon = int(rng.integers(1, 4))
        mkt = random_market(rng, dim, horizon)
        basis = attainable_space_basis(mkt)
        mat = np.array([herm_to_vec(k) for k in basis]) if basis else np.zeros((0, dim * dim))
        for _ in range(20):
            h = random_strategy(rng, mkt)
            g = gain_process(h, mkt)[-1]
            v = herm_to_vec(g)
            if len(basis):
                v = v - mat.T @ (mat @ v)
            assert np.linalg.norm(v) <= 1e-8 * max(1.0, np.linalg.norm(herm_to_vec(g)))


def test_gains_are_martingales_under_witness(rng):
    # gains of any strategy are martingales under the engine's witness state
    for _ in range(5):
        mkt = random_market(rng, 3, 2)
        res = check_no_arbitrage(mkt)
        if res.witness_state is None:
            continue
        rho = res.witness_state.mat
        h = random_strategy(rng, mkt)
        gains = gain_process(h, mkt)
        for t in range(1, mkt.horizon + 1):
            dg = gains[t] - gains[t - 1]
            for ap in mkt.filtration[t - 1].basis:
                for aq in mkt.filtration[t - 1].basis:
                    val = np.trace(rho @ ap.conj().T @ dg @ aq)
                    assert abs(val) <= 1e-7 * max(1.0, np.linalg.norm(dg))


def test_martingale_iff_annihilates_attainable(rng):
    mkt = qubit_market()
    basis = attainable_space_basis(mkt)
    res = check_no_arbitrage(mkt)
    for k in basis:
        assert abs(expectation(res.witness_state, k)) <= 1e-8
