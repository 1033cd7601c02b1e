import numpy as np
import pytest

from qmarket.arbitrage import check_no_arbitrage, is_martingale_state
from qmarket.binomial import (
    NPeriodSpec,
    QubitMarketSpec,
    build_n_period,
    build_single_period,
    classical_tree_price,
    complementary_binomial,
    crr_price,
    euro_call_price,
    euro_call_replication,
    product_martingale_state,
    risk_neutral_disk,
    sample_disk_states,
)
from qmarket.errors import ValidationError
from qmarket.market import discount
from qmarket.operators import apply_function
from qmarket.quantum import DensityState, expectation, is_faithful

from conftest import crr_direct_sum

SPEC = QubitMarketSpec(0.05, 0.15, 0.0, 0.0, r=0.05, s0=100.0)


def test_qubit_spec_spectrum():
    assert SPEC.a == pytest.approx(-0.1)
    assert SPEC.b == pytest.approx(0.2)
    assert SPEC.pauli_norm == pytest.approx(0.15)
    vals = np.linalg.eigvalsh(SPEC.rate_operator)
    np.testing.assert_allclose(vals, [-0.1, 0.2], atol=1e-12)


def test_qubit_spec_validation():
    with pytest.raises(ValidationError):
        QubitMarketSpec(0.05, 0.0, 0.0, 0.0, r=0.05, s0=100.0)  # no risky direction
    with pytest.raises(ValidationError):
        QubitMarketSpec(0.05, 0.15, 0.0, 0.0, r=0.05, s0=-1.0)
    with pytest.raises(ValidationError):
        QubitMarketSpec(-2.0, 0.15, 0.0, 0.0, r=0.05, s0=100.0)  # a <= -1


def test_build_single_period_spectrum():
    mkt = build_single_period(SPEC)
    vals = np.linalg.eigvalsh(mkt.assets[0][1])
    np.testing.assert_allclose(vals, [90.0, 120.0], atol=1e-10)
    assert mkt.bank == [1.0, 1.05]


def test_disk_geometry():
    disk = risk_neutral_disk(SPEC)
    np.testing.assert_allclose(disk.normal, [1.0, 0.0, 0.0])
    assert disk.offset == pytest.approx(0.0, abs=1e-15)
    assert disk.radius == pytest.approx(1.0)
    tilted = risk_neutral_disk(QubitMarketSpec(0.05, 0.15, 0.0, 0.0, r=0.075, s0=100.0))
    assert tilted.radius == pytest.approx(np.sqrt(1.0 - 1.0 / 36.0), abs=1e-12)
    assert tilted.offset == pytest.approx((0.075 - 0.05) / 0.15)
    wide = risk_neutral_disk(QubitMarketSpec(0.05, 0.15, 0.0, 0.0, r=0.125, s0=100.0))
    assert wide.radius == pytest.approx(np.sqrt(0.75), abs=1e-12)


def test_disk_requires_interior_rate():
    with pytest.raises(ValidationError):
        risk_neutral_disk(QubitMarketSpec(0.05, 0.15, 0.0, 0.0, r=0.3, s0=100.0))
    with pytest.raises(ValidationError):
        risk_neutral_disk(QubitMarketSpec(0.05, 0.15, 0.0, 0.0, r=0.2, s0=100.0))


def test_disk_contains():
    disk = risk_neutral_disk(SPEC)
    assert disk.contains([0.0, 0.0, 0.0])
    assert disk.contains([0.0, 0.3, 0.4])
    assert not disk.contains([0.2, 0.0, 0.0])  # off plane
    assert not disk.contains([0.0, 1.0, 1.0])  # outside ball


def test_sampled_states_are_faithful_martingale_states():
    mkt = build_single_period(SPEC)
    disk = risk_neutral_disk(SPEC)
    states = sample_disk_states(disk, 50, seed=7)
    for rho in states:
        assert is_faithful(rho)
        assert is_martingale_state(rho, mkt, tol=1e-8)
        assert disk.contains(rho.bloch_vector())


def test_sampling_deterministic():
    disk = risk_neutral_disk(SPEC)
    a = sample_disk_states(disk, 10, seed=3)
    b = sample_disk_states(disk, 10, seed=3)
    for x, y in zip(a, b):
        np.testing.assert_allclose(x.mat, y.mat)


def test_off_plane_states_are_not_martingale():
    mkt = build_single_period(SPEC)
    rho = DensityState.from_bloch([0.3, 0.0, 0.0])
    assert not is_martingale_state(rho, mkt)


def test_euro_call_hedge():
    beta, gamma = euro_call_replication(SPEC, 100.0)
    assert gamma == pytest.approx(2.0 / 3.0, abs=1e-12)
    assert beta == pytest.approx(-400.0 / 7.0, abs=1e-10)
    # hedge replicates on both spectral branches
    for s1, h in ((90.0, 0.0), (120.0, 20.0)):
        assert beta * 1.05 + gamma * s1 == pytest.approx(h, abs=1e-9)


def test_euro_call_price_value():
    assert euro_call_price(SPEC, 100.0) == pytest.approx(200.0 / 21.0, abs=1e-12)
    assert euro_call_price(SPEC, 0.0) == pytest.approx(100.0)
    assert euro_call_price(SPEC, 120.0) == pytest.approx(0.0, abs=1e-12)
    assert euro_call_price(SPEC, 500.0) == 0.0


def test_price_is_state_independent():
    # every disk state reproduces the closed-form price, whatever its Bloch vector
    mkt = build_single_period(SPEC)
    payoff = apply_function(mkt.assets[0][1], lambda s: max(s - 100.0, 0.0))
    want = euro_call_price(SPEC, 100.0)
    for rho in sample_disk_states(risk_neutral_disk(SPEC), 25, seed=11):
        assert expectation(rho, payoff) / 1.05 == pytest.approx(want, abs=1e-9)


def test_n_period_spec_validation():
    with pytest.raises(ValidationError):
        NPeriodSpec(7, -0.1, 0.2, 0.05, 100.0)
    with pytest.raises(ValidationError):
        NPeriodSpec(2, 0.2, -0.1, 0.05, 100.0)
    with pytest.raises(ValidationError):
        NPeriodSpec(2, -0.1, 0.2, 0.05, 100.0, pauli=((0.15, 0.0, 0.0),))
    with pytest.raises(ValidationError):
        NPeriodSpec(2, -0.1, 0.2, 0.05, 100.0, pauli=((0.1, 0.0, 0.0),) * 2)
    # any direction with the right norm is allowed
    ok = NPeriodSpec(2, -0.1, 0.2, 0.05, 100.0, pauli=((0.0, 0.15, 0.0), (0.0, 0.0, 0.15)))
    assert ok.pauli[1] == (0.0, 0.0, 0.15)


def test_build_n_period_spectrum():
    spec = NPeriodSpec(2, -0.1, 0.2, 0.05, 100.0)
    mkt = build_n_period(spec)
    vals = np.sort(np.linalg.eigvalsh(mkt.assets[0][2]))
    np.testing.assert_allclose(vals, [81.0, 108.0, 108.0, 144.0], atol=1e-9)
    # intermediate asset only depends on the first tensor factor
    assert mkt.filtration[1].contains(mkt.assets[0][1])


def test_build_n_period_matches_single_period():
    spec = NPeriodSpec(1, -0.1, 0.2, 0.05, 100.0, pauli=((0.15, 0.0, 0.0),))
    mkt = build_n_period(spec)
    single = build_single_period(SPEC)
    np.testing.assert_allclose(mkt.assets[0][1], single.assets[0][1], atol=1e-12)
    assert mkt.bank == single.bank


def test_n_period_market_arbitrage_free():
    spec = NPeriodSpec(2, -0.1, 0.2, 0.05, 100.0)
    res = check_no_arbitrage(build_n_period(spec))
    assert res.witness_state is not None
    assert is_faithful(res.witness_state)


def test_product_martingale_state():
    spec = NPeriodSpec(2, -0.1, 0.2, 0.05, 100.0)
    mkt = build_n_period(spec)
    rho = product_martingale_state(spec, [[0.0, 0.3, 0.4], [0.0, -0.5, 0.1]])
    assert is_faithful(rho)
    assert is_martingale_state(rho, mkt, tol=1e-8)
    disc = discount(mkt)
    assert expectation(rho, disc.assets[0][2]) == pytest.approx(100.0, abs=1e-9)
    with pytest.raises(ValidationError):
        product_martingale_state(spec, [[0.1, 0.0, 0.0], [0.0, 0.0, 0.0]])
    with pytest.raises(ValidationError):
        product_martingale_state(spec, [[0.0, 1.0, 0.5], [0.0, 0.0, 0.0]])


def test_complementary_binomial_values():
    assert complementary_binomial(0, 5, 0.3) == pytest.approx(1.0)
    assert complementary_binomial(6, 5, 0.3) == 0.0
    assert complementary_binomial(1, 2, 0.5) == pytest.approx(0.75)
    assert complementary_binomial(3, 3, 0.4) == pytest.approx(0.4 ** 3)
    # complement identity: Psi(m) + P(X < m) = 1
    from math import comb

    n, p, m = 9, 0.37, 4
    below = sum(comb(n, j) * p ** j * (1 - p) ** (n - j) for j in range(m))
    assert complementary_binomial(m, n, p) == pytest.approx(1.0 - below, abs=1e-12)


def test_crr_benchmark_two_periods():
    c = crr_price(2, 100.0, 100.0, 0.05, -0.1, 0.2)
    assert c == pytest.approx(13.605442176870748, abs=1e-9)


def test_crr_against_independent_oracles():
    for n in range(1, 7):
        for k in (60.0, 90.0, 100.0, 110.0, 150.0):
            c = crr_price(n, 100.0, k, 0.05, -0.1, 0.2)
            assert c == pytest.approx(crr_direct_sum(n, 100.0, k, 0.05, -0.1, 0.2), abs=1e-10)
            assert c == pytest.approx(classical_tree_price(n, 100.0, k, 0.05, -0.1, 0.2), abs=1e-10)


def test_crr_matches_tensor_market_expectation():
    for n in (1, 2, 3):
        spec = NPeriodSpec(n, -0.1, 0.2, 0.05, 100.0)
        mkt = build_n_period(spec)
        rho = product_martingale_state(spec, [[0.0, 0.0, 0.0]] * n)
        payoff = apply_function(mkt.assets[0][n], lambda s: max(s - 100.0, 0.0))
        quantum = expectation(rho, payoff) / (1 + 0.05) ** n
        assert quantum == pytest.approx(crr_price(n, 100.0, 100.0, 0.05, -0.1, 0.2), abs=1e-9)


def test_crr_edge_cases():
    assert crr_price(3, 100.0, 0.0, 0.05, -0.1, 0.2) == pytest.approx(100.0)
    # strike above the highest node: worthless
    assert crr_price(2, 100.0, 145.0, 0.05, -0.1, 0.2) == 0.0
    with pytest.raises(ValidationError):
        crr_price(2, 100.0, 100.0, 0.3, -0.1, 0.2)
    with pytest.raises(ValidationError):
        crr_price(0, 100.0, 100.0, 0.05, -0.1, 0.2)
