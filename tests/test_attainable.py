"""The attainable space: one build per market, both construction routes, strategies."""

import sys
import time

import numpy as np
import pytest

import qmarket.arbitrage as arbitrage_mod
import qmarket.market as market_mod
from qmarket.arbitrage import (
    FAITHFUL_STATE_FOUND,
    build_constraints,
    check_no_arbitrage,
    is_martingale_state,
)
from qmarket.binomial import NPeriodSpec, build_n_period, crr_price
from qmarket.cli import parse_scenario, run
from qmarket.market import (
    Filtration,
    MarketModel,
    OperatorAlgebra,
    attainable_space,
    discount,
    gain_process,
)
from qmarket.operators import apply_function, herm_to_vec
from qmarket.pricing import arbitrage_free_prices, optional_decomposition, price_bounds, replicate

from conftest import random_market

PAULI = [[0.15, 0.0, 0.0], [0.0, 0.15, 0.0], [0.09, 0.0, 0.12]]


def nperiod_market(n, pauli=None):
    spec = NPeriodSpec(n, -0.1, 0.2, 0.05, 100.0, 1.0, pauli or PAULI[:n])
    return discount(build_n_period(spec))


def call_payoff(market, strike):
    """Discounted call on S_T of a discounted nperiod market with r = 0.05."""
    growth = 1.05 ** market.horizon
    return apply_function(growth * market.assets[0][-1], lambda s: max(s - strike, 0.0)) / growth


def projector(space):
    return space.vecs.T @ space.vecs


@pytest.fixture
def count_builds(monkeypatch):
    builds = []

    class Counting(market_mod.AttainableSpace):
        def __init__(self, market):
            builds.append(market)
            super().__init__(market)

    monkeypatch.setattr(market_mod, "AttainableSpace", Counting)
    return builds


def test_arbitrage_free_prices_builds_the_space_once(count_builds):
    mkt = nperiod_market(2)
    cls = arbitrage_free_prices(call_payoff(mkt, 100.0), mkt)
    assert cls.unique_price == pytest.approx(crr_price(2, 100.0, 100.0, 0.05, -0.1, 0.2), abs=1e-9)
    assert len(count_builds) == 1


@pytest.fixture
def count_slices(monkeypatch):
    """Record every martingale_affine_slice call, whichever qmarket module makes it."""
    calls = []
    orig = arbitrage_mod.martingale_affine_slice

    def counting(constraints):
        calls.append(constraints)
        return orig(constraints)

    for name, mod in list(sys.modules.items()):
        if name.startswith("qmarket") and getattr(mod, "martingale_affine_slice", None) is orig:
            monkeypatch.setattr(mod, "martingale_affine_slice", counting)
    return calls


def test_price_bounds_builds_the_affine_slice_once(count_slices):
    mkt = nperiod_market(2)
    claim = call_payoff(mkt, 100.0)
    interval = price_bounds(claim, mkt)
    assert len(count_slices) == 1
    rep = interval.replication
    values = [rep.alpha * np.eye(mkt.dim) + g for g in gain_process(rep.strategy, mkt)]
    optional_decomposition(values, mkt)
    assert len(count_slices) == 1


def test_the_attainable_space_is_the_constraint_set():
    mkt = nperiod_market(2)
    space = attainable_space(mkt)
    assert build_constraints(mkt) is space
    assert len(space) == space.rank == sum(4 ** t for t in range(2))
    x0, basis = space.affine_slice
    assert space.affine_slice[0] is x0
    assert not x0.flags.writeable and not basis.flags.writeable
    # the slice directions are orthogonal to K
    assert np.abs(herm_to_vec(basis) @ space.vecs.T).max() <= 1e-10


def test_undiscounted_market_keeps_its_discounted_copy(count_builds):
    spec = NPeriodSpec(2, -0.1, 0.2, 0.05, 100.0, 1.0, PAULI[:2])
    raw = build_n_period(spec)
    dmkt = discount(raw)
    assert discount(raw) is dmkt and discount(dmkt) is dmkt
    rho = np.eye(4) / 4
    for _ in range(5):
        is_martingale_state(rho, raw)
    check_no_arbitrage(raw)
    assert len(count_builds) == 1


def test_factor_and_dense_routes_give_the_same_projector():
    # the same binomial market with each algebra written as an explicit basis
    for n in (2, 3):
        mkt = nperiod_market(n)
        explicit = Filtration(
            [OperatorAlgebra.trivial(mkt.dim)]
            + [OperatorAlgebra.from_basis(alg.basis) for alg in mkt.filtration.algebras[1:]]
        )
        dense = MarketModel(explicit, mkt.bank, mkt.assets)
        assert not explicit[1].is_factor
        structural, generic = attainable_space(mkt), attainable_space(dense)
        assert structural.rank == generic.rank == sum(4 ** t for t in range(n))
        assert np.abs(projector(structural) - projector(generic)).max() <= 1e-10


def test_space_holds_no_reference_to_its_market():
    mkt = nperiod_market(2)
    space = attainable_space(mkt)
    assert attainable_space(mkt) is space
    seen, todo = set(), [space]
    while todo:
        obj = todo.pop()
        if id(obj) in seen or isinstance(obj, np.ndarray):
            continue
        seen.add(id(obj))
        assert obj is not mkt
        if isinstance(obj, (list, tuple)):
            todo.extend(obj)
        elif hasattr(obj, "__dict__"):
            todo.extend(vars(obj).values())


def _term_bound(market):
    return sum(len(market.filtration[t - 1].basis) for t in range(1, market.horizon + 1))


def test_replicate_strategy_reproduces_the_claim():
    mkt = nperiod_market(3)
    claim = call_payoff(mkt, 105.0)
    rep = replicate(claim, mkt)
    assert rep.attainable
    assert rep.alpha == pytest.approx(crr_price(3, 100.0, 105.0, 0.05, -0.1, 0.2), abs=1e-9)
    gains = gain_process(rep.strategy, mkt)
    np.testing.assert_allclose(rep.alpha * np.eye(mkt.dim) + gains[-1], claim, atol=1e-8)
    assert sum(len(p) for p in rep.strategy.terms.values()) <= _term_bound(mkt)


def test_replicate_strategy_per_asset_bound_random_markets(rng):
    for _ in range(4):
        mkt = random_market(rng, int(rng.integers(2, 5)), 2, n_assets=2)
        space = attainable_space(mkt)
        target = np.tensordot(rng.standard_normal(space.rank), space.operators, axes=1)
        claim = 2.0 * np.eye(mkt.dim) + target
        rep = replicate(claim, mkt)
        assert rep.attainable
        gains = gain_process(rep.strategy, mkt)
        np.testing.assert_allclose(rep.alpha * np.eye(mkt.dim) + gains[-1], claim, atol=1e-8)
        for j in range(mkt.n_assets):
            per_asset = sum(len(p) for (_t, jj), p in rep.strategy.terms.items() if jj == j)
            assert per_asset <= _term_bound(mkt)


def test_dense_route_strategy_reproduces_basis():
    mkt = nperiod_market(2)
    explicit = Filtration(
        [OperatorAlgebra.trivial(4)]
        + [OperatorAlgebra.from_basis(alg.basis) for alg in mkt.filtration.algebras[1:]]
    )
    dense = MarketModel(explicit, mkt.bank, mkt.assets)
    space = attainable_space(dense)
    coeffs = np.linspace(-1.0, 1.0, space.rank)
    gains = gain_process(space.strategy(coeffs), dense)
    np.testing.assert_allclose(
        herm_to_vec(gains[-1]), coeffs @ space.vecs, atol=1e-9
    )


def test_nperiod_4_price_matches_crr():
    y = (
        "market: {kind: nperiod, n: 4, a: -0.1, b: 0.2, r: 0.05, s0: 100.0}\n"
        "claims: [{name: atm, type: call, strike: 100.0}]\n"
    )
    report, code = run("price", parse_scenario(y))
    assert code == 0
    out = report["results"]["atm"]
    want = crr_price(4, 100.0, 100.0, 0.05, -0.1, 0.2)
    assert out["unique_price"] == pytest.approx(want, abs=1e-9)
    assert out["attainable"] and not out["open"]


def test_nperiod_5_check_arbitrage_finishes():
    y = "market: {kind: nperiod, n: 5, a: -0.1, b: 0.2, r: 0.05, s0: 100.0}\n"
    t0 = time.time()
    report, code = run("check-arbitrage", parse_scenario(y))
    elapsed = time.time() - t0
    assert code == 0
    assert report["results"]["status"] == FAITHFUL_STATE_FOUND
    assert report["results"]["lambda_star"] == pytest.approx(1.0 / 32.0, abs=1e-7)
    assert elapsed < 60.0
