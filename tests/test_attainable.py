"""The attainable space: one build per market, both construction routes, strategies."""

import json
import os
import pathlib
import subprocess
import sys
import time

import numpy as np
import pytest
import scipy.linalg

import qmarket.arbitrage as arbitrage_mod
import qmarket.market as market_mod
import qmarket.pricing as pricing_mod
from qmarket.arbitrage import (
    CLAIM_PSD_TOL,
    FAITHFUL_STATE_FOUND,
    NO_FAITHFUL_STATE,
    build_constraints,
    check_no_arbitrage,
    is_martingale_state,
)
from qmarket.binomial import (
    NPeriodSpec,
    QubitMarketSpec,
    build_n_period,
    build_single_period,
    crr_price,
)
from qmarket.cli import parse_scenario, run
from qmarket.errors import InternalConsistencyError
from qmarket.market import (
    Filtration,
    MarketModel,
    OperatorAlgebra,
    attainable_space,
    discount,
    gain_process,
)
from qmarket.operators import SX, apply_function, herm_to_vec
from qmarket.pricing import (
    INTERVAL_WIDTH_TOL,
    _super_hedge,
    arbitrage_free_prices,
    is_complete,
    optional_decomposition,
    price_bounds,
    replicate,
)

from conftest import random_market, trinomial_market

PAULI = [[0.15, 0.0, 0.0], [0.0, 0.15, 0.0], [0.09, 0.0, 0.12]]


def nperiod_market(n, pauli=None):
    spec = NPeriodSpec(n, -0.1, 0.2, 0.05, 100.0, 1.0, pauli or PAULI[:n])
    return discount(build_n_period(spec))


def basis_market(n):
    """nperiod_market(n) with A_1..A_n written as explicit bases: the dense route."""
    mkt = nperiod_market(n)
    explicit = Filtration(
        [OperatorAlgebra.trivial(mkt.dim)]
        + [OperatorAlgebra.from_basis(alg.basis) for alg in mkt.filtration.algebras[1:]]
    )
    return MarketModel(explicit, mkt.bank, mkt.assets)


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


def count_calls(monkeypatch, module, name):
    """Record every call of module.name, whichever qmarket module makes it."""
    calls = []
    orig = getattr(module, name)

    def counting(*args):
        calls.append(args)
        return orig(*args)

    for mod_name, mod in list(sys.modules.items()):
        if mod_name.startswith("qmarket") and getattr(mod, name, None) is orig:
            monkeypatch.setattr(mod, name, counting)
    return calls


def test_only_non_attainable_claims_build_barrier_coordinates(monkeypatch):
    # no null space anywhere: the super-hedge runs over span(I, K), and only
    # for a claim outside it, once per endpoint
    null_spaces = []
    orig = scipy.linalg.null_space

    def counting(*args, **kwargs):
        null_spaces.append(args)
        return orig(*args, **kwargs)

    monkeypatch.setattr(scipy.linalg, "null_space", counting)
    hedges = count_calls(monkeypatch, pricing_mod, "_super_hedge")
    mkt, tri = nperiod_market(2), discount(trinomial_market())
    for m in (mkt, tri):
        assert check_no_arbitrage(m).status == FAITHFUL_STATE_FOUND
    interval = price_bounds(call_payoff(mkt, 100.0), mkt)
    assert interval.attainable and hedges == []
    rep = interval.replication
    values = [rep.alpha * np.eye(mkt.dim) + g for g in gain_process(rep.strategy, mkt)]
    optional_decomposition(values, mkt)
    assert hedges == []
    assert not price_bounds(call_payoff(tri, 100.0), tri).attainable
    assert len(hedges) == 2
    assert null_spaces == []


def test_the_attainable_space_is_the_constraint_set(rng):
    mkt = nperiod_market(2)
    space = attainable_space(mkt)
    assert build_constraints(mkt) is space
    assert len(space) == space.rank == sum(4 ** t for t in range(2))
    x0 = space.slice_point
    assert space.slice_point is x0 and not x0.flags.writeable
    # the slice directions are traceless and orthogonal to K
    eye = herm_to_vec(np.eye(mkt.dim, dtype=complex))
    for y in rng.standard_normal((4, mkt.dim ** 2)):
        step = space.slice_step(y)
        assert abs(step @ eye) <= 1e-10 and np.abs(space.vecs @ step).max() <= 1e-10


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
        mkt, dense = nperiod_market(n), basis_market(n)
        assert not dense.filtration[1].is_factor
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
    dense = basis_market(2)
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


def test_nperiod_5_price_matches_crr():
    y = (
        "market: {kind: nperiod, n: 5, a: -0.1, b: 0.2, r: 0.05, s0: 100.0}\n"
        "claims: [{name: atm, type: call, strike: 100.0}]\n"
    )
    t0 = time.time()
    report, code = run("price", parse_scenario(y))
    elapsed = time.time() - t0
    assert code == 0
    out = report["results"]["atm"]
    assert out["unique_price"] == pytest.approx(crr_price(5, 100.0, 100.0, 0.05, -0.1, 0.2), abs=1e-9)
    assert elapsed < 60.0


ENVELOPE_SCRIPT = """
import json, resource, time
from qmarket.cli import parse_scenario, run
y = (
    "market: {kind: nperiod, n: 6, a: -0.1, b: 0.2, r: 0.05, s0: 100.0}\\n"
    "claims: [{name: atm, type: call, strike: 100.0}]\\n"
)
t0 = time.perf_counter()
check, check_code = run("check-arbitrage", parse_scenario(y))
price, price_code = run("price", parse_scenario(y))
print(json.dumps({
    "wall_s": time.perf_counter() - t0,
    "maxrss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    "codes": [check_code, price_code],
    "status": check["results"]["status"],
    "price": price["results"]["atm"]["unique_price"],
}))
"""


def test_nperiod_6_check_arbitrage_and_price_fit_the_envelope():
    # a fresh process, so the peak resident set is this run's alone
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-c", ENVELOPE_SCRIPT],
        capture_output=True, text=True, env=env, timeout=300, check=True,
    )
    out = json.loads(proc.stdout.splitlines()[-1])
    assert out["codes"] == [0, 0] and out["status"] == FAITHFUL_STATE_FOUND
    assert out["price"] == pytest.approx(crr_price(6, 100.0, 100.0, 0.05, -0.1, 0.2), abs=1e-9)
    assert out["wall_s"] <= 60.0
    assert out["maxrss_mb"] <= 500.0


# --- attainable claims are priced without the super-hedge solve ---------------


def test_attainable_claim_runs_no_barrier(monkeypatch):
    hedges = count_calls(monkeypatch, pricing_mod, "_super_hedge")
    mkt = nperiod_market(2)
    interval = price_bounds(call_payoff(mkt, 100.0), mkt)
    assert interval.attainable and not interval.interval_open
    assert interval.lower == interval.upper
    assert interval.upper == pytest.approx(interval.replication.alpha, abs=1e-9)
    assert interval.witness_states[0] is interval.witness_states[1]
    assert is_martingale_state(interval.witness_states[0], mkt)
    assert hedges == []


def test_no_arbitrage_is_decided_once_per_market(monkeypatch):
    ascents = count_calls(monkeypatch, arbitrage_mod, "maximize_lambda_min")
    mkt = nperiod_market(2)
    for strike in (100.0, 90.0):
        cls = arbitrage_free_prices(call_payoff(mkt, strike), mkt)
        assert cls.unique_price == pytest.approx(
            crr_price(2, 100.0, strike, 0.05, -0.1, 0.2), abs=1e-9
        )
    assert len(ascents) == 1
    assert check_no_arbitrage(mkt) is check_no_arbitrage(mkt)
    assert len(ascents) == 1


def qubit_market():
    return discount(build_single_period(QubitMarketSpec(0.05, 0.15, 0.0, 0.0, r=0.05, s0=100.0)))


ORACLE_MARKETS = {
    "qubit": qubit_market,
    "nperiod2": lambda: nperiod_market(2),
    "nperiod2_basis": lambda: basis_market(2),
    "nperiod3": lambda: nperiod_market(3),
    "trinomial": lambda: discount(trinomial_market()),
}


@pytest.mark.parametrize("name", sorted(ORACLE_MARKETS))
def test_barrier_agrees_with_replication(name):
    # the super-hedge solve, run directly on both signs of the claim, is an
    # independent oracle for the short-circuit: width zero exactly on
    # attainable claims, at alpha
    mkt = ORACLE_MARKETS[name]()
    claim = call_payoff(mkt, 100.0)
    space = attainable_space(mkt)
    upper = _super_hedge(claim, space)[0].alpha
    lower = -_super_hedge(-claim, space)[0].alpha
    interval = price_bounds(claim, mkt)
    scale = max(1.0, abs(upper))
    assert (upper - lower <= INTERVAL_WIDTH_TOL * scale) == interval.attainable
    assert interval.attainable == (name != "trinomial")
    if interval.attainable:
        assert upper == pytest.approx(interval.replication.alpha, abs=1e-6 * scale)
        assert lower == pytest.approx(interval.replication.alpha, abs=1e-6 * scale)
    else:
        assert (interval.lower, interval.upper) == pytest.approx((lower, upper), abs=1e-12)


@pytest.mark.parametrize("name,residual", [("nperiod2", 1.0), ("trinomial", 0.0)])
def test_forged_replication_residual_is_caught(monkeypatch, name, residual):
    mkt = ORACLE_MARKETS[name]()

    def forged(a, market):
        rep = replicate(a, market)
        rep.residual = residual
        return rep

    monkeypatch.setattr(pricing_mod, "replicate", forged)
    with pytest.raises(InternalConsistencyError, match="attainability disagreement"):
        price_bounds(call_payoff(mkt, 100.0), mkt)


# --- one split of I against K: replication, the slice and completeness -------


@pytest.mark.parametrize("name", sorted(ORACLE_MARKETS))
def test_identity_split_matches_least_squares_oracles(name):
    # the solves the split replaced: lstsq over [I | K] for replication, and
    # the least-squares projection of I/d onto the slice for its point x0
    mkt = ORACLE_MARKETS[name]()
    space = attainable_space(mkt)
    claim = call_payoff(mkt, 100.0)
    target = herm_to_vec(claim)
    eye = herm_to_vec(np.eye(mkt.dim, dtype=complex))
    cols = np.column_stack([eye, space.vecs.T])
    coef, *_ = np.linalg.lstsq(cols, target, rcond=None)
    rep = replicate(claim, mkt)
    assert rep.alpha == pytest.approx(coef[0], abs=1e-10)
    assert rep.residual == pytest.approx(np.linalg.norm(cols @ coef - target), abs=1e-10)
    rows = cols.T
    rhs = np.zeros(len(rows))
    rhs[0] = 1.0
    corr, *_ = np.linalg.lstsq(rows, rhs - rows @ eye / mkt.dim, rcond=None)
    np.testing.assert_allclose(
        herm_to_vec(space.slice_point), eye / mkt.dim + corr, atol=1e-10
    )
    report = is_complete(mkt)
    assert report.affine_dim == np.linalg.matrix_rank(rows, tol=1e-9)
    # O(A_T) is spanned by the Hermitian and anti-Hermitian parts of its basis
    parts = [
        herm_to_vec(f(b))
        for b in mkt.filtration[mkt.horizon].basis
        for f in (lambda x: x + x.conj().T, lambda x: 1j * (x - x.conj().T))
    ]
    assert report.observable_dim == np.linalg.matrix_rank(parts, tol=1e-9)


def degenerate_market():
    """d = 2: a qubit asset and a second asset growing by 1.10 against a bank at 1.05.

    The second asset's discounted increment is a multiple of I, so I lies
    in K and no state is a martingale state.
    """
    eye = np.eye(2, dtype=complex)
    filtration = Filtration([OperatorAlgebra.trivial(2), OperatorAlgebra.full(2)])
    qubit = [100.0 * eye, 100.0 * (1.05 * eye + 0.15 * SX)]
    sure = [100.0 * eye, 110.0 * eye]
    return discount(MarketModel(filtration, [1.0, 1.05], [qubit, sure]))


def test_identity_in_the_attainable_space_empties_the_slice():
    mkt = degenerate_market()
    space = attainable_space(mkt)
    assert space.identity_split[1] is None
    assert space.slice_point is None
    res = check_no_arbitrage(mkt)
    assert res.status == NO_FAITHFUL_STATE
    cert = res.arbitrage_claim
    assert np.linalg.eigvalsh(cert)[0] >= -CLAIM_PSD_TOL
    assert np.trace(cert).real == pytest.approx(1.0)
    outside = herm_to_vec(cert) - space.vecs.T @ (space.vecs @ herm_to_vec(cert))
    assert np.linalg.norm(outside) <= 1e-10
    # alpha I + gain is the projection of the claim onto K; with I in K the
    # split is not unique and alpha is 0
    eye = np.eye(2)
    for claim, attainable in ((call_payoff(mkt, 100.0), True), (np.diag([3.0, 1.0]), False)):
        rep = replicate(claim, mkt)
        assert rep.alpha == 0.0 and rep.attainable == attainable
        gain = gain_process(rep.strategy, mkt)[-1]
        assert np.linalg.norm(rep.alpha * eye + gain - claim) == pytest.approx(
            rep.residual, abs=1e-10
        )
    assert replicate(np.diag([3.0, 1.0]), mkt).residual == pytest.approx(np.sqrt(2.0))
    assert is_complete(mkt).affine_dim == space.rank == 2


def test_arbitrage_is_decided_by_one_ascent(monkeypatch):
    # the certificate is the dual of the ascent: no second search for it
    ascents = count_calls(monkeypatch, arbitrage_mod, "maximize_lambda_min")
    above = discount(build_single_period(QubitMarketSpec(0.05, 0.15, 0.0, 0.0, r=0.3, s0=100.0)))
    assert check_no_arbitrage(above).status == NO_FAITHFUL_STATE
    assert len(ascents) == 1
    # with I in K the certificate is I / d and the slice is empty: no ascent
    res = check_no_arbitrage(degenerate_market())
    assert res.status == NO_FAITHFUL_STATE
    np.testing.assert_allclose(res.arbitrage_claim, np.eye(2) / 2, atol=1e-10)
    assert len(ascents) == 1


def test_pricing_builds_no_strategy(monkeypatch):
    # price_bounds and arbitrage_free_prices read alpha and the residual only
    built = []
    orig = market_mod.AttainableSpace.strategy

    def counting(self, coeffs):
        built.append(coeffs)
        return orig(self, coeffs)

    monkeypatch.setattr(market_mod.AttainableSpace, "strategy", counting)
    mkt = nperiod_market(3)
    price_bounds(call_payoff(mkt, 100.0), mkt)
    cls = arbitrage_free_prices(call_payoff(mkt, 105.0), mkt)
    assert built == []
    # the strategy is built on first read, once
    assert cls.replication.strategy is cls.replication.strategy
    assert len(built) == 1


def test_pricing_runs_no_lstsq_or_rank_solve(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("span(I, K) is split once; no solve re-derives it")

    markets = [nperiod_market(2), discount(trinomial_market())]
    monkeypatch.setattr(np.linalg, "lstsq", refuse)
    monkeypatch.setattr(np.linalg, "matrix_rank", refuse)
    for mkt in markets:
        arbitrage_free_prices(call_payoff(mkt, 100.0), mkt)
        assert not is_complete(mkt).complete
