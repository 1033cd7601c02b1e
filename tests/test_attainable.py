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
from hypothesis import example, given, settings
from hypothesis import strategies as st

import qmarket.arbitrage as arbitrage_mod
import qmarket.market as market_mod
import qmarket.pricing as pricing_mod
from qmarket.arbitrage import (
    FAITHFUL_STATE_FOUND,
    FEASIBILITY_THRESHOLD,
    NO_FAITHFUL_STATE,
    WHITEN_ROWS,
    check_no_arbitrage,
    is_martingale_state,
    max_min_eig_over_slice,
)
from qmarket.binomial import (
    NPeriodSpec,
    QubitMarketSpec,
    build_n_period,
    build_single_period,
    crr_price,
    product_martingale_state,
    risk_neutral_disk,
    sample_disk_states,
)
from qmarket.cli import _decompose_values, parse_scenario, run
from qmarket.errors import ArbitrageError, InternalConsistencyError
from qmarket.market import (
    Filtration,
    MarketModel,
    OperatorAlgebra,
    attainable_space,
    discount,
    gain_process,
)
from qmarket.operators import SX, apply_function, herm_to_vec, min_eigenvalue, vec_to_herm
from qmarket.pricing import (
    _super_hedge,
    is_complete,
    optional_decomposition,
    price_bounds,
    replicate,
)

from conftest import PEAK_MB, TWO_PERIOD_CLAIM, random_hermitian, random_market, trinomial_market

PAULI = [[0.15, 0.0, 0.0], [0.0, 0.15, 0.0], [0.09, 0.0, 0.12]]
# widest interval the super-hedge oracle may report for an attainable claim
INTERVAL_WIDTH_TOL = 1e-7
# a certificate's lambda_min over its trace is at least minus this
CLAIM_PSD_TOL = 1e-8


def nperiod_market(n, pauli=None, r=0.05):
    spec = NPeriodSpec(n, -0.1, 0.2, r, 100.0, 1.0, pauli or PAULI[:n])
    return discount(build_n_period(spec))


def basis_market(n, r=0.05, pauli=None):
    """nperiod_market(n, pauli, r) with A_1..A_n written as explicit bases: the dense route."""
    mkt = nperiod_market(n, pauli, r)
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


def test_price_bounds_builds_the_space_once(count_builds):
    mkt = nperiod_market(2)
    cls = price_bounds(call_payoff(mkt, 100.0), mkt)
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
    # for a claim outside it, once for both endpoints
    null_spaces = []
    orig = scipy.linalg.null_space

    def counting(*args, **kwargs):
        null_spaces.append(args)
        return orig(*args, **kwargs)

    monkeypatch.setattr(scipy.linalg, "null_space", counting)
    hedges = count_calls(monkeypatch, pricing_mod, "_super_hedge")
    solves = count_calls(monkeypatch, arbitrage_mod, "newton_core")
    mkt, tri = nperiod_market(2), discount(trinomial_market())
    for m in (mkt, tri):
        assert check_no_arbitrage(m).status == FAITHFUL_STATE_FOUND
    assert len(solves) == 0  # both decisions are closed-form: K factorizes
    interval = price_bounds(call_payoff(mkt, 100.0), mkt)
    assert interval.attainable and hedges == []
    rep = interval.replication
    values = [rep.alpha * np.eye(mkt.dim) + g for g in gain_process(rep.strategy, mkt)]
    optional_decomposition(values, mkt)
    assert hedges == [] and len(solves) == 0
    # one hedge per end: over the trinomial's one-element span without the
    # Newton core, over the N = 2 market's span by one solve per end
    assert not price_bounds(call_payoff(tri, 100.0), tri).attainable
    assert len(hedges) == 2 and len(solves) == 0
    assert not price_bounds(TWO_PERIOD_CLAIM, mkt).attainable
    assert len(hedges) == 4 and len(solves) == 2
    assert null_spaces == []


def full_one_asset_market(d, seed):
    """A discounted single-period market on C^d whose S_1 has a random eigenbasis."""
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
    s1 = (q * np.linspace(90.0, 120.0, d)) @ q.conj().T
    filt = Filtration([OperatorAlgebra.trivial(d), OperatorAlgebra.full(d)])
    return discount(MarketModel(filt, [1.0, 1.05], [[100.0 * np.eye(d), 0.5 * (s1 + s1.conj().T)]]))


def test_only_spans_of_rank_two_or_more_reach_the_newton_super_hedge(monkeypatch):
    # a span of one element is hedged by its one-variable minimisation, in
    # intervals and decompositions alike; wider spans keep the Newton core
    solves = count_calls(monkeypatch, arbitrage_mod, "newton_core")
    minimisations = count_calls(monkeypatch, pricing_mod, "_hedge_one_element")
    tri, full = discount(trinomial_market()), full_one_asset_market(4, 0)
    claims = (call_payoff(tri, 100.0), np.diag([1.0, 2.0, 3.0, 4.0]) + np.kron(SX, SX))
    for mkt, claim in zip((tri, full), claims):
        assert attainable_space(mkt).rank == 1
        iv = price_bounds(claim, mkt)
        assert not iv.attainable and min(iv.steps) > 0
        optional_decomposition([iv.upper * np.eye(mkt.dim), claim], mkt)
    assert len(minimisations) == 6 and len(solves) == 0
    # the N = 2 market: one solve for each of the interval's two ends, and one
    # for the decomposition's second period, whose span has rank 4
    mkt = nperiod_market(2)
    iv = price_bounds(TWO_PERIOD_CLAIM, mkt)
    assert not iv.attainable and len(solves) == 2
    optional_decomposition(_decompose_values(iv, TWO_PERIOD_CLAIM, mkt), mkt)
    assert [p.rank for p in attainable_space(mkt).periods] == [1, 4]
    assert len(solves) == 3 and len(minimisations) == 6


def test_the_attainable_space_is_the_constraint_set(rng):
    mkt = nperiod_market(2)
    space = attainable_space(mkt)
    assert isinstance(space, market_mod.MartingaleConstraintSet)
    assert len(space) == space.rank == sum(4 ** t for t in range(2))
    perp = space.perp
    assert space.perp is perp and not perp.flags.writeable
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


def pauli_direction(z, phi):
    """A unit Pauli direction scaled to (b - a) / 2 = 0.15; uniform on the sphere in (z, phi)."""
    rho = np.sqrt(1.0 - z * z)
    return (0.15 * rho * np.cos(phi), 0.15 * rho * np.sin(phi), 0.15 * z)


PAULI_DIRECTIONS = st.builds(pauli_direction, st.floats(-1.0, 1.0), st.floats(0.0, 2.0 * np.pi))
# inside the band (-0.1, 0.2) or outside it, at least 0.01 from either end
BAND_RATES = st.one_of(st.floats(-0.09, 0.19), st.floats(-0.4, -0.11), st.floats(0.21, 0.5))


@settings(derandomize=True, max_examples=20, deadline=None)
@given(st.lists(PAULI_DIRECTIONS, min_size=2, max_size=2), BAND_RATES, st.integers(0, 2**32 - 1))
@example(PAULI[:2], 0.05, 0)
@example(PAULI[:3], 0.05, 0)
def test_factor_and_dense_routes_give_the_same_projector(pauli, r, seed):
    # the same binomial market with each algebra written as an explicit basis:
    # the same K period by period, one no-arbitrage status from the factor
    # route (closed form at every rate) and the dense one (the Newton core)
    # with overlapping certified intervals, and at N = 2 the same price
    # interval for a claim outside span(I, K)
    n = len(pauli)
    mkt, dense = nperiod_market(n, pauli, r), basis_market(n, r, pauli)
    assert not dense.filtration[1].is_factor
    structural, generic = attainable_space(mkt), attainable_space(dense)
    assert [p.rank for p in structural.periods] == [p.rank for p in generic.periods]
    assert structural.rank == generic.rank == sum(4 ** t for t in range(n))
    assert np.abs(projector(structural) - projector(generic)).max() <= 1e-10
    closed, newton = check_no_arbitrage(mkt), check_no_arbitrage(dense)
    inside = -0.1 < r < 0.2
    assert closed.status == newton.status == (FAITHFUL_STATE_FOUND if inside else NO_FAITHFUL_STATE)
    assert closed.iterations == 0
    (lo, hi), (ref_lo, ref_hi) = closed.lambda_interval, newton.lambda_interval
    assert max(lo, ref_lo) <= min(hi, ref_hi)
    if n != 2:
        return
    claim = random_hermitian(np.random.default_rng(seed), mkt.dim)
    if not inside:
        for m in (mkt, dense):
            with pytest.raises(ArbitrageError):
                price_bounds(claim, m)
        return
    iv, ref = price_bounds(claim, mkt), price_bounds(claim, dense)
    assert not iv.attainable and not ref.attainable
    assert abs(iv.lower - ref.lower) <= iv.gaps[0] + ref.gaps[0]
    assert abs(iv.upper - ref.upper) <= iv.gaps[1] + ref.gaps[1]


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


def _assert_coefficients_over_the_bases(strategy, market):
    """Each h of the strategy is n x n, n = len(A_{t-1}.basis), and Hermitian to 1e-12."""
    assert strategy.coefficients
    for (t, j), h in strategy.coefficients.items():
        assert 1 <= t <= market.horizon and 0 <= j < market.n_assets
        n = len(market.filtration[t - 1].basis)
        assert h.shape == (n, n)
        assert np.abs(h - h.conj().T).max() <= 1e-12 * max(1.0, np.abs(h).max())


def test_replicate_strategy_reproduces_the_claim():
    mkt = nperiod_market(3)
    claim = call_payoff(mkt, 105.0)
    rep = replicate(claim, mkt)
    assert rep.attainable
    assert rep.alpha == pytest.approx(crr_price(3, 100.0, 105.0, 0.05, -0.1, 0.2), abs=1e-9)
    gains = gain_process(rep.strategy, mkt)
    np.testing.assert_allclose(rep.alpha * np.eye(mkt.dim) + gains[-1], claim, atol=1e-8)
    _assert_coefficients_over_the_bases(rep.strategy, mkt)


def test_replicate_strategy_per_asset_bound_random_markets(rng):
    for _ in range(4):
        mkt = random_market(rng, int(rng.integers(2, 5)), 2, n_assets=2)
        space = attainable_space(mkt)
        target = vec_to_herm(rng.standard_normal(space.rank) @ space.vecs, space.dim)
        claim = 2.0 * np.eye(mkt.dim) + target
        rep = replicate(claim, mkt)
        assert rep.attainable
        gains = gain_process(rep.strategy, mkt)
        np.testing.assert_allclose(rep.alpha * np.eye(mkt.dim) + gains[-1], claim, atol=1e-8)
        _assert_coefficients_over_the_bases(rep.strategy, mkt)


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


ENVELOPE_SCRIPT = PEAK_MB + """
import json, time
from qmarket.cli import parse_scenario, run
y = (
    "market: {kind: nperiod, n: 6, a: -0.1, b: 0.2, r: 0.05, s0: 100.0}\\n"
    "claims: [{name: atm, type: call, strike: 100.0}]\\n"
)
t0 = time.perf_counter()
check, check_code = run("check-arbitrage", parse_scenario(y))
check_alone = [time.perf_counter() - t0, peak_mb()]
price, price_code = run("price", parse_scenario(y))
off, off_code = run("check-arbitrage", parse_scenario(y.replace("r: 0.05", "r: 0.0")))
arb, arb_code = run("check-arbitrage", parse_scenario(y.replace("r: 0.05", "r: 0.3")))
print(json.dumps({
    "wall_s": time.perf_counter() - t0,
    "peak_mb": peak_mb(),
    "check_alone": check_alone,
    "codes": [check_code, price_code, off_code, arb_code],
    "status": check["results"]["status"],
    "price": price["results"]["atm"]["unique_price"],
    "off_centre": [off["results"]["status"], off["results"]["lambda_star"],
                   off["diagnostics"]["iterations"]],
    "arbitrage": [arb["results"]["status"], arb["results"]["lambda_star"],
                  arb["diagnostics"]["iterations"]],
}))
"""


def test_nperiod_6_check_arbitrage_and_price_fit_the_envelope():
    # a fresh process, which reports its own peak resident set (VmHWM)
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-c", ENVELOPE_SCRIPT],
        capture_output=True, text=True, env=env, timeout=300, check=True,
    )
    out = json.loads(proc.stdout.splitlines()[-1])
    assert out["codes"] == [0, 0, 0, 0] and out["status"] == FAITHFUL_STATE_FOUND
    assert out["price"] == pytest.approx(crr_price(6, 100.0, 100.0, 0.05, -0.1, 0.2), abs=1e-9)
    # off the centre (r = 0, q = 1/3) K still factorizes: lambda* = min(q, 1 - q)^6 in closed form
    status, lam, steps = out["off_centre"]
    assert status == FAITHFUL_STATE_FOUND and steps == 0
    assert lam == pytest.approx((1.0 / 3.0) ** 6, abs=1e-12)
    # outside the band (r = 0.3, weights -1/3 and 4/3) too: lambda* = (4/3)^5 (-1/3)
    status, lam, steps = out["arbitrage"]
    assert status == NO_FAITHFUL_STATE and steps == 0
    assert lam == pytest.approx(-1024.0 / 729.0, abs=1e-12)
    assert out["wall_s"] <= 60.0
    assert out["peak_mb"] <= 500.0
    # the closed-form decision reads the period rows alone: no SVD of the
    # 1365 x 4096 stacked rows
    check_s, check_mb = out["check_alone"]
    assert check_s <= 1.5 and check_mb <= 260.0


INTERVAL_SCRIPT = PEAK_MB + """
import json, time
import numpy as np
from qmarket.cli import parse_scenario, run
d = 32
m = np.random.default_rng(1).standard_normal((2, d, d))
claim = 0.5 * (m[0] + 1j * m[1] + (m[0] + 1j * m[1]).conj().T)
scenario = json.dumps({
    "market": {"kind": "nperiod", "n": 5, "a": -0.1, "b": 0.2, "r": 0.0, "s0": 100.0},
    "claims": [{"name": "h", "type": "matrix",
                "entries": [[[z.real, z.imag] for z in row] for row in claim]}],
})
t0 = time.perf_counter()
try:
    report, code = run("interval", parse_scenario(scenario))
    result = report["results"]["h"]
except Exception as exc:
    code, result = None, f"{type(exc).__name__}: {exc}"
print(json.dumps({
    "wall_s": time.perf_counter() - t0,
    "peak_mb": peak_mb(),
    "code": code,
    "result": result,
    "norm": float(np.linalg.norm(claim, 2)),
}))
"""


def test_nperiod_5_non_attainable_interval_fits_the_envelope():
    # each end of an N = 5 interval is one Newton solve over the 342
    # coordinates of span(I, K): a fresh process bounds its time and peak
    # resident set, and both ends are certified to the gap
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-c", INTERVAL_SCRIPT],
        capture_output=True, text=True, env=env, timeout=300, check=True,
    )
    out = json.loads(proc.stdout.splitlines()[-1])
    assert out["wall_s"] <= 30.0
    assert out["peak_mb"] <= 250.0
    res = out["result"]
    assert out["code"] == 0, res
    assert not res["attainable"] and res["lower"] < res["upper"]
    assert 0.0 <= min(res["lower_gap"], res["upper_gap"])
    assert max(res["lower_gap"], res["upper_gap"]) <= 1e-10 * out["norm"]


def test_a_super_hedge_over_blocked_whitening_is_certified():
    # an N = 4 span has 85 elements, more than one whitening block, so each
    # Newton step whitens K block by block; both ends are certified, their
    # witnesses are faithful martingale states, and every product
    # martingale state prices the claim inside the interval
    spec = NPeriodSpec(4, -0.1, 0.2, 0.0, 100.0)
    mkt = discount(build_n_period(spec))
    assert attainable_space(mkt).rank == 85 > WHITEN_ROWS
    rng = np.random.default_rng(2)
    claim = random_hermitian(rng, mkt.dim)
    norm = float(np.linalg.norm(claim, 2))
    iv = price_bounds(claim, mkt)
    assert not iv.attainable and iv.lower < iv.upper and min(iv.steps) > 0
    gap_lo, gap_hi = iv.gaps
    assert 0.0 <= gap_lo <= 1e-10 * norm and 0.0 <= gap_hi <= 1e-10 * norm
    for witness, end in zip(iv.witness_states, (iv.lower, iv.upper)):
        assert min_eigenvalue(witness.mat) > 0.0 and is_martingale_state(witness, mkt)
        assert abs(np.trace(witness.mat @ claim).real - end) <= max(iv.gaps) + 1e-12 * norm
    # each period's own risk-neutral disk, sampled as for a one-period market
    disks = [
        risk_neutral_disk(QubitMarketSpec((spec.a + spec.b) / 2.0, *p, spec.r, spec.s0))
        for p in spec.pauli
    ]
    samples = [sample_disk_states(disk, 8, seed) for seed, disk in enumerate(disks)]
    for states in zip(*samples):
        rho = product_martingale_state(spec, [state.bloch_vector() for state in states])
        assert is_martingale_state(rho, mkt)
        assert iv.lower - gap_lo <= np.trace(rho.mat @ claim).real <= iv.upper + gap_hi


# --- attainable claims are priced without the super-hedge solve ---------------


def test_attainable_claim_runs_no_barrier(monkeypatch):
    hedges = count_calls(monkeypatch, pricing_mod, "_super_hedge")
    mkt = nperiod_market(2)
    interval = price_bounds(call_payoff(mkt, 100.0), mkt)
    assert interval.attainable and interval.gaps == (0.0, 0.0)
    assert interval.lower == interval.upper
    assert interval.upper == pytest.approx(interval.replication.alpha, abs=1e-9)
    assert interval.witness_states[0] is interval.witness_states[1]
    assert is_martingale_state(interval.witness_states[0], mkt)
    assert hedges == []


def test_no_arbitrage_is_decided_once_per_market(monkeypatch):
    # K factorizes on the binomial market, so its one decision is the
    # closed-form one, with no solve; that decision serves every later call,
    # pricing's and check_no_arbitrage's alike
    solves = count_calls(monkeypatch, arbitrage_mod, "newton_core")
    decisions = count_calls(monkeypatch, arbitrage_mod, "product_decision")
    mkt = nperiod_market(2)
    for strike in (100.0, 90.0):
        iv = price_bounds(call_payoff(mkt, strike), mkt)
        assert iv.unique_price == pytest.approx(
            crr_price(2, 100.0, strike, 0.05, -0.1, 0.2), abs=1e-9
        )
    assert len(solves) == 0 and len(decisions) == 1
    res = check_no_arbitrage(mkt)
    assert len(solves) == 0 and check_no_arbitrage(mkt) is res
    assert iv.witness_states[0] is res.witness_state
    assert len(solves) == 0 and len(decisions) == 1

    mkt = nperiod_market(2)
    check_no_arbitrage(mkt)
    prices = [price_bounds(call_payoff(mkt, strike), mkt) for strike in (100.0, 90.0)]
    assert len(solves) == 0 and len(decisions) == 2
    assert [(iv.lower, iv.upper) for iv in prices] == [
        (13.605442176870731, 13.605442176870731),
        (20.408163265306104, 20.408163265306104),
    ]

    # on a from_basis filtration K does not factorize: the first price runs
    # the one Newton decision, and check_no_arbitrage returns it
    decisions.clear()
    mkt = basis_market(3, r=0.0)
    iv = price_bounds(call_payoff(mkt, 100.0), mkt)
    assert iv.attainable and len(solves) == 1 and len(decisions) == 1
    res = check_no_arbitrage(mkt)
    assert res.status == FAITHFUL_STATE_FOUND and res.iterations > 0
    assert check_no_arbitrage(mkt) is res and iv.witness_states[0] is res.witness_state
    assert len(solves) == 1 and len(decisions) == 1


@pytest.mark.parametrize("r", [0.0, 0.03, 0.12])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_the_newton_decision_certifies_a_faithful_witness_in_few_steps(n, r):
    # the closed form gives lambda* of the binomial market; the Newton
    # decision must bracket it and certify its witness
    mkt = discount(build_n_period(NPeriodSpec(n, -0.1, 0.2, r, 100.0)))
    cs = attainable_space(mkt)
    res, exact = max_min_eig_over_slice(cs), arbitrage_mod.product_decision(cs)
    assert res.status == exact.status == FAITHFUL_STATE_FOUND
    assert 0 < res.iterations <= 26
    nu, c = res.lambda_interval
    assert FEASIBILITY_THRESHOLD < nu <= exact.lambda_star <= c == res.lambda_star
    assert min_eigenvalue(res.witness_state.mat) >= nu
    assert is_martingale_state(res.witness_state, mkt, tol=1e-12)


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("r", [-0.2, -0.1, 0.2, 0.25], ids=["below", "at_a", "at_b", "above"])
def test_pricing_an_arbitrage_market_raises_the_decisions_certificate(n, r):
    # pricing raises the certificate of the market's one decision
    def market():
        return discount(build_n_period(NPeriodSpec(n, -0.1, 0.2, r, 100.0)))

    mkt = market()
    with pytest.raises(ArbitrageError) as raised:
        price_bounds(call_payoff(mkt, 100.0), mkt)
    res = check_no_arbitrage(market())
    assert res.status == NO_FAITHFUL_STATE
    assert raised.value.certificate.tobytes() == res.arbitrage_claim.tobytes()
    kept = check_no_arbitrage(mkt)
    assert kept.arbitrage_claim is raised.value.certificate


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
    (hi, _, _), (lo, _, _) = _super_hedge(claim, space), _super_hedge(-claim, space)
    upper, lower = hi.alpha, -lo.alpha
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
    split = pricing_mod._split

    def forged(target, space):
        rep = split(target, space)
        rep.residual = residual
        return rep

    monkeypatch.setattr(pricing_mod, "_split", forged)
    with pytest.raises(InternalConsistencyError, match="attainability disagreement"):
        price_bounds(call_payoff(mkt, 100.0), mkt)


def test_price_bounds_splits_the_claim_once(monkeypatch):
    # attainability is read from the one replication: no second projection
    splits = count_calls(monkeypatch, pricing_mod, "_split")
    for mkt, attainable in ((nperiod_market(2), True), (discount(trinomial_market()), False)):
        check_no_arbitrage(mkt)
        splits.clear()
        assert price_bounds(call_payoff(mkt, 100.0), mkt).attainable == attainable
        assert len(splits) == 1


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
    perp = space.perp
    np.testing.assert_allclose(perp / (perp @ perp), eye / mkt.dim + corr, atol=1e-10)
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
    assert space.perp is None
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


def test_arbitrage_is_decided_by_one_newton_solve(monkeypatch):
    # the certificate comes with the decision: no second search for it, and
    # on a qubit market (K of rank one) no solve either
    solves = count_calls(monkeypatch, arbitrage_mod, "newton_core")
    above = discount(build_single_period(QubitMarketSpec(0.05, 0.15, 0.0, 0.0, r=0.3, s0=100.0)))
    assert check_no_arbitrage(above).status == NO_FAITHFUL_STATE
    assert len(solves) == 0
    # with I in K the certificate is I / d and the slice is empty: no solve
    res = check_no_arbitrage(degenerate_market())
    assert res.status == NO_FAITHFUL_STATE
    np.testing.assert_allclose(res.arbitrage_claim, np.eye(2) / 2, atol=1e-10)
    assert len(solves) == 0


def test_pricing_builds_no_strategy(monkeypatch):
    # price_bounds reads alpha and the residual only
    built = []
    orig = market_mod.AttainableSpace.strategy

    def counting(self, coeffs):
        built.append(coeffs)
        return orig(self, coeffs)

    monkeypatch.setattr(market_mod.AttainableSpace, "strategy", counting)
    mkt = nperiod_market(3)
    price_bounds(call_payoff(mkt, 100.0), mkt)
    cls = price_bounds(call_payoff(mkt, 105.0), mkt)
    assert built == []
    # the strategy is built on first read, once
    assert cls.replication.strategy is cls.replication.strategy
    assert len(built) == 1


def test_pricing_runs_no_lstsq_or_rank_solve(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("span(I, K) is split once; no solve re-derives it")

    markets = [nperiod_market(2), discount(trinomial_market()), basis_market(2)]
    monkeypatch.setattr(np.linalg, "lstsq", refuse)
    monkeypatch.setattr(np.linalg, "matrix_rank", refuse)
    for mkt in markets:
        price_bounds(call_payoff(mkt, 100.0), mkt)
        assert not is_complete(mkt).complete
