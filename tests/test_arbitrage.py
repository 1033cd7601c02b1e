import functools
import itertools
import warnings

import numpy as np
import pytest
import scipy.linalg
import scipy.optimize
from hypothesis import given, settings
from hypothesis import strategies as st

import qmarket.arbitrage as arbitrage_mod
import qmarket.market as market_mod
from qmarket.arbitrage import (
    FAITHFUL_STATE_FOUND,
    INDETERMINATE,
    NO_FAITHFUL_STATE,
    MartingaleConstraintSet,
    check_no_arbitrage,
    is_martingale_state,
    _factor_pieces,
    max_min_eig_over_slice,
    product_decision,
)
from qmarket.binomial import NPeriodSpec, QubitMarketSpec, build_n_period, build_single_period
from qmarket.errors import ArbitrageError, ValidationError
from qmarket.market import Filtration, MarketModel, OperatorAlgebra, attainable_space, discount
from qmarket.operators import (
    SX,
    SY,
    SZ,
    herm_to_vec,
    hs_inner,
    min_eigenvalue,
    pauli_operator,
    vec_to_herm,
)
from qmarket.pricing import price_bounds
from qmarket.quantum import DensityState, is_faithful

from conftest import random_hermitian, random_market, random_positive, trinomial_market

# a certificate's lambda_min over its trace is at least minus this
CLAIM_PSD_TOL = 1e-8


def qubit_market(r=0.05):
    return build_single_period(QubitMarketSpec(0.05, 0.15, 0.0, 0.0, r=r, s0=100.0))


# --- the smoothed lambda_min ascent the Newton decision replaced: the oracle --


def ascend_lambda_min(x0, span, adjoint, size):
    """Maximize lambda_min(x0 + span(c)) over c in R^size: (lambda, c, evaluations).

    The deleted no-arbitrage ascent: L-BFGS on the smoothed surrogates
    -log sum exp(-beta * spectrum) / beta with beta = 8, 64, ... up to
    1.2e12, 500 iterations per stage (Nesterov, Math. Program. 110, 2007).
    ``adjoint`` maps W to [tr(span(e_i) W)]_i; x0 and span are on a scale
    of about one.
    """

    def objective(c, beta):
        vals, vecs = np.linalg.eigh(x0 + span(c))
        z = np.exp(-beta * (vals - vals[0]))
        weight = (vecs * (z / z.sum())) @ vecs.conj().T
        return -(vals[0] - np.log(z.sum()) / beta), -adjoint(weight)

    c, evals, beta = np.zeros(size), 0, 8.0
    while beta <= 1.2e12 and evals < 50_000:
        res = scipy.optimize.minimize(
            objective, c, args=(beta,), jac=True, method="L-BFGS-B",
            options={"maxiter": 500, "ftol": 1e-18, "gtol": 1e-14},
        )
        c, evals, beta = res.x, evals + res.nfev, beta * 8.0
    return float(np.linalg.eigvalsh(x0 + span(c))[0]), c, evals


def slice_point(cs):
    """x0 = perp / |perp|^2, the projection of I/d onto the slice."""
    return vec_to_herm(cs.perp / (cs.perp @ cs.perp), cs.dim)


def tangent_basis_slice(cs):
    """(x0, orthonormal tangent basis of the slice): null_space of [I; K]."""
    eye = herm_to_vec(np.eye(cs.dim, dtype=complex))
    null = scipy.linalg.null_space(np.vstack([eye, cs.vecs]))
    return slice_point(cs), vec_to_herm(null.T, cs.dim)


def maximize_lambda_min(x0, basis):
    """max lambda_min(x0 + sum_i c_i B_i) over coordinates c: (lambda, c, evals).

    The oracle ascent over an explicit basis; with tangent_basis_slice it
    is the tangent-coordinate ascent over the slice.  With no basis there is
    nothing to ascend: lambda_min(x0), in no evaluations.
    """
    if len(basis) == 0:
        return float(np.linalg.eigvalsh(x0)[0]), np.zeros(0), 0
    stack = np.asarray(basis, dtype=complex).reshape(len(basis), x0.size)
    scale = max(1.0, float(np.linalg.norm(x0, 2)))
    flat = stack / scale
    _, c, evals = ascend_lambda_min(
        x0 / scale,
        lambda cv: (cv @ flat).reshape(x0.shape),
        lambda w: (flat @ w.conj().reshape(-1)).real,  # tr(B_i W)
        len(flat),
    )
    rho = x0 + (c @ stack).reshape(x0.shape)
    return float(np.linalg.eigvalsh(rho)[0]), c, evals


def projector_ascent(cs):
    """The oracle ascent over the slice as x0 + P(y) for herm-vec y, P = cs.slice_step."""
    d, x0 = cs.dim, slice_point(cs)
    scale = max(1.0, float(np.linalg.norm(x0, 2)))
    step = cs.slice_step
    lam, _, _ = ascend_lambda_min(
        x0 / scale, lambda y: vec_to_herm(step(y), d), lambda w: step(herm_to_vec(w)), d * d
    )
    return lam * scale


def operators(cs):
    return vec_to_herm(cs.vecs, cs.dim)


def test_unconstrained_slice_maximally_mixed():
    for d in (2, 3, 5):
        res = max_min_eig_over_slice(MartingaleConstraintSet(d, []))
        assert res.status == FAITHFUL_STATE_FOUND
        assert res.lambda_star == pytest.approx(1.0 / d, abs=1e-9)
        np.testing.assert_allclose(res.witness_state.mat, np.eye(d) / d, atol=1e-7)


def test_maximize_lambda_min_no_basis():
    lam, c, _ = maximize_lambda_min(np.diag([0.2, 0.8]).astype(complex), [])
    assert lam == pytest.approx(0.2)
    assert c.size == 0


def test_maximize_lambda_min_diagonal():
    # max over t of lambda_min(diag(t, 1 - t)) = 1/2
    lam, c, _ = maximize_lambda_min(np.diag([0.0, 1.0]).astype(complex), [SZ / 2 - 0j * SZ])
    assert lam == pytest.approx(0.5, abs=1e-8)


def test_affine_slice_qubit(rng):
    cs = attainable_space(discount(qubit_market()))
    x0 = slice_point(cs)
    assert np.trace(x0).real == pytest.approx(1.0)
    assert abs(hs_inner(x0, operators(cs)[0])) <= 1e-10
    # P projects onto the sigma_y, sigma_z directions
    steps = np.array([cs.slice_step(y) for y in rng.standard_normal((6, 4))])
    assert np.linalg.matrix_rank(steps, tol=1e-10) == 2
    for v in steps:
        np.testing.assert_allclose(cs.slice_step(v), v, atol=1e-12)
        b = vec_to_herm(v, 2)
        assert abs(np.trace(b)) <= 1e-10
        assert abs(hs_inner(b, operators(cs)[0])) <= 1e-10
        assert abs(hs_inner(b, SX)) <= 1e-10


def test_qubit_market_admits_faithful_state():
    res = check_no_arbitrage(qubit_market())
    assert res.status == FAITHFUL_STATE_FOUND
    assert res.lambda_star == pytest.approx(0.5, abs=1e-7)
    assert is_faithful(res.witness_state)
    assert is_martingale_state(res.witness_state, qubit_market())


def test_rate_above_spectrum_gives_arbitrage():
    # r = 0.3 > b = 0.2: bank dominates the asset
    res = check_no_arbitrage(qubit_market(r=0.3))
    assert res.status == NO_FAITHFUL_STATE
    claim = res.arbitrage_claim
    assert claim is not None
    assert np.trace(claim).real == pytest.approx(1.0, abs=1e-8)
    assert min_eigenvalue(claim) >= -1e-8
    # the claim is an attainable gain: lies in the constraint span
    cs = attainable_space(discount(qubit_market(r=0.3)))
    proj = sum(hs_inner(claim, g) * g for g in operators(cs))
    assert np.linalg.norm(proj - claim) <= 1e-6


def test_rate_below_spectrum_gives_arbitrage():
    res = check_no_arbitrage(qubit_market(r=-0.2))
    assert res.status == NO_FAITHFUL_STATE


def test_rate_sweep_matches_spectrum_band():
    a, b = -0.1, 0.2
    for r in (-0.15, -0.05, 0.0, 0.05, 0.15, 0.25):
        res = check_no_arbitrage(qubit_market(r=r))
        if a < r < b:
            assert res.status == FAITHFUL_STATE_FOUND, r
        else:
            assert res.status == NO_FAITHFUL_STATE, r


def test_boundary_rate_is_not_faithful():
    # r == b: martingale states exist but none are faithful; lambda* is
    # zero and the Newton iterate still gives the certificate
    two_period = build_n_period(NPeriodSpec(2, -0.1, 0.2, 0.2, 100.0))
    for mkt in (qubit_market(r=0.2), two_period):
        res = check_no_arbitrage(mkt)
        assert res.status == NO_FAITHFUL_STATE
        assert res.lambda_star <= 1e-6
        assert min_eigenvalue(res.arbitrage_claim) >= -CLAIM_PSD_TOL


BAND_EDGE_MARKETS = {
    **{f"qubit_r{r:+.1f}": (lambda r=r: qubit_market(r=r)) for r in (-0.1, 0.2)},
    **{
        f"nperiod{n}_r{r:+.1f}": (
            lambda n=n, r=r: build_n_period(NPeriodSpec(n, -0.1, 0.2, r, 100.0))
        )
        for n in (2, 3)
        for r in (-0.1, 0.2)
    },
}


@pytest.mark.parametrize("name", sorted(BAND_EDGE_MARKETS))
def test_band_edge_is_decided_with_a_certificate(name):
    # r = a or r = b: +-dS >= 0 is an arbitrage, and lambda* = 0 up to rounding
    mkt = BAND_EDGE_MARKETS[name]()
    res = check_no_arbitrage(mkt)
    assert res.status == NO_FAITHFUL_STATE
    if name.startswith("nperiod2"):
        # the optimum Z is singular here: the least-squares Newton steps reach the gap
        assert res.lambda_star <= 1e-10 and res.note == ""
    cert = res.arbitrage_claim
    assert min_eigenvalue(cert) >= -CLAIM_PSD_TOL
    assert np.trace(cert).real == pytest.approx(1.0, abs=1e-12)
    cs = attainable_space(discount(mkt))
    vec = herm_to_vec(cert)
    assert np.linalg.norm(vec - (cs.vecs @ vec) @ cs.vecs) <= 1e-10


def test_witness_lambda_matches_spectrum():
    mkt = trinomial_market()
    res = check_no_arbitrage(mkt)
    assert res.status == FAITHFUL_STATE_FOUND
    assert min_eigenvalue(res.witness_state.mat) == pytest.approx(
        res.lambda_star, abs=1e-7
    )


def test_static_market_every_state_martingale(rng):
    from qmarket.market import Filtration, MarketModel, OperatorAlgebra

    filt = Filtration([OperatorAlgebra.trivial(2), OperatorAlgebra.full(2)])
    static = MarketModel(filt, [1.0, 1.0], [[100 * np.eye(2), 100 * np.eye(2)]])
    res = check_no_arbitrage(static)
    # K is empty: the slice is every state, and the Newton core stays at I/d
    assert res.status == FAITHFUL_STATE_FOUND
    assert res.lambda_star == 0.5
    np.testing.assert_array_equal(res.witness_state.mat, np.eye(2) / 2)
    from conftest import random_state

    assert is_martingale_state(DensityState(random_state(rng, 2)), static)


def test_is_martingale_state_qubit_plane():
    mkt = qubit_market()
    half = DensityState.maximally_mixed(2)
    assert is_martingale_state(half, mkt)
    tilted = DensityState(0.5 * (np.eye(2) + 0.3 * SY + 0.2 * SZ))
    assert is_martingale_state(tilted, mkt)
    off_plane = DensityState(0.5 * (np.eye(2) + 0.3 * SX))
    assert not is_martingale_state(off_plane, mkt)


def test_is_martingale_state_rejects_a_state_of_another_dimension():
    with pytest.raises(ValidationError, match=r"state is 4 x 4, the market's dimension is 2"):
        is_martingale_state(DensityState.maximally_mixed(4), qubit_market())


def test_is_martingale_state_checks_the_size_before_it_builds_k(monkeypatch):
    import qmarket.arbitrage as arbitrage_mod

    def refuse(market):
        raise AssertionError("a state of the wrong size needs no attainable space")

    monkeypatch.setattr(arbitrage_mod, "attainable_space", refuse)
    with pytest.raises(ValidationError, match=r"state is 3 x 3, the market's dimension is 2"):
        is_martingale_state(np.eye(3) / 3, qubit_market())


def test_is_martingale_state_accepts_undiscounted_input():
    # the check discounts internally, so raw and discounted markets agree
    raw = qubit_market()
    rho = DensityState.maximally_mixed(2)
    assert is_martingale_state(rho, raw) == is_martingale_state(rho, discount(raw))


def test_random_full_algebra_markets_decided(rng):
    for _ in range(8):
        mkt = random_market(rng, int(rng.integers(2, 5)), int(rng.integers(1, 3)))
        res = check_no_arbitrage(mkt)
        assert res.status in (FAITHFUL_STATE_FOUND, NO_FAITHFUL_STATE, INDETERMINATE)
        if res.status == FAITHFUL_STATE_FOUND and res.witness_state is not None:
            assert is_martingale_state(res.witness_state, mkt)
            assert is_faithful(res.witness_state)
        if res.status == NO_FAITHFUL_STATE:
            assert min_eigenvalue(res.arbitrage_claim) >= -1e-8


def test_constraint_operators_orthonormal():
    cs = attainable_space(discount(trinomial_market()))
    for i, gi in enumerate(operators(cs)):
        for j, gj in enumerate(operators(cs)):
            want = 1.0 if i == j else 0.0
            assert hs_inner(gi, gj) == pytest.approx(want, abs=1e-10)


# --- the certificate against the second ascent it replaced -------------------


def positive_claim_oracle(cs):
    """max lambda_min(k) over {k in span K, tr k = 1}: the deleted second ascent."""
    traces = cs.vecs @ herm_to_vec(np.eye(cs.dim, dtype=complex))  # tr K_i: I's K-coordinates
    x0 = vec_to_herm((traces / (traces @ traces)) @ cs.vecs, cs.dim)
    null = scipy.linalg.null_space(traces.reshape(1, -1))
    basis = vec_to_herm(null.T @ cs.vecs, cs.dim)
    lam, c, _ = maximize_lambda_min(x0, basis)
    return x0 + np.tensordot(c, basis, axes=1), lam


def nperiod_arbitrage(n, r, seed):
    """N-period market with r outside [a, b] and random Pauli directions."""
    a, b = -0.1, 0.2
    dirs = np.random.default_rng(seed).standard_normal((n, 3))
    pauli = (b - a) / 2.0 * dirs / np.linalg.norm(dirs, axis=1, keepdims=True)
    return build_n_period(NPeriodSpec(n, a, b, r, 100.0, 1.0, [tuple(p) for p in pauli]))


def explicit_arbitrage(d, diagonal, seed):
    """One period, two assets: dS_1 - dS_2 = G >= 0, dS_2 indefinite."""
    rng = np.random.default_rng(seed)
    if diagonal:
        g = np.diag(rng.uniform(0.0, 1.0, d)).astype(complex)
        h = np.diag(rng.uniform(-1.0, 1.0, d)).astype(complex)
    else:
        g, h = random_positive(rng, d), random_hermitian(rng, d)
    s0 = 10.0 * np.eye(d, dtype=complex)
    filt = Filtration([OperatorAlgebra.trivial(d), OperatorAlgebra.full(d)])
    return MarketModel(filt, [1.0, 1.0], [[s0, s0 + g + h], [s0, s0 + h]])


ARBITRAGE_MARKETS = {
    **{f"qubit_r{r:+.6f}": (lambda r=r: qubit_market(r=r)) for r in (0.3, 0.2 + 1e-6, -0.1 - 1e-6, -0.2)},
    **{
        f"nperiod{n}_r{r:+.2f}": (lambda n=n, r=r: nperiod_arbitrage(n, r, seed=n))
        for n in (2, 3, 4)
        for r in (0.25, -0.2)
    },
    **{
        f"{kind}{d}": (lambda d=d, kind=kind: explicit_arbitrage(d, kind == "diagonal", seed=d))
        for kind in ("diagonal", "full")
        for d in range(3, 9)
    },
}


@pytest.mark.parametrize("name", sorted(ARBITRAGE_MARKETS))
def test_certificate_matches_positive_claim_oracle(name):
    mkt = ARBITRAGE_MARKETS[name]()
    cs = attainable_space(discount(mkt))
    res = check_no_arbitrage(mkt)
    oracle, lam_oracle = positive_claim_oracle(cs)
    assert lam_oracle >= -CLAIM_PSD_TOL  # the deleted search also found a claim
    assert res.status == NO_FAITHFUL_STATE
    cert = res.arbitrage_claim
    lam_cert = min_eigenvalue(cert)
    assert lam_cert >= -CLAIM_PSD_TOL
    assert np.trace(cert).real == pytest.approx(1.0, abs=1e-12)
    vec = herm_to_vec(cert)
    assert np.linalg.norm(vec - (cs.vecs @ vec) @ cs.vecs) <= 1e-10
    if lam_oracle > 0:
        assert lam_cert > 0


def test_undecided_interval_is_indeterminate(monkeypatch):
    # a Newton system that fails at the start, and whose least-squares fallback
    # fails too, leaves [-inf, 1/d]: no sign is certified, and the note says
    # why and where lambda* lies
    cs = attainable_space(discount(qubit_market()))

    def singular(*args, **kwargs):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(np.linalg, "solve", singular)
    monkeypatch.setattr(np.linalg, "pinv", singular)
    res = max_min_eig_over_slice(cs)
    assert res.status == INDETERMINATE
    assert res.witness_state is None and res.arbitrage_claim is None
    assert res.lambda_interval == (-np.inf, 0.5) and res.iterations == 0
    assert res.note == "Newton system is singular at tau=1.0e+00; lambda* in [-inf, 5.000e-01]"


def test_least_squares_newton_steps_decide_as_the_solve_does(monkeypatch):
    # with every Newton system sent to the minimum-norm least-squares step, a
    # nonsingular system is solved to rounding, so the decision is the same
    markets = [qubit_market(), trinomial_market(), qubit_market(r=0.3)]
    want = [max_min_eig_over_slice(attainable_space(discount(m))) for m in markets]

    def singular(*args, **kwargs):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(np.linalg, "solve", singular)
    for mkt, ref in zip(markets, want):
        res = max_min_eig_over_slice(attainable_space(discount(mkt)))
        assert res.status == ref.status and res.note == ""
        assert res.lambda_star == pytest.approx(ref.lambda_star, abs=1e-12)
        assert res.iterations == ref.iterations


def test_inexact_least_squares_steps_certify_nothing(monkeypatch):
    # a least-squares step that misses its system gives a rho with
    # tr(rho B_i) != c_i: its dual is never recorded, so nothing is certified
    # (off the centre, where I / d is not already optimal)
    cs = attainable_space(discount(qubit_market(r=0.0)))
    pinv = np.linalg.pinv

    def singular(*args, **kwargs):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(np.linalg, "solve", singular)
    monkeypatch.setattr(np.linalg, "pinv", lambda h, **kw: 0.5 * pinv(h, **kw))
    res = max_min_eig_over_slice(cs)
    assert res.status == INDETERMINATE and res.witness_state is None
    assert res.lambda_interval[0] == -np.inf


@settings(derandomize=True, max_examples=50, deadline=None)
@given(st.integers(2, 8), st.floats(1e-3, 1e3), st.floats(1e-12, 1.0), st.integers(0, 2**32 - 1))
def test_the_damped_step_of_a_newton_step_still_descends(d, size, tau, seed):
    # along a Newton step with whitened S, c.s = tau (tr S - |S|_F^2); at
    # t = 1 / (1 + |S|_F) every 1 + t mu_i is positive and the line search's
    # descent test holds, so the damped step needs no test of its own
    s = random_hermitian(np.random.default_rng(seed), d)
    s *= size / np.linalg.norm(s)
    mu = np.linalg.eigvalsh(s)
    rate = tau * (np.trace(s).real - np.linalg.norm(s) ** 2)
    t = 1.0 / (1.0 + np.linalg.norm(s))
    assert 1.0 + t * mu[0] > 0.0
    assert rate <= tau * (mu / (1.0 + t * mu)).sum()


def test_a_step_that_misses_its_newton_identity_keeps_the_grid_step(monkeypatch):
    # an ill-conditioned solve at small tau can return a step with
    # c.s != tau (tr S - |S|_F^2), which need not descend up to the damped
    # step; a solve scaled by 1 + 1e-9 misses it everywhere, and the decision
    # takes the 13-14 grid steps it took before the damped step
    def decide(r):
        return max_min_eig_over_slice(attainable_space(discount(qubit_market(r))))

    want = {r: decide(r) for r in (0.0, 0.3)}
    solve = np.linalg.solve
    monkeypatch.setattr(np.linalg, "solve", lambda a, b: solve(a, b) * (1.0 + 1e-9))
    for r, ref in want.items():
        res = decide(r)
        assert res.status == ref.status and ref.iterations == 7 and res.iterations >= 13
        assert res.lambda_star == pytest.approx(ref.lambda_star, abs=1e-10)


def test_an_empty_line_search_grid_leaves_the_decision_indeterminate(monkeypatch):
    # with no trial step the first line search fails: the decision says where,
    # keeps the bracket it has and certifies nothing
    monkeypatch.setattr("qmarket.arbitrage.LINE_GRID", np.empty(0))
    res = max_min_eig_over_slice(attainable_space(discount(trinomial_market(r=0.0))))
    assert res.status == INDETERMINATE and res.iterations == 0
    assert res.note.startswith("line search failed at tau=")
    assert res.witness_state is None and res.arbitrage_claim is None
    assert res.lambda_interval[1] == pytest.approx(1.0 / 3.0, abs=1e-15)


def diagonal_market(d, r):
    """Single-period commutative market diag(100 (1 + rates)) on C^d, rates in [-0.1, 0.2]."""
    rates = np.linspace(-0.1, 0.2, d)
    filt = Filtration([OperatorAlgebra.trivial(d), OperatorAlgebra.full(d)])
    s1 = 100.0 * np.diag(1.0 + rates).astype(complex)
    return MarketModel(filt, [1.0, 1.0 + r], [[100.0 * np.eye(d, dtype=complex), s1]])


ONE_GENERATOR_MARKETS = {  # each band is [-0.1, 0.2]
    "qubit": qubit_market,
    "nperiod1": lambda r: build_n_period(NPeriodSpec(1, -0.1, 0.2, r, 100.0)),
    "trinomial": trinomial_market,
    **{f"diagonal{d}": functools.partial(diagonal_market, d) for d in range(3, 9)},
}


@pytest.mark.parametrize("r", [-0.2, 0.0, 0.03, 0.12, 0.3])
@pytest.mark.parametrize("name", sorted(ONE_GENERATOR_MARKETS))
def test_one_generator_decisions_take_few_newton_steps(name, r):
    # with the damped step a tau stage takes about one Newton step; on the
    # grid step alone these decisions took 12-16
    res = max_min_eig_over_slice(attainable_space(discount(ONE_GENERATOR_MARKETS[name](r))))
    assert res.status == (FAITHFUL_STATE_FOUND if -0.1 < r < 0.2 else NO_FAITHFUL_STATE)
    most = 8 if name in ("qubit", "nperiod1") else 10
    assert 1 <= res.iterations <= most


# --- lambda* against the oracle ascent -----------------------------------------

PAULI = [[0.15, 0.0, 0.0], [0.0, 0.15, 0.0], [0.09, 0.0, 0.12], [0.0, 0.09, 0.12]]

SLICE_MARKETS = {
    "qubit": qubit_market,
    "trinomial": trinomial_market,
    **{
        f"nperiod{n}{'_pauli' if pauli else ''}_r{r:.2f}": (
            lambda n=n, pauli=pauli, r=r: build_n_period(
                NPeriodSpec(n, -0.1, 0.2, r, 100.0, 1.0, PAULI[:n] if pauli else None)
            )
        )
        for n in (2, 3, 4)
        for pauli in (False, True)
        for r in (0.05, 0.25)
    },
    **{
        f"{kind}{d}": (lambda d=d, kind=kind: explicit_arbitrage(d, kind == "diagonal", seed=d))
        for kind in ("diagonal", "full")
        for d in range(3, 9)
    },
}

ALL_MARKETS = {**SLICE_MARKETS, **ARBITRAGE_MARKETS}

# the full markets put lambda* on a kink so flat that the oracle's last
# smoothing stages stop at their iteration cap or in the line search, where
# rounding decides the stopping point: there its two forms differ by up to 1e-10
KINK_TOL = {f"full{d}": 1e-9 for d in range(3, 9)}


@functools.lru_cache(maxsize=None)
def tangent_lambda(name):
    """The oracle ascent's lambda* in tangent coordinates, once per market name."""
    cs = attainable_space(discount(ALL_MARKETS[name]()))
    return maximize_lambda_min(*tangent_basis_slice(cs))[0]


@pytest.mark.parametrize("name", sorted(SLICE_MARKETS))
def test_projector_ascent_matches_tangent_basis_ascent(name):
    # x0 + P(y) over herm-vec y, P the slice_step projector, and x0 + sum_i c_i B_i
    # over an orthonormal tangent basis B are the same slice: the oracle ascent
    # differs by rounding only
    cs = attainable_space(discount(SLICE_MARKETS[name]()))
    assert projector_ascent(cs) == pytest.approx(tangent_lambda(name), abs=KINK_TOL.get(name, 1e-12))


@pytest.mark.parametrize("name", sorted(ALL_MARKETS))
def test_newton_interval_brackets_the_oracle_lambda(name):
    # [nu, c] is certified: the oracle's lambda* lies in it, and it is at most
    # 1e-9 wide wherever the solve reached its gap (no failure in the note)
    res = max_min_eig_over_slice(attainable_space(discount(ALL_MARKETS[name]())))
    nu, c = res.lambda_interval
    assert res.lambda_star == c
    assert nu - 1e-9 <= tangent_lambda(name) <= c + 1e-9
    if res.note == "":
        assert c - nu <= 1e-9


def test_newton_decision_settles_where_the_ascent_stalled():
    # S_1 = P + 0.1 I on C^3 (conftest's random_positive, seed 1411302): the
    # ascent stopped at 0.1301461; the market padded by (x) I_2 gives twice
    # 0.0650919, and the Newton decision reaches that value
    filt = Filtration([OperatorAlgebra.trivial(3), OperatorAlgebra.full(3)])
    s1 = random_positive(np.random.default_rng(1411302), 3) + 0.1 * np.eye(3)
    mkt = MarketModel(filt, [1.0, 1.0], [[np.eye(3, dtype=complex), s1]])
    res = max_min_eig_over_slice(attainable_space(discount(mkt)))
    assert res.status == FAITHFUL_STATE_FOUND and res.note == ""
    assert res.lambda_star == pytest.approx(0.1301837403, abs=1e-9)
    assert min_eigenvalue(res.witness_state.mat) == pytest.approx(res.lambda_star, abs=1e-9)
    assert is_martingale_state(res.witness_state, mkt, tol=1e-8)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_lambda_star_matches_the_closed_form_off_centre(n):
    # the product of per-period risk-neutral disk states is optimal:
    # lambda* = min(q, 1 - q)^N with q = (r - a) / (b - a), for any directions
    a, b = -0.1, 0.2
    dirs = np.random.default_rng(100 + n).standard_normal((n, 3))
    pauli = [tuple(p) for p in (b - a) / 2.0 * dirs / np.linalg.norm(dirs, axis=1, keepdims=True)]
    for r in (0.0, 0.14):
        mkt = build_n_period(NPeriodSpec(n, a, b, r, 100.0, 1.0, pauli))
        res = check_no_arbitrage(mkt)
        q = (r - a) / (b - a)
        assert res.status == FAITHFUL_STATE_FOUND
        assert res.lambda_star == pytest.approx(min(q, 1.0 - q) ** n, abs=1e-9)
        assert res.witness_residual <= 1e-8
        assert is_martingale_state(res.witness_state, mkt, tol=1e-8)


# --- the closed-form decision against the Newton decision ----------------------

RATE_PLACES = ["inside", "at_a", "at_b", "below", "above"]


def place_rate(where, a, b, u):
    """A rate inside (a, b), on one of its ends or outside it, placed by u in [0, 1]."""
    return {
        "inside": a + (0.05 + 0.9 * u) * (b - a),
        "at_a": a,
        "at_b": b,
        "below": a - (0.01 + u) * (b - a),
        "above": b + (0.01 + u) * (b - a),
    }[where]


def random_single_period(d, where, seed):
    """One asset on C^d: S_1 = s0 U diag(1 + rates) U*, with the rate placed against the band."""
    rng = np.random.default_rng(seed)
    rates = rng.uniform(-0.2, 0.3, d)
    u, _ = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
    s1 = 100.0 * (u * (1.0 + rates)) @ u.conj().T
    r = place_rate(where, rates.min(), rates.max(), rng.uniform())
    filt = Filtration([OperatorAlgebra.trivial(d), OperatorAlgebra.full(d)])
    return MarketModel(filt, [1.0, 1.0 + r], [[100.0 * np.eye(d, dtype=complex), s1]])


def random_nperiod(n, where, seed):
    """An N-period binomial market with random Pauli directions, a = -0.1, b = 0.2."""
    rng = np.random.default_rng(seed)
    dirs = rng.standard_normal((n, 3))
    pauli = 0.15 * dirs / np.linalg.norm(dirs, axis=1, keepdims=True)
    r = place_rate(where, -0.1, 0.2, rng.uniform())
    return build_n_period(NPeriodSpec(n, -0.1, 0.2, r, 100.0, 1.0, [tuple(p) for p in pauli]))


def assert_closed_form_agrees_with_newton(mkt):
    cs = attainable_space(discount(mkt))
    res, ref = check_no_arbitrage(mkt), max_min_eig_over_slice(cs)
    assert res.status == ref.status
    nu, c = ref.lambda_interval
    assert nu - 1e-10 <= res.lambda_star <= c + 1e-10
    lo, hi = res.lambda_interval
    assert lo <= hi == res.lambda_star
    if res.witness_state is not None:
        assert res.witness_residual <= 1e-12
        assert min_eigenvalue(res.witness_state.mat) >= lo
    if res.arbitrage_claim is not None:
        cert = res.arbitrage_claim
        assert min_eigenvalue(cert) >= -CLAIM_PSD_TOL
        vec = herm_to_vec(cert)
        assert np.linalg.norm(vec - (cs.vecs @ vec) @ cs.vecs) <= 1e-10
    return res


@settings(derandomize=True, max_examples=80, deadline=None)
@given(st.integers(2, 8), st.sampled_from(RATE_PLACES), st.integers(0, 2**32 - 1))
def test_closed_form_decision_of_a_one_asset_period_matches_newton(d, where, seed):
    # K has rank one: the closed form is exact for either sign, with no step
    res = assert_closed_form_agrees_with_newton(random_single_period(d, where, seed))
    assert res.iterations == 0


@settings(derandomize=True, max_examples=40, deadline=None)
@given(st.integers(1, 4), st.sampled_from(RATE_PLACES), st.integers(0, 2**32 - 1))
def test_closed_form_decision_of_a_binomial_tensor_market_matches_newton(n, where, seed):
    # every period is a qubit piece whose two end bounds are its D_t's
    # eigenprojectors: the least product of end values is lambda_min of the
    # product state, so the closed form decides at any rate, outside the band too
    res = assert_closed_form_agrees_with_newton(random_nperiod(n, where, seed))
    assert res.iterations == 0


@pytest.mark.parametrize("where", ["inside", "at_b", "above"])
def test_a_from_basis_filtration_keeps_the_newton_decision(where):
    # the same two-period market with A_1, A_2 written as explicit bases:
    # no factor structure to read, so the solver decides, and agrees with the
    # closed form of the factor market at every rate
    mkt = random_nperiod(2, where, seed=7)
    dense = MarketModel(
        Filtration(
            [OperatorAlgebra.trivial(4)]
            + [OperatorAlgebra.from_basis(alg.basis) for alg in mkt.filtration.algebras[1:]]
        ),
        mkt.bank, mkt.assets,
    )
    res, ref = check_no_arbitrage(dense), check_no_arbitrage(mkt)
    assert res.iterations > 0 and ref.iterations == 0
    assert res.status == ref.status
    assert res.lambda_star == pytest.approx(ref.lambda_star, abs=1e-9)


def near_factor_market(off):
    """N = 2 binomial market at r = 0 on factors (1, 2, 4), S_1 off A_1 = M_2 (x) I by off sx (x) sz.

    Period 2 adds the increment 100 U (x) (U - I) of the exact market, so its
    W_2 holds one element of the form D_2 (x) I either way.
    """
    up = np.eye(2) + pauli_operator(0.05, 0.15, 0.0, 0.0)
    algebras = [OperatorAlgebra.trivial(4), OperatorAlgebra.tensor_factor(2, 4), OperatorAlgebra.full(4)]
    s1 = 100.0 * np.kron(up, np.eye(2)) + off * np.kron(SX, SZ)
    s2 = s1 + 100.0 * np.kron(up, up - np.eye(2))
    return MarketModel(Filtration(algebras), [1.0] * 3, [[100.0 * np.eye(4), s1, s2]])


def test_a_period_element_that_is_not_d_tensor_i_goes_to_the_newton_core():
    # 5e-8 sx (x) sz is within the adaptedness tolerance, so the market is
    # accepted, but period 1's element is no D_1 (x) I to SPAN_TOL: the closed
    # form declines it and the Newton core decides, as the exact market's closed form
    mkt, exact = near_factor_market(5e-8), near_factor_market(0.0)
    cs = attainable_space(discount(mkt))
    assert [len(period.w) for period in cs.periods] == [1, 1]
    assert _factor_pieces(cs) is None and product_decision(cs) is None
    res, ref = check_no_arbitrage(mkt), check_no_arbitrage(exact)
    assert res.iterations > 0 and ref.iterations == 0
    assert res.status == ref.status == FAITHFUL_STATE_FOUND
    assert ref.lambda_star == pytest.approx(1.0 / 9.0, abs=1e-12)
    assert res.lambda_star == pytest.approx(ref.lambda_star, abs=1e-6)


def test_the_newton_core_stops_at_its_step_cap(monkeypatch):
    # the Newton decision of the market above certifies in 18 steps; capped at
    # 2 it has no centred iterate, so the interval straddles the threshold
    monkeypatch.setattr(arbitrage_mod, "NEWTON_STEPS", 2)
    res = check_no_arbitrage(near_factor_market(5e-8))
    assert res.status == INDETERMINATE and res.iterations == 2
    assert res.note.startswith("no convergence in 2 Newton steps; lambda* in [")

def binomial_spec(n, r, direction):
    """An N-period spec on the band [-0.1, 0.2]: the default x axis or seeded random Pauli directions."""
    pauli = None
    if direction == "random":
        dirs = np.random.default_rng(n).standard_normal((n, 3))
        pauli = [tuple(p) for p in 0.15 * dirs / np.linalg.norm(dirs, axis=1, keepdims=True)]
    return NPeriodSpec(n, -0.1, 0.2, r, 100.0, 1.0, pauli)


def least_path_product(spec):
    """min over the 2^N paths of prod_t q_t, q_t = (g_2, -g_1) / (g_2 - g_1) the weights of period t.

    g_1 < g_2 are the eigenvalues of the period's discounted increment
    D_t = (I + A_t) / (1 + r) - I, up to a positive factor.
    """
    weights = []
    for t in range(spec.n_periods):
        g = np.linalg.eigvalsh((np.eye(2) + spec.rate_operator(t)) / (1.0 + spec.r) - np.eye(2))
        weights.append((g[1] / (g[1] - g[0]), -g[0] / (g[1] - g[0])))
    paths = itertools.product((0, 1), repeat=spec.n_periods)
    return min(np.prod([w[k] for w, k in zip(weights, path)]) for path in paths)


@pytest.mark.parametrize("direction", ["axis", "random"])
@pytest.mark.parametrize("r", [-0.5, -0.2, 0.25, 0.3, 0.5])
@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_a_binomial_market_outside_its_band_is_decided_in_closed_form(n, r, direction):
    # outside the band one end value of every period is negative; the least
    # product over ends is the least path product of the per-period weights,
    # lambda_min of the product state too, so the bracket closes with no
    # Newton step, inside the Newton decision's certified interval
    spec = binomial_spec(n, r, direction)
    mkt = build_n_period(spec)
    cs = attainable_space(discount(mkt))
    res = check_no_arbitrage(mkt)
    assert res.status == NO_FAITHFUL_STATE and res.iterations == 0
    assert res.lambda_star == pytest.approx(least_path_product(spec), abs=1e-12)
    nu, c = max_min_eig_over_slice(cs).lambda_interval
    assert nu - 1e-9 <= res.lambda_star <= c + 1e-9
    cert = res.arbitrage_claim
    assert np.trace(cert).real == pytest.approx(1.0, abs=1e-12)
    assert min_eigenvalue(cert) > 0.0
    vec = herm_to_vec(cert)
    assert np.linalg.norm(vec - (cs.vecs @ vec) @ cs.vecs) <= 1e-10


# the quiet period, and the factor pieces (size, without an element) it leaves
@pytest.mark.parametrize("quiet,pieces", [(2, [(4, False)]), (1, [(2, True), (2, False)])])
def test_a_quiet_period_is_decided_in_closed_form(quiet, pieces):
    # a two-period factor market on C^2 (x) C^2 whose asset does not move in
    # one period: a quiet second period leaves K of rank one, one piece; a
    # quiet first period is its own piece with no element, of optimum 1/2.
    # Either way lambda* = 1/2 * 1/3 with no Newton step, inside the Newton
    # decision's certified interval
    eye = np.eye(2)
    filt = Filtration([OperatorAlgebra.tensor_factor(k, 4) for k in (1, 2, 4)])
    s1 = np.kron(eye + 0.05 * eye + 0.15 * SX, eye)
    s2 = np.kron(eye, eye + 0.05 * eye + 0.15 * SZ)
    path = [np.eye(4), s1, s1] if quiet == 2 else [np.eye(4), np.eye(4), s2]
    cs = attainable_space(MarketModel(filt, [1.0, 1.0, 1.0], [path]))
    assert [(n, d_t is None) for n, d_t in _factor_pieces(cs)] == pieces
    res, ref = product_decision(cs), max_min_eig_over_slice(cs)
    assert res.status == ref.status == FAITHFUL_STATE_FOUND and res.iterations == 0
    assert res.lambda_star == pytest.approx(1.0 / 6.0, abs=1e-15)
    nu, c = ref.lambda_interval
    assert ref.iterations > 0 and nu <= res.lambda_star <= c


def test_a_qutrit_piece_beside_a_period_outside_its_band_keeps_the_newton_decision():
    # C^6 = C^2 (x) C^3 at r = 0.25: period 1 has rates 0.05 I + 0.15 sx,
    # outside its band (weights -1/6 and 7/6), period 2 diag(0.1, 0.3, 0.5),
    # inside it (end values 1/4 and 5/12).  The least product over ends,
    # -1/6 * 5/12 = -5/72, bounds lambda* from above, but the qutrit's ends
    # are no eigenprojectors of its D: the product state's lambda_min is
    # -1/6 * 1/2, the bracket stays open and the Newton core decides
    filt = Filtration([OperatorAlgebra.tensor_factor(k, 6) for k in (1, 2, 6)])
    s1 = np.kron(np.eye(2) + 0.05 * np.eye(2) + 0.15 * SX, np.eye(3))
    s2 = s1 @ np.kron(np.eye(2), np.eye(3) + np.diag([0.1, 0.3, 0.5]))
    mkt = MarketModel(filt, [1.0, 1.25, 1.25**2], [[np.eye(6), s1, s2]])
    cs = attainable_space(discount(mkt))
    assert [n for n, _ in _factor_pieces(cs)] == [2, 3]
    assert product_decision(cs) is None
    res = check_no_arbitrage(mkt)
    assert res.status == NO_FAITHFUL_STATE and res.iterations > 0 and res.note == ""
    nu, c = res.lambda_interval
    assert nu - 1e-9 <= -5.0 / 72.0 <= c + 1e-9


@pytest.mark.parametrize("direction", ["axis", "random"])
@pytest.mark.parametrize("r", [0.05, 0.3])
@pytest.mark.parametrize("n", [3, 4])
def test_the_decision_builds_no_stacked_basis(monkeypatch, n, r, direction):
    # the closed-form decision and the martingale-state test read the period
    # rows alone; the SVD of the stacked rows is taken once, when a
    # projection onto K (the replication in price_bounds) first reads vecs
    shapes = []
    svd = market_mod._orthonormal_rows
    monkeypatch.setattr(
        market_mod, "_orthonormal_rows", lambda mat: shapes.append(mat.shape) or svd(mat)
    )
    mkt = build_n_period(binomial_spec(n, r, direction))
    res = check_no_arbitrage(mkt)
    free = res.status == FAITHFUL_STATE_FOUND
    assert res.iterations == 0 and free == (r == 0.05)
    state = res.witness_state if free else DensityState(np.eye(mkt.dim) / mkt.dim)
    assert is_martingale_state(state, mkt) == free
    dmkt = discount(mkt)
    stacked = attainable_space(dmkt).rows.shape
    assert stacked == (sum(4 ** t for t in range(n)), mkt.dim ** 2) and stacked not in shapes
    # S_T is S_0 plus a gain: its price is S_0, or there is none under arbitrage
    if free:
        assert price_bounds(dmkt.assets[0][-1], dmkt).unique_price == pytest.approx(100.0)
    else:
        with pytest.raises(ArbitrageError):
            price_bounds(dmkt.assets[0][-1], dmkt)
    assert shapes.count(stacked) == 1


def factor_market_with_a_sure_period():
    """C^4 = C^2 (x) C^2 whose asset grows by a sure 1.1 in period 2: D_2 is a multiple of I."""
    eye = np.eye(2)
    filt = Filtration([OperatorAlgebra.tensor_factor(k, 4) for k in (1, 2, 4)])
    s1 = 100.0 * np.kron(1.05 * eye + 0.15 * SX, eye)
    return MarketModel(filt, [1.0, 1.05, 1.05**2], [[100.0 * np.eye(4), s1, 1.1 * s1]])


def sure_growth_market():
    """One period on C^3 whose single asset grows by a sure 1.1: K is spanned by I."""
    filt = Filtration([OperatorAlgebra.trivial(3), OperatorAlgebra.full(3)])
    return MarketModel(filt, [1.0, 1.05], [[100.0 * np.eye(3), 110.0 * np.eye(3)]])


@pytest.mark.parametrize("build", [factor_market_with_a_sure_period, sure_growth_market])
def test_identity_in_a_factorized_k_is_left_to_the_empty_slice_check(build):
    # K factorizes, but one piece's D is a multiple of I, so I lies in K: the
    # closed form declines without dividing by zero, and the empty slice
    # gives the certificate I / d with no Newton step
    mkt = build()
    cs = attainable_space(discount(mkt))
    assert _factor_pieces(cs) is not None
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert product_decision(cs) is None
        res = check_no_arbitrage(mkt)
    assert res.status == NO_FAITHFUL_STATE and res.iterations == 0
    assert res.note == "affine set empty"
    np.testing.assert_array_equal(res.arbitrage_claim, np.eye(mkt.dim) / mkt.dim)
