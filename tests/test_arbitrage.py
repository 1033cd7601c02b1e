import numpy as np
import pytest
import scipy.linalg

import qmarket.arbitrage as arbitrage_mod
from qmarket.arbitrage import (
    CLAIM_PSD_TOL,
    FAITHFUL_STATE_FOUND,
    INDETERMINATE,
    NO_FAITHFUL_STATE,
    MartingaleConstraintSet,
    build_constraints,
    check_no_arbitrage,
    is_martingale_state,
    max_min_eig_over_slice,
)
from qmarket.binomial import NPeriodSpec, QubitMarketSpec, build_n_period, build_single_period
from qmarket.market import Filtration, MarketModel, OperatorAlgebra, discount
from qmarket.operators import (
    SX,
    SY,
    SZ,
    herm_to_vec,
    hs_inner,
    min_eigenvalue,
    vec_to_herm,
)
from qmarket.quantum import DensityState, is_faithful

from conftest import random_hermitian, random_market, random_positive, trinomial_market


def qubit_market(r=0.05):
    return build_single_period(QubitMarketSpec(0.05, 0.15, 0.0, 0.0, r=r, s0=100.0))


# --- the tangent-basis ascent the slice projector replaced: the oracle ------


def tangent_basis_slice(cs):
    """(x0, orthonormal tangent basis of the slice): null_space of [I; K]."""
    eye = herm_to_vec(np.eye(cs.dim, dtype=complex))
    null = scipy.linalg.null_space(np.vstack([eye, cs.vecs]))
    _, perp = cs.identity_split
    return vec_to_herm(perp / (perp @ perp), cs.dim), vec_to_herm(null.T, cs.dim)


def maximize_lambda_min(x0, basis):
    """max lambda_min(x0 + sum_i c_i B_i) over coordinates c: (lambda, c, evals).

    The package's explicit-basis ascent under its old name, on the one L-BFGS
    loop; with tangent_basis_slice it is the ascent the projector replaced.
    With no basis there is nothing to ascend: lambda_min(x0), in no evaluations.
    """
    if len(basis) == 0:
        return float(np.linalg.eigvalsh(x0)[0]), np.zeros(0), 0
    stack = np.asarray(basis, dtype=complex).reshape(len(basis), x0.size)
    scale = max(1.0, float(np.linalg.norm(x0, 2)))
    flat = stack / scale
    _, c, evals = arbitrage_mod.maximize_lambda_min(
        x0 / scale,
        lambda cv: (cv @ flat).reshape(x0.shape),
        lambda w: (flat @ w.conj().reshape(-1)).real,  # tr(B_i W)
        len(flat),
    )
    rho = x0 + (c @ stack).reshape(x0.shape)
    return float(np.linalg.eigvalsh(rho)[0]), c, evals


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
    cs = build_constraints(discount(qubit_market()))
    x0 = cs.slice_point
    assert np.trace(x0).real == pytest.approx(1.0)
    assert abs(hs_inner(x0, cs.operators[0])) <= 1e-10
    # P projects onto the sigma_y, sigma_z directions
    steps = np.array([cs.slice_step(y) for y in rng.standard_normal((6, 4))])
    assert np.linalg.matrix_rank(steps, tol=1e-10) == 2
    for v in steps:
        np.testing.assert_allclose(cs.slice_step(v), v, atol=1e-12)
        b = vec_to_herm(v, 2)
        assert abs(np.trace(b)) <= 1e-10
        assert abs(hs_inner(b, cs.operators[0])) <= 1e-10
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
    cs = build_constraints(discount(qubit_market(r=0.3)))
    proj = sum(hs_inner(claim, g) * g for g in cs.operators)
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
    # zero and the ascent's dual still gives the certificate
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
    cert = res.arbitrage_claim
    assert min_eigenvalue(cert) >= -CLAIM_PSD_TOL
    assert np.trace(cert).real == pytest.approx(1.0, abs=1e-12)
    cs = build_constraints(discount(mkt))
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
    # K is empty: the slice is every state, and the ascent stays at I/d
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
    cs = build_constraints(discount(trinomial_market()))
    for i, gi in enumerate(cs.operators):
        for j, gj in enumerate(cs.operators):
            want = 1.0 if i == j else 0.0
            assert hs_inner(gi, gj) == pytest.approx(want, abs=1e-10)


# --- the certificate against the second ascent it replaced -------------------


def positive_claim_oracle(cs):
    """max lambda_min(k) over {k in span K, tr k = 1}: the deleted second ascent."""
    traces, _ = cs.identity_split  # tr K_i: the K-coordinates of I
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
    cs = build_constraints(discount(mkt))
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


# --- the projector ascent against the tangent-basis ascent -------------------

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

# the full markets put lambda* on a kink so flat that the last smoothing
# stages stop at their iteration cap or in the line search, where rounding
# decides the stopping point: there the two ascents differ by up to 1e-10
KINK_TOL = {f"full{d}": 1e-9 for d in range(3, 9)}


@pytest.mark.parametrize("name", sorted(SLICE_MARKETS))
def test_projector_ascent_matches_tangent_basis_ascent(name):
    # x0 + P(y) over herm-vec y and x0 + sum_i c_i B_i over an orthonormal
    # tangent basis B are the same slice: L-BFGS differs by rounding only
    cs = build_constraints(discount(SLICE_MARKETS[name]()))
    lam_tangent, _, _ = maximize_lambda_min(*tangent_basis_slice(cs))
    res = max_min_eig_over_slice(cs)
    assert res.lambda_star == pytest.approx(lam_tangent, abs=KINK_TOL.get(name, 1e-12))
