import json
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmarket.arbitrage import FAITHFUL_STATE_FOUND, NO_FAITHFUL_STATE, check_no_arbitrage
from qmarket.binomial import NPeriodSpec, QubitMarketSpec, build_n_period, build_single_period
from qmarket.cli import build_market, parse_scenario, run
from qmarket.errors import ValidationError
from qmarket.market import (
    SPAN_TOL,
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
from qmarket.operators import (
    I2,
    SX,
    SZ,
    apply_function,
    as_hermitian,
    herm_to_vec,
    hs_inner,
    pauli_operator,
    vec_to_herm,
)
from qmarket.pricing import optional_decomposition, replicate, supermartingale_check
from qmarket.quantum import expectation

from conftest import (
    random_hermitian,
    random_market,
    random_positive,
    random_state,
    random_strategy,
    random_terms,
)

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


@pytest.mark.parametrize("active,dim", [(1, 1), (1, 4), (2, 4), (3, 6), (4, 4), (2, 8), (8, 64)])
def test_factor_basis_is_the_matrix_units_tensor_identity(active, dim):
    # the reference: E_ab (x) I_k for a, b in row-major order, one kron each
    eye_k = np.eye(dim // active, dtype=complex)
    expected = []
    for a in range(active):
        for b in range(active):
            unit = np.zeros((active, active), dtype=complex)
            unit[a, b] = 1.0
            expected.append(np.kron(unit, eye_k))
    basis = OperatorAlgebra.tensor_factor(active, dim).basis
    assert len(basis) == len(expected)
    assert all(x.dtype == complex and np.array_equal(x, y) for x, y in zip(basis, expected))


def test_algebra_explicit_validation():
    a = pauli_operator(0.05, 0.15, 0.0, 0.0)
    alg = OperatorAlgebra.from_basis([I2, a])
    assert alg.contains(a @ a)
    with pytest.raises(ValidationError):
        OperatorAlgebra.from_basis([SX])  # no identity
    with pytest.raises(ValidationError):
        OperatorAlgebra.from_basis([I2, SX, SZ])  # not closed: sx sz outside span


# an explicit algebra is read into an orthonormal frame: no result depends on
# the scale of the matrices its basis is written with
SCALES = [1.0, 1e-6, 1e-12, 1e6, 1e-200, 1e200]
E01 = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)


@pytest.mark.parametrize("scale", SCALES)
def test_a_basis_of_any_scale_spans_its_algebra(scale):
    scalars = OperatorAlgebra.from_basis([scale * I2])
    assert scalars.is_trivial() and scalars.contains(I2) and not scalars.contains(SX)
    np.testing.assert_allclose(np.linalg.norm(scalars.basis[0]), 1.0, atol=1e-12)
    diagonal = OperatorAlgebra.from_basis([scale * I2, scale * SZ])
    assert diagonal.contains(np.diag([3.0, -1.0])) and not diagonal.contains(E01)
    assert Filtration([scalars, diagonal, OperatorAlgebra.full(2)]).horizon == 2


@pytest.mark.parametrize("scale", SCALES)
@pytest.mark.parametrize(
    "mats,message",
    [
        pytest.param([I2, 2.0 * I2], "algebra basis is linearly dependent", id="parallel"),
        pytest.param([I2, 0.0 * I2], "algebra basis is linearly dependent", id="zero"),
        pytest.param([0.0 * I2], "algebra basis is linearly dependent", id="only_zero"),
        pytest.param([I2, SX, SZ, E01, E01.T], "algebra basis is linearly dependent", id="five"),
        pytest.param([SX], "algebra does not contain the identity", id="no_identity"),
        pytest.param([I2, E01], r"not closed under adjoint \(element 1\)", id="adjoint"),
        pytest.param([I2, SX, SZ], r"not closed under products \(elements 1, 2\)", id="products"),
    ],
)
def test_from_basis_refusals_name_the_callers_elements(scale, mats, message):
    with pytest.raises(ValidationError, match=message):
        OperatorAlgebra.from_basis([scale * m for m in mats])


SCALED_SCALARS_YAML = """
market:
  kind: explicit
  dim: 2
  bank: [1.0, 1.5]
  filtration: [{{basis: [[[[{s}, 0.0], [0.0, 0.0]], [[0.0, 0.0], [{s}, 0.0]]]]}}, full]
  assets:
    - - [[[100.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [100.0, 0.0]]]
      - [[[105.0, 0.0], [15.0, 0.0]], [[15.0, 0.0], [105.0, 0.0]]]
"""


def scaled_scalars_yaml(scale):
    """A qubit market at r = 0.5, above its band [-0.1, 0.2], with A_0 written as {scale I}."""
    return SCALED_SCALARS_YAML.format(s=f"{scale:.1e}")


@pytest.mark.parametrize("scale", SCALES)
def test_the_scale_of_a_basis_does_not_move_the_arbitrage_decision(scale):
    # S_1 = 100 (1.05 I + 0.15 sx) has spectrum {90, 120}: discounted by 1.5 it
    # lies below S_0 = 100 I, so -dS is a positive attainable claim
    report, code = run("check-arbitrage", parse_scenario(scaled_scalars_yaml(scale)))
    assert code == 0
    assert report["results"]["status"] == NO_FAITHFUL_STATE
    assert report["results"]["lambda_star"] == pytest.approx(-1.0, abs=1e-9)
    market = build_market(parse_scenario(scaled_scalars_yaml(scale)))[0]
    assert attainable_space(discount(market)).rank == 1


@pytest.mark.parametrize("scale", SCALES)
def test_the_scale_of_a_basis_does_not_move_the_supermartingale_check(scale):
    market = build_market(parse_scenario(scaled_scalars_yaml(scale)))[0]
    assert not supermartingale_check([I2, 2.0 * I2], I2 / 2, market)
    assert supermartingale_check([2.0 * I2, I2], I2 / 2, market)


def lstsq_residual(mats, x):
    """x minus its least-squares projection onto the span of ``mats``.

    The reference for ``contains`` on a ``from_basis`` algebra: least squares
    over the matrices passed in, independent of the algebra's frame.
    """
    cols = np.column_stack([m.reshape(-1) for m in mats])
    coeffs, *_ = np.linalg.lstsq(cols, x.reshape(-1), rcond=None)
    return x - (cols @ coeffs).reshape(x.shape)


def lstsq_contains(mats, x):
    return np.linalg.norm(lstsq_residual(mats, x)) <= SPAN_TOL * max(1.0, np.linalg.norm(x))


def block_algebra_units(blocks, unitary):
    """Matrix units of U (+)_i (M_{m_i} (x) I_{k_i}) U* for blocks [(m_i, k_i)]."""
    d, lo, units = len(unitary), 0, []
    for m, k in blocks:
        for a in range(m):
            for b in range(m):
                x = np.zeros((d, d), dtype=complex)
                x[lo + a * k : lo + (a + 1) * k, lo + b * k : lo + (b + 1) * k] = np.eye(k)
                units.append(unitary @ x @ unitary.conj().T)
        lo += m * k
    return units


BLOCKS = st.lists(st.tuples(st.integers(1, 3), st.integers(1, 2)), min_size=1, max_size=3).filter(
    lambda blocks: sum(m * k for m, k in blocks) <= 6
)


@settings(derandomize=True, max_examples=30, deadline=None)
@given(BLOCKS, st.integers(0, 2**32 - 1))
def test_frame_membership_agrees_with_least_squares(blocks, seed):
    # each algebra is given by a random, non-orthogonal spanning set whose
    # elements are scaled over six decades
    rng = np.random.default_rng(seed)
    d = sum(m * k for m, k in blocks)
    unitary, _ = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
    units = np.array(block_algebra_units(blocks, unitary))
    n = len(units)
    mix = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    mats = list(np.tensordot(mix, units, axes=1) * 10.0 ** rng.uniform(-3, 3, n)[:, None, None])
    alg = OperatorAlgebra.from_basis(mats)
    frame = np.array(alg.basis).reshape(n, -1)
    np.testing.assert_allclose(frame.conj() @ frame.T, np.eye(n), atol=1e-12)
    assert all(np.linalg.norm(lstsq_residual(mats, q)) <= 1e-9 for q in alg.basis)
    for _ in range(3):
        coeffs = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        member = np.tensordot(coeffs, units, axes=1)
        assert alg.contains(member) and lstsq_contains(mats, member)
        x = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        off = lstsq_residual(mats, x)
        assert alg.contains(off) == lstsq_contains(mats, off) == (n == d * d)


DIAGONAL_SCRIPT = """
import json, resource, time
import numpy as np
from qmarket.market import Filtration, OperatorAlgebra
t0 = time.perf_counter()
diagonal = OperatorAlgebra.from_basis([np.diag(e).astype(complex) for e in np.eye(64)])
filtration = Filtration([OperatorAlgebra.trivial(64), diagonal, OperatorAlgebra.full(64)])
print(json.dumps({
    "wall_s": time.perf_counter() - t0,
    "maxrss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    "herm_dims": [a.herm_dim() for a in filtration.algebras],
}))
"""


def test_the_64_element_diagonal_algebra_validates_within_the_envelope():
    # a fresh process, so the peak resident set is this validation's alone
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-c", DIAGONAL_SCRIPT],
        capture_output=True, text=True, env=env, timeout=300, check=True,
    )
    out = json.loads(proc.stdout.splitlines()[-1])
    assert out["herm_dims"] == [1, 64, 64 * 64]
    assert out["wall_s"] <= 10.0
    assert out["maxrss_mb"] <= 200.0


def test_filtration_validation():
    with pytest.raises(ValidationError):
        Filtration([OperatorAlgebra.full(2), OperatorAlgebra.full(2)])
    filt = tensor_qubit_filtration(2)
    assert filt.horizon == 2
    assert filt[0].is_trivial()
    assert filt[1].is_subalgebra_of(filt[2])


def test_factor_algebras_nest_exactly_when_one_size_divides_the_other():
    # B(C^a) (x) I lies in B(C^b) (x) I iff a | b: the structural test against
    # membership of every matrix unit, over the factor algebras of C^12
    algebras = [OperatorAlgebra.tensor_factor(m, 12) for m in (1, 2, 3, 4, 6, 12)]
    for small in algebras:
        for big in algebras:
            members = all(big.contains(x) for x in small.basis)
            assert small.is_subalgebra_of(big) == members == (big.factor_dim % small.factor_dim == 0)


def test_factor_algebras_that_do_not_nest_are_no_filtration():
    two, three = OperatorAlgebra.tensor_factor(2, 6), OperatorAlgebra.tensor_factor(3, 6)
    assert not two.is_subalgebra_of(three)
    with pytest.raises(ValidationError, match="A_1 is not contained in A_2"):
        Filtration([OperatorAlgebra.trivial(6), two, three])
    assert Filtration([OperatorAlgebra.trivial(6), two, OperatorAlgebra.full(6)]).horizon == 2


def test_filtration_reads_triviality_from_the_dimension():
    # an algebra holds I, so it is CI exactly when it is one-dimensional
    top = OperatorAlgebra.full(2)
    assert Filtration([OperatorAlgebra.from_basis([2.0 * I2]), top]).horizon == 1
    diagonal = OperatorAlgebra.from_basis([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])])
    with pytest.raises(ValidationError, match="A_0 must be the scalars CI"):
        Filtration([diagonal, top])


def test_market_validation():
    filt = Filtration([OperatorAlgebra.trivial(2), OperatorAlgebra.full(2)])
    with pytest.raises(ValidationError):
        MarketModel(filt, [1.0, 0.0], [[100 * I2, 100 * I2]])
    with pytest.raises(ValidationError):
        MarketModel(filt, [1.0, 1.0], [[SZ, 100 * I2]])  # not positive
    with pytest.raises(ValidationError):
        MarketModel(filt, [1.0, 1.0], [[100 * SX + 101 * I2, 100 * I2]])  # not adapted at 0


@pytest.mark.parametrize("bank", [[1.0, float("inf")], [float("nan"), 1.05], [1.0, -float("inf")]])
def test_market_rejects_a_non_finite_bank_account(bank):
    filt = Filtration([OperatorAlgebra.trivial(2), OperatorAlgebra.full(2)])
    with pytest.raises(ValidationError, match="bank account must be finite"):
        MarketModel(filt, bank, [[100 * I2, 100 * I2 + 10 * SZ]])


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


def _explicit_market(d, rng):
    filt = Filtration([OperatorAlgebra.trivial(d), OperatorAlgebra.full(d)])
    s1 = random_positive(rng, d, 100.0) + np.eye(d)
    return MarketModel(filt, [1.0, 1.05], [[100.0 * np.eye(d, dtype=complex), s1]])


DISCOUNTED = (
    [pytest.param(lambda: build_single_period(SPEC), id="qubit")]
    + [pytest.param(lambda n=n: build_n_period(NPeriodSpec(n, -0.1, 0.2, 0.05, 100.0)), id=f"N{n}")
       for n in range(1, 5)]
    + [pytest.param(lambda d=d: _explicit_market(d, np.random.default_rng(d)), id=f"explicit{d}")
       for d in range(3, 9)]
)


@pytest.mark.parametrize("build", DISCOUNTED)
def test_discount_divides_the_validated_operators_to_the_bit(build):
    # S_t is exactly Hermitian, so symmetrising S_t / B_t again changes no bit
    mkt = build()
    disc = discount(mkt)
    assert disc.is_discounted() and disc.filtration is mkt.filtration
    for proc, disc_proc in zip(mkt.assets, disc.assets):
        for s, b, q in zip(proc, mkt.bank, disc_proc):
            assert np.array_equal(q, as_hermitian(s / b))


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_discount_refuses_a_quotient_that_overflows():
    mkt = build_single_period(QubitMarketSpec(0.05, 0.15, 0.0, 0.0, r=0.05, s0=1e10, b0=1e-300))
    with pytest.raises(ValidationError):
        discount(mkt)


def test_discount_preserves_martingale_states():
    mkt = build_single_period(SPEC)
    c1 = attainable_space(discount(mkt))
    c2 = attainable_space(discount(discount(mkt)))
    assert len(c1) == len(c2) == 1
    # same one-dimensional span
    g1, g2 = vec_to_herm(c1.vecs[0], 2), vec_to_herm(c2.vecs[0], 2)
    assert abs(abs(hs_inner(g1, g2)) - 1.0) <= 1e-9


def test_qubit_constraint_is_sigma_x():
    cs = attainable_space(qubit_market())
    g = vec_to_herm(cs.vecs[0], 2)
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


def test_strategy_coefficient_of_the_wrong_size_names_both_dimensions():
    h = TradingStrategy({(1, 0): [(1.0, np.eye(3))]})
    with pytest.raises(ValidationError, match="at period 1 is 3 x 3, the market's dimension is 2"):
        gain_process(h, qubit_market())


@pytest.mark.parametrize("j", [3, -1])
def test_a_strategy_on_an_asset_the_market_lacks_is_refused(j):
    mkt = qubit_market()
    with pytest.raises(ValidationError, match=f"strategy asset {j} outside 0..0"):
        gain_process(TradingStrategy({(1, j): [(1.0, I2)]}), mkt)
    with pytest.raises(ValidationError, match=f"strategy asset {j} outside 0..0"):
        value_process([1.0, 1.0], TradingStrategy({(1, j): [(1.0, I2)]}), mkt)


def pair_by_pair_gains(terms, market):
    """The gain process summed pair by pair, sum_k a_k A_k* dS A_k: the reference for folding."""
    d = market.dim
    gains = [np.zeros((d, d), dtype=complex)]
    for t in range(1, market.horizon + 1):
        out = np.zeros((d, d), dtype=complex)
        for j in range(market.n_assets):
            ds = market.increment(j, t)
            for a, mat in terms.get((t, j), []):
                out += a * (mat.conj().T @ ds @ mat)
        gains.append(gains[-1] + 0.5 * (out + out.conj().T))
    return gains


def factor_terms(rng, market):
    """Random pairs (a, Y (x) I_k) over the factor algebras of an N-period market."""
    terms = {}
    for t in range(1, market.horizon + 1):
        m = market.filtration[t - 1].factor_dim
        mats = rng.standard_normal((3, m, m)) + 1j * rng.standard_normal((3, m, m))
        eye = np.eye(market.dim // m)
        terms[(t, 0)] = [(float(rng.standard_normal()), np.kron(y, eye)) for y in mats]
    return terms


def as_frame_market(mkt):
    """The same market with A_1.. given as explicit bases, so their pairs fold over a frame."""
    algebras = mkt.filtration.algebras
    frames = [algebras[0]] + [OperatorAlgebra.from_basis(alg.basis) for alg in algebras[1:]]
    return MarketModel(Filtration(frames), mkt.bank, mkt.assets)


def test_folded_pairs_gain_what_the_pairs_gain(rng):
    markets = [random_market(rng, int(rng.integers(2, 5)), 2, n_assets=2) for _ in range(4)]
    markets += [as_frame_market(mkt) for mkt in markets[:2]]
    cases = [(mkt, random_terms(rng, mkt)) for mkt in markets]
    nperiod = discount(build_n_period(NPeriodSpec(3, -0.1, 0.2, 0.05, 100.0)))
    cases += [(nperiod, factor_terms(rng, nperiod)) for _ in range(3)]
    for mkt, terms in cases:
        gains = gain_process(TradingStrategy(terms), mkt)
        for got, want in zip(gains, pair_by_pair_gains(terms, mkt)):
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * max(1.0, np.abs(want).max()))


def dense_pair_action(hs, xs, basis):
    return sum(h[p, q] * (bp.conj().T @ x @ bq) for h, x in zip(hs, xs)
               for p, bp in enumerate(basis) for q, bq in enumerate(basis))


def pair_action_algebras():
    rng = np.random.default_rng(7)
    unitary, _ = np.linalg.qr(rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5)))
    factors = [
        pytest.param(OperatorAlgebra.tensor_factor(m, m * k), id=f"factor_m{m}_k{k}")
        for m, k in [(1, 3), (2, 1), (2, 2), (3, 2), (2, 4)]
    ]
    return factors + [
        pytest.param(
            OperatorAlgebra.from_basis([np.diag(e).astype(complex) for e in np.eye(4)]),
            id="frame_diagonal",
        ),
        pytest.param(
            OperatorAlgebra.from_basis(block_algebra_units([(2, 1), (1, 3)], unitary)),
            id="frame_block_diagonal",
        ),
    ]


@pytest.mark.parametrize("alg", pair_action_algebras())
def test_pair_action_and_gram_are_the_dense_sums_over_the_basis(alg, rng):
    d, basis = alg.dim, alg.basis
    n = len(basis)
    hs = np.array([random_hermitian(rng, n) for _ in range(2)])
    xs = np.array([random_hermitian(rng, d) for _ in range(2)])
    rho = random_state(rng, d)
    want = dense_pair_action(hs, xs, basis)
    got = alg.pair_action(hs, xs)
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * np.abs(want).max())
    gram = alg.gram(xs[0], rho)
    dense = np.array([[np.trace(rho @ bp.conj().T @ xs[0] @ bq) for bq in basis] for bp in basis])
    np.testing.assert_allclose(gram, dense, rtol=0, atol=1e-12 * np.abs(dense).max())
    # the Gram is the adjoint of the pair action: tr(rho (h # X)) = sum_pq h_pq G_pq
    pairing = np.trace(rho @ alg.pair_action(hs[:1], xs[:1]))
    assert abs(pairing - np.sum(hs[0] * gram)) <= 1e-12 * max(1.0, abs(pairing))


def test_strategies_and_the_supermartingale_check_never_read_the_basis(monkeypatch):
    mkt = discount(build_n_period(NPeriodSpec(3, -0.1, 0.2, 0.0, 100.0)))

    def refuse(self):
        raise AssertionError("OperatorAlgebra.basis was read")

    monkeypatch.setattr(OperatorAlgebra, "basis", property(refuse))
    payoff = apply_function(mkt.assets[0][-1], lambda s: max(s - 100.0, 0.0))
    rep = replicate(payoff, mkt)
    gains = gain_process(rep.strategy, mkt)
    values = [rep.alpha * np.eye(mkt.dim) + g for g in gains[:-1]] + [payoff]
    assert supermartingale_check(values, check_no_arbitrage(mkt).witness_state, mkt)
    dec = optional_decomposition(values, mkt)
    recon = dec.v0 * np.eye(mkt.dim) + gain_process(dec.strategy, mkt)[-1] - dec.consumption[-1]
    np.testing.assert_allclose(recon, payoff, atol=1e-8)


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
