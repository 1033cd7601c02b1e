import numpy as np
import pytest

from qmarket.errors import InternalConsistencyError, ValidationError
from qmarket.operators import (
    I2,
    SX,
    SY,
    SZ,
    apply_function,
    as_hermitian,
    check_matrix,
    herm_to_vec,
    hs_inner,
    min_eigenvalue,
    pauli_operator,
    spectral_decompose,
    tensor_product,
    vec_to_herm,
)

from conftest import random_hermitian


def test_as_hermitian_rejects_nonhermitian():
    with pytest.raises(ValidationError):
        as_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_as_hermitian_symmetrizes_small_noise():
    m = np.eye(2) + 1e-14 * np.array([[0, 1], [0, 0]])
    h = as_hermitian(m)
    assert np.abs(h - h.conj().T).max() == 0.0


def test_dimension_cap():
    with pytest.raises(ValidationError):
        as_hermitian(np.eye(65))


def test_spectral_sigma_z():
    res = spectral_decompose(SZ)
    assert res.eigenvalues == (-1.0, 1.0)
    np.testing.assert_allclose(res.projections[0], np.diag([0.0, 1.0]), atol=1e-12)
    np.testing.assert_allclose(res.projections[1], np.diag([1.0, 0.0]), atol=1e-12)


def test_spectral_rate_operator():
    # 0.05 I + 0.15 sx has spectrum x0 -/+ |x|
    res = spectral_decompose(pauli_operator(0.05, 0.15, 0.0, 0.0))
    np.testing.assert_allclose(res.eigenvalues, [-0.1, 0.2], atol=1e-12)


def test_spectral_identity_clustering():
    res = spectral_decompose(np.eye(3, dtype=complex))
    assert res.eigenvalues == (1.0,)
    np.testing.assert_allclose(res.projections[0], np.eye(3), atol=1e-12)


def test_spectral_reconstruction_random(rng):
    for dim in (2, 5, 16):
        x = random_hermitian(rng, dim)
        res = spectral_decompose(x)
        assert np.linalg.norm(res.reconstruct() - x) <= 1e-9 * np.linalg.norm(x)
        for i, ei in enumerate(res.projections):
            assert np.abs(ei @ ei - ei).max() <= 1e-10
            for j, ej in enumerate(res.projections):
                if i != j:
                    assert np.linalg.norm(ei @ ej) <= 1e-9
        total = sum(res.projections)
        np.testing.assert_allclose(total, np.eye(dim), atol=1e-10)


def spectral_decompose_oracle(x):
    """The clustering loop that the np.diff cuts replaced, with |X|_2 from an SVD."""
    x = as_hermitian(x)
    vals, vecs = np.linalg.eigh(x)
    cluster_tol = 1e-8 * max(1.0, np.linalg.norm(x, 2))
    eigenvalues, projections = [], []
    i, n = 0, len(vals)
    while i < n:
        j = i + 1
        while j < n and vals[j] - vals[j - 1] <= cluster_tol:
            j += 1
        proj = vecs[:, i:j] @ vecs[:, i:j].conj().T
        eigenvalues.append(float(np.mean(vals[i:j])))
        projections.append(0.5 * (proj + proj.conj().T))
        i = j
    return eigenvalues, projections


def test_spectral_clusters_are_those_of_the_loop(rng):
    # planted clusters: eigenvalues drawn from a few centres, each split by
    # far less than the cluster tolerance, under a random unitary
    for dim in (1, 2, 3, 5, 8, 16, 64):
        for scale in (1e-3, 1.0, 250.0):
            centres = scale * rng.standard_normal(rng.integers(1, dim + 1))
            spread = 1e-11 * max(1.0, scale) * rng.standard_normal(dim)
            u, _ = np.linalg.qr(rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
            x = (u * (rng.choice(centres, dim) + spread)) @ u.conj().T
            got, (vals, projs) = spectral_decompose(x), spectral_decompose_oracle(x)
            assert list(got.eigenvalues) == vals and len(got.projections) == len(projs)
            for e, f in zip(got.projections, projs):
                assert e.tobytes() == f.tobytes()


BAD_ENTRIES = [np.inf, -np.inf, np.nan, complex(0.0, np.inf), complex(1.0, -np.inf), complex(1.0, np.nan)]


@pytest.mark.parametrize("bad", BAD_ENTRIES)
def test_check_matrix_rejects_every_non_finite_entry(bad):
    m = np.eye(3, dtype=complex)
    m[1, 2] = bad
    with pytest.raises(ValidationError, match="matrix has non-finite entries"):
        check_matrix(m)

def test_apply_function_identity(rng):
    x = random_hermitian(rng, 4)
    np.testing.assert_allclose(apply_function(x, lambda s: s), x, atol=1e-9)


def test_apply_function_call_payoff_diagonal():
    x = np.diag([90.0, 120.0]).astype(complex)
    out = apply_function(x, lambda s: max(s - 100.0, 0.0))
    np.testing.assert_allclose(out, np.diag([0.0, 20.0]), atol=1e-9)


def test_apply_function_two_period_tensor_payoff():
    # terminal asset of the 2-period market: spectrum {81, 108, 144}
    a = pauli_operator(0.05, 0.15, 0.0, 0.0)
    s2 = 100.0 * np.kron(I2 + a, I2 + a)
    payoff = apply_function(s2, lambda s: max(s - 100.0, 0.0))
    vals = np.linalg.eigvalsh(payoff)
    np.testing.assert_allclose(sorted(set(np.round(vals, 6))), [0.0, 8.0, 44.0], atol=1e-9)


def test_apply_function_nonfinite_rejected():
    with pytest.raises(ValidationError):
        apply_function(np.diag([0.0, 1.0]).astype(complex), lambda s: 1.0 / s if s else np.inf)


def test_apply_function_composition(rng):
    x = random_hermitian(rng, 5)
    h = lambda s: s + 3.0
    g = lambda s: s * s
    left = apply_function(x, lambda s: g(h(s)))
    right = apply_function(apply_function(x, h), g)
    assert np.linalg.norm(left - right) <= 1e-8 * max(1.0, np.linalg.norm(left))


def test_tensor_identities():
    np.testing.assert_allclose(tensor_product(I2, I2), np.eye(4))
    np.testing.assert_allclose(tensor_product(SZ, I2), np.diag([1.0, 1.0, -1.0, -1.0]))


def test_tensor_trace_multiplicative(rng):
    a = random_hermitian(rng, 3)
    b = random_hermitian(rng, 4)
    assert np.isclose(np.trace(tensor_product(a, b)), np.trace(a) * np.trace(b))


def test_tensor_associative(rng):
    a = random_hermitian(rng, 2)
    b = random_hermitian(rng, 2)
    c = random_hermitian(rng, 3)
    left = tensor_product(tensor_product(a, b), c)
    right = tensor_product(a, tensor_product(b, c))
    np.testing.assert_allclose(left, right, rtol=1e-15, atol=1e-15)


def test_tensor_cap():
    with pytest.raises(ValidationError):
        tensor_product(np.eye(16), np.eye(8))


def test_hs_inner_values():
    assert hs_inner(I2, I2) == pytest.approx(2.0)
    assert hs_inner(SX, SY) == pytest.approx(0.0, abs=1e-12)
    assert hs_inner(SX, SX) == pytest.approx(2.0)


def test_hs_inner_is_inner_product(rng):
    a = random_hermitian(rng, 4)
    b = random_hermitian(rng, 4)
    assert hs_inner(a, b) == pytest.approx(hs_inner(b, a))
    assert hs_inner(a, a) > 0.0


def test_hs_inner_imag_residue_rejected():
    # non-Hermitian pair with genuinely complex trace
    a = np.array([[0, 1], [0, 0]], dtype=complex)
    b = np.array([[0, 0], [1j, 0]], dtype=complex)
    with pytest.raises(InternalConsistencyError):
        hs_inner(a, b)


def test_min_eigenvalue():
    assert min_eigenvalue(np.eye(3)) == pytest.approx(1.0)
    assert min_eigenvalue(SX) == pytest.approx(-1.0)
    u = np.array([1.0, 1.0]) / np.sqrt(2)
    assert min_eigenvalue(np.outer(u, u)) == pytest.approx(0.0, abs=1e-12)


def test_herm_vec_isometry(rng):
    for dim in (2, 3, 7):
        a = random_hermitian(rng, dim)
        b = random_hermitian(rng, dim)
        va, vb = herm_to_vec(a), herm_to_vec(b)
        assert float(va @ vb) == pytest.approx(hs_inner(a, b))
        np.testing.assert_allclose(vec_to_herm(va, dim), a, atol=1e-12)


# --- the concatenate / triangle-assignment maps the gathers replaced ---------


def herm_to_vec_oracle(x):
    x = np.asarray(x, dtype=complex)
    iu, ju = np.triu_indices(x.shape[-1], k=1)
    upper = x[..., iu, ju]
    diag = np.diagonal(x, axis1=-2, axis2=-1).real
    return np.concatenate([diag, np.sqrt(2.0) * upper.real, np.sqrt(2.0) * upper.imag], axis=-1)


def vec_to_herm_oracle(v, d):
    v = np.asarray(v, dtype=float)
    out = np.zeros(v.shape[:-1] + (d, d), dtype=complex)
    diag = np.arange(d)
    out[..., diag, diag] = v[..., :d]
    iu, ju = np.triu_indices(d, k=1)
    m = d * (d - 1) // 2
    upper = (v[..., d : d + m] + 1j * v[..., d + m :]) / np.sqrt(2.0)
    out[..., iu, ju] = upper
    out[..., ju, iu] = upper.conj()
    return out


def test_herm_vec_gathers_are_bit_identical_to_the_oracles(rng):
    for d in range(1, 9):
        for lead in ((), (5,), (2, 3)):
            x = rng.standard_normal(lead + (d, d)) + 1j * rng.standard_normal(lead + (d, d))
            x = x + np.swapaxes(x, -1, -2).conj()
            for arr in (x, np.swapaxes(x, -1, -2)):  # contiguous and strided input
                got, want = herm_to_vec(arr), herm_to_vec_oracle(arr)
                assert got.shape == want.shape and got.tobytes() == want.tobytes()
            v = rng.standard_normal(lead + (d * d,))
            got, want = vec_to_herm(v, d), vec_to_herm_oracle(v, d)
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()
