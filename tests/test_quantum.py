import numpy as np
import pytest

import qmarket.operators as operators_mod
import qmarket.quantum as quantum_mod
from qmarket.errors import SolverError, ValidationError
from qmarket.operators import (
    I2,
    SX,
    SY,
    SZ,
    apply_function,
    as_hermitian,
    pauli_operator,
    spectral_decompose,
)
from qmarket.quantum import (
    DensityState,
    dephase,
    event_probability,
    expectation,
    is_faithful,
    pure_state,
)

from conftest import random_hermitian, random_state


def test_state_validation():
    with pytest.raises(ValidationError):
        DensityState(np.diag([0.6, 0.6]))
    with pytest.raises(ValidationError):
        DensityState(np.diag([1.5, -0.5]))


def test_state_repair_flag():
    rho = DensityState(np.diag([1.0 + 5e-11, -5e-11]))
    assert rho.repaired
    assert rho.min_eigenvalue() >= 0.0
    assert np.trace(rho.mat).real == pytest.approx(1.0, abs=1e-14)


def test_a_state_is_validated_once(monkeypatch):
    # one as_hermitian per state; its matrix and lambda_min are those of the
    # symmetrised input
    mats = [np.array([[0.25, 0.1 + 1e-14], [0.1, 0.75]]), np.eye(4) / 4]
    expected = [as_hermitian(m) for m in mats]
    calls = []
    real = operators_mod.as_hermitian
    counting = lambda m: calls.append(1) or real(m)  # noqa: E731
    monkeypatch.setattr(operators_mod, "as_hermitian", counting)
    monkeypatch.setattr(quantum_mod, "as_hermitian", counting)
    states = [DensityState(m) for m in mats]
    assert len(calls) == len(mats)
    for rho, sym in zip(states, expected):
        assert not rho.repaired
        np.testing.assert_array_equal(rho.mat, sym)
        assert rho.min_eigenvalue() == float(np.linalg.eigvalsh(sym)[0])


def test_a_failed_eigensolver_is_a_solver_error(monkeypatch):
    def fail(x):
        raise np.linalg.LinAlgError("no convergence")

    monkeypatch.setattr(np.linalg, "eigvalsh", fail)
    with pytest.raises(SolverError, match="eigensolver failed"):
        DensityState(np.eye(2) / 2)


def test_expectation_examples():
    assert expectation(DensityState.maximally_mixed(2), SZ) == pytest.approx(0.0, abs=1e-12)
    assert expectation(pure_state([1.0, 0.0]), SZ) == pytest.approx(1.0)
    rho = DensityState(0.5 * (I2 + 0.5 * SY))
    a = pauli_operator(0.05, 0.15, 0.0, 0.0)
    assert expectation(rho, a) == pytest.approx(0.05)


def test_expectation_linear_and_normalized(rng):
    rho = DensityState(random_state(rng, 4))
    x = random_hermitian(rng, 4)
    y = random_hermitian(rng, 4)
    assert expectation(rho, 2.0 * x + y) == pytest.approx(
        2.0 * expectation(rho, x) + expectation(rho, y)
    )
    assert expectation(rho, np.eye(4)) == pytest.approx(1.0)


def test_positive_observable_nonnegative(rng):
    for _ in range(20):
        rho = DensityState(random_state(rng, 3))
        m = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        assert expectation(rho, m @ m.conj().T) >= -1e-9


def test_event_probability_examples(rng):
    rho = DensityState(random_state(rng, 2))
    assert event_probability(rho, np.eye(2)) == pytest.approx(1.0)
    assert event_probability(rho, np.zeros((2, 2))) == pytest.approx(0.0)
    u = np.array([1.0, 1.0]) / np.sqrt(2)
    assert event_probability(pure_state([1.0, 0.0]), np.outer(u, u)) == pytest.approx(0.5)


def test_event_complement(rng):
    rho = DensityState(random_state(rng, 4))
    u = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    u /= np.linalg.norm(u)
    e = np.outer(u, u.conj())
    assert event_probability(rho, e) + event_probability(rho, np.eye(4) - e) == pytest.approx(
        1.0, abs=1e-9
    )


def test_is_faithful():
    assert is_faithful(DensityState.maximally_mixed(2))
    assert not is_faithful(pure_state([1.0, 0.0]))
    rho = DensityState.from_bloch([0.0, 0.3, 0.4])
    assert is_faithful(rho)
    np.testing.assert_allclose(
        np.linalg.eigvalsh(rho.mat), [0.25, 0.75], atol=1e-12
    )


def test_pure_state():
    np.testing.assert_allclose(pure_state([1.0, 0.0]).mat, np.diag([1.0, 0.0]))
    u = np.array([1.0, 1.0]) / np.sqrt(2)
    np.testing.assert_allclose(pure_state(u).mat, 0.5 * np.ones((2, 2)), atol=1e-12)
    with pytest.raises(ValidationError):
        pure_state([1.0, 1.0])


def test_pure_state_expectation_is_quadratic_form(rng):
    u = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    u /= np.linalg.norm(u)
    x = random_hermitian(rng, 3)
    assert expectation(pure_state(u), x) == pytest.approx(float((u.conj() @ x @ u).real))


def test_dephase():
    canonical = [np.array([1.0, 0.0]), np.array([0.0, 1.0])]
    diag = DensityState(np.diag([0.3, 0.7]))
    np.testing.assert_allclose(dephase(diag, canonical).mat, diag.mat, atol=1e-12)
    rho = DensityState(0.5 * (I2 + SX))
    np.testing.assert_allclose(dephase(rho, canonical).mat, 0.5 * np.eye(2), atol=1e-12)
    with pytest.raises(ValidationError):
        dephase(diag, [np.array([1.0, 0.0]), np.array([1.0, 0.0])])


def test_dephase_preserves_diagonal_expectations(rng):
    canonical = [np.eye(4)[:, i] for i in range(4)]
    rho = DensityState(random_state(rng, 4))
    x = np.diag(rng.standard_normal(4)).astype(complex)
    assert expectation(dephase(rho, canonical), x) == pytest.approx(expectation(rho, x))


@pytest.mark.parametrize("x", [[[0, 1j], [0, 0]], [[0, 5], [0, 0]], [[1j, 0], [0, 0]]])
def test_expectation_refuses_an_operator_that_is_not_hermitian(x):
    # tr(rho X) at rho = I/2 would read 0 for the first two and an imaginary
    # residue for the third; none is an observable
    rho = DensityState.maximally_mixed(2)
    for read in (expectation, event_probability):
        with pytest.raises(ValidationError, match="matrix is not Hermitian"):
            read(rho, np.array(x, dtype=complex))

def test_spectral_law(rng):
    rho = DensityState(random_state(rng, 4))
    x = random_hermitian(rng, 4)
    g = lambda s: np.tanh(s)
    res = spectral_decompose(x)
    total = sum(
        g(val) * event_probability(rho, proj)
        for val, proj in zip(res.eigenvalues, res.projections)
    )
    assert expectation(rho, apply_function(x, g)) == pytest.approx(total, abs=1e-8)
