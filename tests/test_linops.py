"""The linear algebra of the joint-space reference in `reference.py`: Kronecker
products, partial traces, Hermitian spectra and majorisation."""

import numpy as np
import pytest

from qfeedback.quantum import dm, max_abs, partial_swap, random_density_matrix, swap_operator

from reference import hermitian_eigs, kron, majorizes, partial_trace


def random_complex(shape, rng):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def test_kron_identity():
    assert np.array_equal(kron(np.eye(2), np.eye(2)), np.eye(4))


def test_kron_diagonal():
    a, b = 0.3, 0.7
    out = kron(np.diag([1.0, 0.0]), np.diag([a, b]))
    assert np.allclose(out, np.diag([a, b, 0.0, 0.0]))


def test_kron_sigma_x_pair_flips_00_to_11():
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    v00 = np.array([1, 0, 0, 0], dtype=complex)
    assert np.allclose(kron(sx, sx) @ v00, [0, 0, 0, 1])


def test_kron_associative_on_random_triples():
    rng = np.random.default_rng(1)
    for _ in range(25):
        a, b, c = (random_complex((2, 2), rng) for _ in range(3))
        assert max_abs(kron(kron(a, b), c) - kron(a, kron(b, c))) <= 1e-12


def test_partial_trace_product_state():
    rng = np.random.default_rng(2)
    a = random_complex((3, 3), rng)
    b = random_complex((2, 2), rng)
    assert np.allclose(partial_trace(kron(a, b), 3, 2, keep="A"), a * np.trace(b))
    assert np.allclose(partial_trace(kron(a, b), 3, 2, keep="B"), b * np.trace(a))


def test_partial_trace_swap_identity():
    # Tr_C[S (A⊗B)] = B A, and tracing the commutator [S, A⊗B] gives [B, A]
    rng = np.random.default_rng(3)
    s = swap_operator(2)
    for _ in range(10):
        a = random_complex((2, 2), rng)
        b = random_complex((2, 2), rng)
        ab = kron(a, b)
        assert max_abs(partial_trace(s @ ab, 2, 2, keep="A") - b @ a) <= 1e-12
        comm = s @ ab - ab @ s
        assert max_abs(partial_trace(comm, 2, 2, keep="A") - (b @ a - a @ b)) <= 1e-12


def test_partial_trace_preserves_trace_and_composes():
    rng = np.random.default_rng(4)
    m = random_complex((6, 6), rng)
    kept_a = partial_trace(m, 2, 3, keep="A")
    kept_b = partial_trace(m, 2, 3, keep="B")
    assert abs(np.trace(kept_a) - np.trace(m)) <= 1e-12
    assert abs(np.trace(kept_b) - np.trace(m)) <= 1e-12


def test_partial_trace_dimension_mismatch():
    with pytest.raises(ValueError):
        partial_trace(np.eye(5), 2, 2)


def test_hermitian_eigs_diagonal():
    w, v = hermitian_eigs(np.diag([0.3, 0.7]))
    assert np.allclose(w, [0.7, 0.3])
    assert abs(abs(v[1, 0]) - 1.0) <= 1e-12  # leading vector is |1>


def test_hermitian_eigs_pauli_x():
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    w, v = hermitian_eigs(sx)
    assert np.allclose(w, [1.0, -1.0])
    plus = np.array([1, 1]) / np.sqrt(2)
    minus = np.array([1, -1]) / np.sqrt(2)
    assert abs(abs(plus @ v[:, 0]) - 1.0) <= 1e-10
    assert abs(abs(minus @ v[:, 1]) - 1.0) <= 1e-10


def test_hermitian_eigs_reconstruction():
    rng = np.random.default_rng(5)
    g = random_complex((6, 6), rng)
    h = g + g.conj().T
    w, v = hermitian_eigs(h)
    assert max_abs((v * w) @ v.conj().T - h) <= 1e-9
    assert max_abs(v.conj().T @ v - np.eye(6)) <= 1e-10


def test_hermitian_eigs_unitary_invariance():
    rng = np.random.default_rng(6)
    from qfeedback.quantum import random_unitary

    g = random_complex((4, 4), rng)
    h = g + g.conj().T
    u = random_unitary(4, rng)
    w1, _ = hermitian_eigs(h)
    w2, _ = hermitian_eigs(u @ h @ u.conj().T)
    assert np.max(np.abs(w1 - w2)) <= 1e-9


def test_hermitian_eigs_rejects_non_hermitian():
    with pytest.raises(ValueError):
        hermitian_eigs(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_majorizes_trivial_cases():
    assert majorizes([0.5, 0.5], [1.0, 0.0])
    assert not majorizes([1.0, 0.0], [0.5, 0.5])
    assert majorizes([0.2, 0.3, 0.5], [0.5, 0.3, 0.2])  # equal up to permutation


def test_majorizes_input_checks():
    with pytest.raises(ValueError):
        majorizes([0.5, 0.5], [1.0])
    with pytest.raises(ValueError):
        majorizes([0.6, 0.5], [1.0, 0.0])


def test_partial_swap_output_majorized_by_mixture_bound():
    # spectrum of Tr_C[U_s (rho ⊗ |psi><psi|) U_s†] is majorized by
    # tau*spec(rho) + (1-tau)*spec(pure), over random qubit/qutrit cases
    rng = np.random.default_rng(7)
    for _ in range(1000):
        d = int(rng.integers(2, 4))
        tau = rng.uniform(0.0, 1.0)
        rho = random_density_matrix(d, rng)
        z = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        psi = z / np.linalg.norm(z)
        us = partial_swap(d, tau)
        out = partial_trace(us @ kron(rho, dm(psi)) @ us.conj().T, d, d, keep="A")
        v = np.sort(np.linalg.eigvalsh(out))[::-1]
        w = tau * np.sort(np.linalg.eigvalsh(rho))[::-1]
        w[0] += 1.0 - tau
        assert majorizes(v, w, tol=1e-10)
