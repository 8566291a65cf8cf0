import numpy as np
import pytest

from qfeedback.loop import (
    CoherentStage,
    FeedbackProtocol,
    PovmStage,
    all_to_target_stage,
)
from qfeedback.quantum import (
    dm,
    identity_channel,
    ket,
    max_abs,
    maximally_mixed,
    pauli_x,
    random_density_matrix,
    random_kraus_channel,
    random_unitary,
)
from qfeedback.weaklimit import effective_hamiltonian, first_order_defect, lie_closure_dim


def test_effective_hamiltonian_mixed_controller_cf():
    rng = np.random.default_rng(0)
    for d in (2, 3):
        h = effective_hamiltonian(maximally_mixed(d), CoherentStage(random_unitary(d, rng)))
        assert max_abs(h - 2.0 * np.eye(d) / d) <= 1e-12


def test_effective_hamiltonian_cf_sigma_x():
    h = effective_hamiltonian(dm(ket(2, 0)), CoherentStage(pauli_x))
    assert max_abs(h - np.eye(2)) <= 1e-12


def test_effective_hamiltonian_mf_reset_to_plus():
    plus = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2.0)
    stage = all_to_target_stage(2, plus)
    h = effective_hamiltonian(dm(ket(2, 0)), stage)
    assert max_abs(h - (dm(plus) + dm(ket(2, 0)))) <= 1e-12


def test_effective_hamiltonian_affine_in_eta():
    rng = np.random.default_rng(1)
    stage = PovmStage(kraus=random_kraus_channel(2, 2, rng).kraus)
    e1 = random_density_matrix(2, rng)
    e2 = random_density_matrix(2, rng)
    p = 0.37
    lhs = effective_hamiltonian(p * e1 + (1 - p) * e2, stage)
    rhs = p * effective_hamiltonian(e1, stage) + (1 - p) * effective_hamiltonian(e2, stage)
    assert max_abs(lhs - rhs) <= 1e-12


def weak_protocol(stage, eta):
    return FeedbackProtocol(2, identity_channel(2), 0.5, 0.5, eta, stage)


def test_first_order_defect_quadratic_scaling():
    plus = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2.0)
    p = weak_protocol(all_to_target_stage(2, plus), dm(ket(2, 0)))
    d1 = first_order_defect(p, 1e-2)
    d2 = first_order_defect(p, 5e-3)
    assert d1 > 0.0
    assert abs(d1 / d2 - 4.0) <= 0.4


def test_first_order_defect_identity_generator_case():
    # maximally mixed controller CF: h ∝ identity, the commutator vanishes and
    # the defect is the pure second-order remainder
    p = weak_protocol(CoherentStage(pauli_x), maximally_mixed(2))
    d1 = first_order_defect(p, 1e-2)
    d2 = first_order_defect(p, 5e-3)
    assert abs(d1 / d2 - 4.0) <= 0.4


def test_first_order_defect_rejects_nonpositive_step():
    p = weak_protocol(CoherentStage(pauli_x), maximally_mixed(2))
    with pytest.raises(ValueError):
        first_order_defect(p, 0.0)


def test_lie_closure_identity_only():
    assert lie_closure_dim([np.eye(2, dtype=complex)]) == 1


def test_lie_closure_pauli_pair():
    sz = np.diag([1.0, -1.0]).astype(complex)
    assert lie_closure_dim([pauli_x, sz]) == 4


def test_lie_closure_random_pairs_are_full():
    rng = np.random.default_rng(2)
    for _ in range(10):
        g = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        h = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        dims = lie_closure_dim([g + g.conj().T, h + h.conj().T])
        assert dims == 4


def test_lie_closure_cf_mixed_controller_is_trivial():
    rng = np.random.default_rng(3)
    for d in (2, 3):
        gens = [effective_hamiltonian(maximally_mixed(d), CoherentStage(random_unitary(d, rng)))
                for _ in range(4)]
        assert lie_closure_dim(gens) == 1


def test_lie_closure_mf_pure_controller_is_full():
    rng = np.random.default_rng(4)
    for d in (2, 3):
        eta = dm(ket(d, 0))
        gens = [
            effective_hamiltonian(eta, PovmStage(kraus=random_kraus_channel(d, 2, rng).kraus))
            for _ in range(2)
        ]
        assert lie_closure_dim(gens) == d * d


def test_lie_closure_requires_generators():
    with pytest.raises(ValueError):
        lie_closure_dim([])
