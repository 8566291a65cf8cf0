import numpy as np
import pytest

from qfeedback.loop import CoherentStage, FeedbackProtocol, PovmStage, ProjectiveStage, Superoperator, build_superoperator
from qfeedback.metrics import (
    _bloch_states,
    fidelity_to_pure,
    haar_avg_bitflip_fidelity,
    haar_avg_bitflip_fidelity_mc,
    linear_entropy,
    von_neumann_entropy,
)
from qfeedback.quantum import (
    controller_state,
    depolarizing_channel,
    dm,
    identity_channel,
    ket,
    maximally_mixed,
    pauli_x,
)
from qfeedback.scenarios import bitflip_povm_kraus


def test_entropy_pure_state_is_zero():
    assert von_neumann_entropy(dm(ket(2, 0))) == 0.0


def test_entropy_maximally_mixed_normalised():
    for d in (2, 3, 5):
        assert abs(von_neumann_entropy(maximally_mixed(d), normalised=True) - 1.0) <= 1e-12


def test_entropy_hand_value():
    s = von_neumann_entropy(np.diag([0.75, 0.25]).astype(complex))
    assert abs(s - 0.5623351446188083) <= 1e-12


def test_linear_entropy_values():
    assert linear_entropy(dm(ket(2, 1))) <= 1e-12
    assert abs(linear_entropy(maximally_mixed(2)) - 0.5) <= 1e-12
    rho = np.diag([11.0 / 14.0, 3.0 / 14.0]).astype(complex)
    assert abs(linear_entropy(rho) - 33.0 / 98.0) <= 1e-12


def test_fidelity_to_pure():
    plus = np.array([1.0, 1.0]) / np.sqrt(2.0)
    assert abs(fidelity_to_pure(dm(plus), plus) - 1.0) <= 1e-12
    assert abs(fidelity_to_pure(maximally_mixed(2), plus) - 0.5) <= 1e-12
    assert abs(fidelity_to_pure(np.diag([0.8, 0.2]).astype(complex), plus) - 0.5) <= 1e-12
    with pytest.raises(ValueError):
        fidelity_to_pure(maximally_mixed(2), np.array([1.0, 1.0]))


def cf_bitflip(tau, eta0=0.5):
    return FeedbackProtocol(2, identity_channel(2), tau, tau,
                            controller_state(2, eta0), CoherentStage(pauli_x))


def test_haar_avg_cf_limits():
    assert abs(haar_avg_bitflip_fidelity(cf_bitflip(1.0)) - 1.0 / 3.0) <= 1e-9
    assert abs(haar_avg_bitflip_fidelity(cf_bitflip(0.0)) - 1.0) <= 1e-9
    assert abs(haar_avg_bitflip_fidelity(cf_bitflip(0.3)) - 0.8) <= 1e-9


def test_haar_avg_projective_mf():
    p = FeedbackProtocol(2, identity_channel(2), 0.5, 0.5, maximally_mixed(2),
                         ProjectiveStage(feedback=(pauli_x, pauli_x)))
    assert abs(haar_avg_bitflip_fidelity(p) - 0.5) <= 1e-9


def test_haar_avg_node_convergence():
    p = cf_bitflip(0.37)
    a32 = haar_avg_bitflip_fidelity(p, nodes=32)
    a64 = haar_avg_bitflip_fidelity(p, nodes=64)
    assert abs(a32 - a64) <= 1e-10


def test_haar_avg_node_floor():
    with pytest.raises(ValueError):
        haar_avg_bitflip_fidelity(cf_bitflip(0.5), nodes=3)


def test_haar_avg_requires_identity_noise():
    p = FeedbackProtocol(2, depolarizing_channel(2, 0.9), 0.5, 0.5,
                         maximally_mixed(2), CoherentStage(pauli_x))
    with pytest.raises(ValueError):
        haar_avg_bitflip_fidelity(p)


def test_haar_avg_of_a_cycle_superoperator_equals_that_of_its_protocol():
    p = FeedbackProtocol(2, identity_channel(2), 0.4, 0.4, maximally_mixed(2),
                         PovmStage(kraus=bitflip_povm_kraus(0.3, 0.8)))
    assert haar_avg_bitflip_fidelity(build_superoperator(p)) == haar_avg_bitflip_fidelity(p)
    with pytest.raises(ValueError, match="qubit-only"):
        haar_avg_bitflip_fidelity(Superoperator(3, np.eye(9)))


def test_haar_avg_invariant_under_x_rotation_conjugation():
    # conjugating every in-loop operator by a rotation about x leaves the
    # bit-flip average unchanged (target and Haar measure are covariant)
    theta = 0.83
    r = np.cos(theta / 2) * np.eye(2) - 1j * np.sin(theta / 2) * pauli_x
    k0, k1 = bitflip_povm_kraus(0.8, 0.35)
    p = FeedbackProtocol(2, identity_channel(2), 0.4, 0.4, maximally_mixed(2),
                         PovmStage(kraus=(k0, k1)))
    p_rot = FeedbackProtocol(2, identity_channel(2), 0.4, 0.4, maximally_mixed(2),
                             PovmStage(kraus=(r @ k0 @ r.conj().T, r @ k1 @ r.conj().T)))
    a = haar_avg_bitflip_fidelity(p)
    b = haar_avg_bitflip_fidelity(p_rot)
    assert abs(a - b) <= 1e-9


def test_haar_grid_is_cached_read_only():
    psi, w, _ = _bloch_states(8)
    assert _bloch_states(8)[0] is psi
    with pytest.raises(ValueError):
        psi[0, 0] = 0.0
    with pytest.raises(ValueError):
        w[0] = 0.0


def test_haar_avg_cf_independent_of_eta0():
    vals = [haar_avg_bitflip_fidelity(cf_bitflip(0.4, eta0)) for eta0 in (0.0, 0.3, 1.0)]
    assert max(vals) - min(vals) <= 1e-10


def test_monte_carlo_sampler_agrees_with_quadrature():
    p = cf_bitflip(0.5)
    exact = haar_avg_bitflip_fidelity(p)
    mc = haar_avg_bitflip_fidelity_mc(p, samples=200_000, seed=17)
    assert abs(mc - exact) <= 5e-3  # ~3 sigma of the MC error


def test_entropy_rejects_invalid_state():
    with pytest.raises(ValueError):
        von_neumann_entropy(np.diag([0.9, 0.4]))
