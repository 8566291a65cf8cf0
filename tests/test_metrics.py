import re

import numpy as np
import pytest

from qfeedback.loop import FeedbackProtocol, build_superoperator, coherent_stage, povm_stage, projective_stage, stack
from qfeedback.metrics import _bloch_states, haar_avg_bitflip_fidelity, linear_entropy, von_neumann_entropy
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

from reference import bitflip_fidelities, fidelity_to_pure, haar_avg_bitflip_fidelity_mc


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
                            controller_state(2, eta0), coherent_stage(2, pauli_x))


def test_haar_avg_cf_limits():
    assert abs(haar_avg_bitflip_fidelity(cf_bitflip(1.0)) - 1.0 / 3.0) <= 1e-9
    assert abs(haar_avg_bitflip_fidelity(cf_bitflip(0.0)) - 1.0) <= 1e-9
    assert abs(haar_avg_bitflip_fidelity(cf_bitflip(0.3)) - 0.8) <= 1e-9


def test_haar_avg_projective_mf():
    p = FeedbackProtocol(2, identity_channel(2), 0.5, 0.5, maximally_mixed(2),
                         projective_stage(2, (pauli_x, pauli_x)))
    assert abs(haar_avg_bitflip_fidelity(p) - 0.5) <= 1e-9


def test_haar_avg_node_convergence():
    p = cf_bitflip(0.37)
    a32 = haar_avg_bitflip_fidelity(p, nodes=32)
    a64 = haar_avg_bitflip_fidelity(p, nodes=64)
    assert abs(a32 - a64) <= 1e-10


def test_haar_avg_node_floor():
    with pytest.raises(ValueError):
        haar_avg_bitflip_fidelity(cf_bitflip(0.5), nodes=3)


@pytest.mark.parametrize("nodes", [4.5, 32.0, "32"])
def test_haar_avg_refuses_a_non_integer_node_count(nodes):
    message = f"nodes must be an integer of at least 4 (quadrature nodes per axis), got {nodes!r}"
    with pytest.raises(ValueError, match=re.escape(message)):
        haar_avg_bitflip_fidelity(cf_bitflip(0.5), nodes=nodes)


def test_haar_avg_requires_identity_noise():
    p = FeedbackProtocol(2, depolarizing_channel(2, 0.9), 0.5, 0.5,
                         maximally_mixed(2), coherent_stage(2, pauli_x))
    with pytest.raises(ValueError):
        haar_avg_bitflip_fidelity(p)


def test_haar_avg_of_a_cycle_superoperator_equals_that_of_its_protocol():
    p = FeedbackProtocol(2, identity_channel(2), 0.4, 0.4, maximally_mixed(2),
                         povm_stage(2, bitflip_povm_kraus(0.3, 0.8)))
    assert haar_avg_bitflip_fidelity(build_superoperator(p)) == haar_avg_bitflip_fidelity(p)
    with pytest.raises(ValueError, match="qubit-only"):
        haar_avg_bitflip_fidelity(np.eye(9, dtype=complex))
    qutrit = FeedbackProtocol(3, identity_channel(3), 0.4, 0.4, maximally_mixed(3), coherent_stage(3, np.eye(3)))
    with pytest.raises(ValueError, match="the bit-flip benchmark is qubit-only"):
        haar_avg_bitflip_fidelity(qutrit)


def test_haar_avg_invariant_under_x_rotation_conjugation():
    # conjugating every in-loop operator by a rotation about x leaves the
    # bit-flip average unchanged (target and Haar measure are covariant)
    theta = 0.83
    r = np.cos(theta / 2) * np.eye(2) - 1j * np.sin(theta / 2) * pauli_x
    k0, k1 = bitflip_povm_kraus(0.8, 0.35)
    p = FeedbackProtocol(2, identity_channel(2), 0.4, 0.4, maximally_mixed(2),
                         povm_stage(2, (k0, k1)))
    p_rot = FeedbackProtocol(2, identity_channel(2), 0.4, 0.4, maximally_mixed(2),
                             povm_stage(2, (r @ k0 @ r.conj().T, r @ k1 @ r.conj().T)))
    a = haar_avg_bitflip_fidelity(p)
    b = haar_avg_bitflip_fidelity(p_rot)
    assert abs(a - b) <= 1e-9


def test_haar_grid_is_cached_read_only():
    psi, w, _, inputs = _bloch_states(8)
    assert _bloch_states(8)[0] is psi
    for a in (psi, w, *inputs):
        with pytest.raises(ValueError):
            a[0] = 0.0


def _bits(a) -> np.ndarray:
    return np.ascontiguousarray(a).view(np.uint64)


@pytest.mark.parametrize("nodes", [4, 8, 32])
def test_cached_haar_nodes_are_bitwise_the_recomputed_ones(nodes):
    """The node arrays cached with the quadrature grid hold the bits of those
    computed from the grid at each call, and the Haar average of a cycle over
    them holds the bits of the average over the recomputed ones."""
    psi, w, n_phi, (projectors, targets, conj_targets) = _bloch_states(nodes)
    for got, want in ((projectors, stack(np.einsum("na,nb->nab", psi, psi.conj()))),
                      (targets, psi @ pauli_x.T), (conj_targets, (psi @ pauli_x.T).conj())):
        assert np.array_equal(_bits(got), _bits(want))
    rng = np.random.default_rng(nodes)
    sops = [build_superoperator(FeedbackProtocol(2, identity_channel(2), tau, tau, maximally_mixed(2),
                                                 povm_stage(2, bitflip_povm_kraus(a, b))))
            for tau, a, b in rng.uniform(0.0, 1.0, (4, 3))]
    for sop in sops + [rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))]:
        want = float(0.5 * np.sum(w * bitflip_fidelities(sop, psi).reshape(nodes, n_phi).mean(axis=1)))
        assert np.array_equal(_bits(np.array([haar_avg_bitflip_fidelity(sop, nodes)])), _bits(np.array([want])))


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
