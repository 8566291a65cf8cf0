import re

import numpy as np
import pytest

from qfeedback.quantum import (
    KrausChannel,
    amplitude_damping_channel,
    check_density_matrix,
    controller_state,
    depolarizing_channel,
    dm,
    hermitize,
    identity_channel,
    ket,
    max_abs,
    maximally_mixed,
    partial_swap,
    random_density_matrix,
    random_kraus_channel,
    swap_operator,
    unitary_mapping,
)

from reference import amplitude_damp, apply_channel, depolarize, partial_trace, reset_channel


def test_depolarize_limits():
    rng = np.random.default_rng(0)
    rho = random_density_matrix(3, rng)
    assert np.allclose(depolarize(rho, 1.0), rho)
    assert np.allclose(depolarize(rho, 0.0), np.eye(3) / 3)


def test_depolarize_hand_value():
    out = depolarize(np.diag([1.0, 0.0]).astype(complex), 0.5)
    assert np.allclose(out, np.diag([0.75, 0.25]))


def test_depolarize_range_check():
    with pytest.raises(ValueError):
        depolarize(maximally_mixed(2), 1.5)


def test_depolarize_preserves_eigenvectors_and_order():
    rng = np.random.default_rng(1)
    for _ in range(20):
        rho = random_density_matrix(3, rng)
        w_in, v_in = np.linalg.eigh(rho)
        w_out, v_out = np.linalg.eigh(depolarize(rho, 0.6))
        overlaps = np.abs(np.einsum("ij,ij->j", v_in.conj(), v_out))
        assert np.all(overlaps > 1.0 - 1e-8)
        assert np.all(np.diff(w_out) >= -1e-12)  # same (ascending) ordering


def test_amplitude_damp_limits():
    rho = dm(ket(2, 1))
    assert np.allclose(amplitude_damp(rho, 0.0), rho)
    assert np.allclose(amplitude_damp(rho, 1.0), dm(ket(2, 0)))
    assert np.allclose(amplitude_damp(rho, 0.8), np.diag([0.8, 0.2]))


def test_amplitude_damp_matches_kraus_channel():
    rng = np.random.default_rng(2)
    ch = amplitude_damping_channel(0.37)
    for _ in range(20):
        rho = random_density_matrix(2, rng)
        assert max_abs(amplitude_damp(rho, 0.37) - apply_channel(rho, ch)) <= 1e-12


def test_amplitude_damp_qubit_only():
    with pytest.raises(ValueError):
        amplitude_damp(maximally_mixed(3), 0.5)


def test_partial_swap_is_unitary_and_limits():
    for d in (2, 3):
        assert np.allclose(partial_swap(d, 1.0), np.eye(d * d))
        for tau in (0.0, 0.3, 0.8):
            u = partial_swap(d, tau)
            assert max_abs(u.conj().T @ u - np.eye(d * d)) <= 1e-12
    with pytest.raises(ValueError):
        partial_swap(2, -0.1)


def test_partial_swap_full_swap_moves_controller_to_system():
    rng = np.random.default_rng(3)
    rho = random_density_matrix(2, rng)
    eta = random_density_matrix(2, rng)
    u = partial_swap(2, 0.0)
    joint = u @ np.kron(rho, eta) @ u.conj().T
    assert max_abs(partial_trace(joint, 2, 2, keep="A") - eta) <= 1e-12


def test_partial_swap_half_applied_twice_is_full_swap():
    rng = np.random.default_rng(4)
    rho = random_density_matrix(2, rng)
    eta = random_density_matrix(2, rng)
    u = partial_swap(2, 0.5)
    joint = u @ u @ np.kron(rho, eta) @ u.conj().T @ u.conj().T
    assert max_abs(partial_trace(joint, 2, 2, keep="A") - eta) <= 1e-12


def test_partial_swap_symmetric_under_swap_conjugation():
    for d in (2, 3):
        s = swap_operator(d)
        u = partial_swap(d, 0.3)
        assert max_abs(s @ u @ s - u) <= 1e-12


def test_apply_channel_identity_and_reset():
    rng = np.random.default_rng(5)
    rho = random_density_matrix(2, rng)
    assert max_abs(apply_channel(rho, identity_channel(2)) - rho) <= 1e-14
    assert max_abs(apply_channel(rho, reset_channel(2, 0)) - dm(ket(2, 0))) <= 1e-12


def test_depolarizing_channel_agrees_with_direct_map():
    rng = np.random.default_rng(6)
    ch = depolarizing_channel(2, 0.42)
    for _ in range(100):
        rho = random_density_matrix(2, rng)
        assert max_abs(apply_channel(rho, ch) - depolarize(rho, 0.42)) <= 1e-12


def test_channel_constructors_are_complete():
    rng = np.random.default_rng(7)
    for ch in (
        identity_channel(3),
        depolarizing_channel(3, 0.3),
        amplitude_damping_channel(0.7),
        reset_channel(3, 1),
        random_kraus_channel(2, 3, rng),
    ):
        comp = sum(k.conj().T @ k for k in ch.kraus)
        assert max_abs(comp - np.eye(ch.dim)) <= 1e-10


def test_kraus_completeness_enforced():
    with pytest.raises(ValueError):
        KrausChannel(2, (np.eye(2) * 0.9,))
    with pytest.raises(ValueError, match=re.escape("completeness violated: max|ΣK†K - 1| = nan")):
        KrausChannel(2, (np.diag([np.nan, 1.0]),))


def test_channel_constructors_hold_one_complex_stack():
    rng = np.random.default_rng(3)
    for ch, shape in ((identity_channel(3), (1, 3, 3)), (depolarizing_channel(3, 0.3), (9, 3, 3)),
                      (amplitude_damping_channel(0.7), (2, 2, 2)), (random_kraus_channel(2, 3, rng), (3, 2, 2))):
        assert isinstance(ch.kraus, np.ndarray) and ch.kraus.dtype == complex and ch.kraus.shape == shape


def _refusal(kraus) -> str:
    with pytest.raises(ValueError) as info:
        KrausChannel(2, kraus)
    return str(info.value)


def test_kraus_channel_takes_a_sequence_and_a_stack_alike():
    ops = random_kraus_channel(2, 3, np.random.default_rng(4)).kraus
    assert np.array_equal(KrausChannel(2, list(ops)).kraus, KrausChannel(2, ops).kraus)
    assert KrausChannel(2, [[[1, 0], [0, 1]]]).kraus.dtype == complex  # nested lists are operators too
    for bad, message in [(ops[:0], "channel needs at least one Kraus operator"),
                         (np.eye(3)[None], "Kraus operator shape (3, 3) != (2,2)"),
                         (np.eye(2), "Kraus operator shape (2,) != (2,2)"),
                         (ops[:2], "Kraus completeness violated: max|ΣK†K - 1| = ")]:
        assert _refusal(list(bad)) == _refusal(bad)
        assert _refusal(bad).startswith(message)
    # a ragged list is refused at its first mis-shaped operator
    assert _refusal([np.eye(2), np.eye(3)]) == "Kraus operator shape (3, 3) != (2,2)"


def test_channel_and_state_refusals_name_the_bad_value():
    for call, message in [(lambda: depolarizing_channel(2, 1.5), "noise parameter must be in [0,1], got 1.5"),
                          (lambda: amplitude_damping_channel(-0.1), "damping strength must be in [0,1], got -0.1"),
                          (lambda: controller_state(2, 1.5), "eta0 must be in [0,1], got 1.5"),
                          (lambda: check_density_matrix(np.ones((2, 3))),
                           "state must be a square matrix, got shape (2, 3)")]:
        with pytest.raises(ValueError, match=re.escape(message)):
            call()


def test_apply_channel_dim_mismatch():
    with pytest.raises(ValueError):
        apply_channel(maximally_mixed(3), identity_channel(2))


def test_controller_presets():
    assert np.allclose(controller_state(3, "noisy"), np.eye(3) / 3)
    assert np.allclose(controller_state(2, "clean"), np.diag([1.0, 0.0]))
    assert np.allclose(controller_state(2, 0.3), np.diag([0.3, 0.7]))
    rho = controller_state(2, np.array([[0.5, 0.1], [0.1, 0.5]]))
    assert np.allclose(rho, [[0.5, 0.1], [0.1, 0.5]])
    with pytest.raises(ValueError):
        controller_state(2, "warm")
    with pytest.raises(ValueError):
        controller_state(3, 0.3)  # eta0 family is qubit-only
    with pytest.raises(ValueError, match=re.escape("controller state must be 2x2, got shape (1, 1)")):
        controller_state(2, [[1.0]])


def test_density_matrix_invariants_enforced():
    with pytest.raises(ValueError):
        check_density_matrix(np.diag([0.8, 0.8]))
    with pytest.raises(ValueError):
        check_density_matrix(np.array([[0.5, 0.5], [0.0, 0.5]]))
    with pytest.raises(ValueError):
        check_density_matrix(np.diag([1.5, -0.5]))
    # NaN fails every check: a comparison with NaN is False either way round
    with pytest.raises(ValueError, match=re.escape("not Hermitian: max|M - M†| = nan")):
        check_density_matrix(np.diag([np.nan, 1.0]))
    with pytest.raises(ValueError, match="not Hermitian"):
        hermitize(np.full((2, 2), np.nan), tol=np.inf)


def test_clean_state_clips_tiny_negatives_and_rejects_big_ones():
    from qfeedback.quantum import clean_state

    rho = np.diag([1.0 + 5e-9, -5e-9]).astype(complex)
    out = clean_state(rho)
    w = np.linalg.eigvalsh(out)
    assert w[0] >= 0.0
    assert abs(np.trace(out).real - 1.0) <= 1e-14
    with pytest.raises(ValueError):
        clean_state(np.diag([1.1, -0.1]).astype(complex))


def test_unitary_mapping_sends_source_to_target():
    rng = np.random.default_rng(8)
    for d in (2, 3):
        for _ in range(20):
            z = rng.standard_normal(d) + 1j * rng.standard_normal(d)
            tgt = z / np.linalg.norm(z)
            u = unitary_mapping(ket(d, 1), tgt)
            assert max_abs(u.conj().T @ u - np.eye(d)) <= 1e-12
            got = u @ ket(d, 1)
            assert abs(abs(np.vdot(tgt, got)) - 1.0) <= 1e-12


def test_weyl_operators_are_built_once_per_dimension_and_read_only():
    from qfeedback.quantum import _weyl_ops

    ops = _weyl_ops(3)
    assert _weyl_ops(3) is ops and len(ops) == 9
    assert not any(op.flags.writeable for op in ops)
    with pytest.raises(ValueError):
        ops[1][0, 0] = 0.0
    # the channel scales copies, so the cached operators are untouched
    ch = depolarizing_channel(3, 0.2)
    assert all(k.flags.writeable for k in ch.kraus)
    assert np.array_equal(_weyl_ops(3)[3], np.roll(np.eye(3), 1, axis=0))  # the shift, a=1 b=0
