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


def _random_hermitian(rng, d):
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return g + g.conj().T


def _on_first_levels(rng, d, k):
    """A random Hermitian matrix supported on the first k levels."""
    m = np.zeros((d, d), dtype=complex)
    m[:k, :k] = _random_hermitian(rng, k)
    return m


def _generator_set(kind, d, seed):
    rng = np.random.default_rng([seed, d])
    if kind == "single":
        return [_random_hermitian(rng, d)]
    if kind == "diagonal":  # three commuting generators
        return [np.diag(rng.standard_normal(d)).astype(complex) for _ in range(3)]
    if kind == "block":
        return [_on_first_levels(rng, d, d - 1) for _ in range(2)]
    if kind == "generic":
        return [_random_hermitian(rng, d) for _ in range(2)]
    if kind == "mixed-block":  # a block on the first d-1 levels and a diagonal
        return [_on_first_levels(rng, d, d - 1), np.diag(rng.standard_normal(d)).astype(complex)]
    # overlapping blocks: one on the first d-1 levels, one on the last two
    return [_on_first_levels(rng, d, d - 1), _on_first_levels(rng, d, 2)[::-1, ::-1].copy()]


# closure dimensions at d = 2, 3, 4, 5, the same for seeds 0 and 1, computed with the
# earlier implementation, which grew the span by the commutators of all pairs
PINNED_DIMS = {
    "single": (2, 2, 2, 2),
    "diagonal": (2, 3, 4, 4),
    "block": (2, 5, 10, 17),
    "generic": (4, 9, 16, 25),
    "mixed-block": (2, 5, 10, 17),
    "overlapping": (4, 9, 16, 25),
}


@pytest.mark.parametrize("kind,d,seed,dim", [(kind, d, seed, dims[d - 2]) for kind, dims in PINNED_DIMS.items()
                                              for d in (2, 3, 4, 5) for seed in (0, 1)])
def test_lie_closure_pinned_generator_sets(kind, d, seed, dim):
    assert lie_closure_dim(_generator_set(kind, d, seed)) == dim


def test_lie_closure_analytic_cases():
    sz = np.diag([1.0, -1.0]).astype(complex)
    assert lie_closure_dim([sz]) == 2  # span{1, σz}
    pad = np.zeros((3, 3), dtype=complex)
    sx3, sz3 = pad.copy(), pad.copy()
    sx3[:2, :2], sz3[:2, :2] = pauli_x, sz
    assert lie_closure_dim([sx3, sz3]) == 4  # 1 and u(2)'s traceless part on the first two levels
    commuting = [np.diag([1.0, -1.0, 0.0]).astype(complex), np.diag([1.0, 1.0, -2.0]).astype(complex)]
    assert lie_closure_dim(commuting) == 3
