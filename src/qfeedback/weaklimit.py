"""Weak-interaction limit of the feedback cycle.

As both couplings approach the identity (tau = cos²(dθ) -> 1), one collision
reduces to a Hamiltonian step rho -> rho - i[h, rho] dθ with generator
h = Λ(η) + η, where Λ is the in-loop map applied to the controller state.
This module builds those generators, measures the first-order defect of the
full cycle against the generator, and computes the dimension of the Lie
algebra the generators span (d² = full Hamiltonian controllability).
"""

from __future__ import annotations

import numpy as np

from .loop import FeedbackProtocol, InLoopStage, build_superoperator
from .quantum import check_density_matrix, hermitize, identity_channel, ket


def in_loop_map(eta: np.ndarray, stage: InLoopStage, d: int) -> np.ndarray:
    """Apply the stage's controller CP map to eta: V eta V† for coherent
    stages, the Kraus sum over measurement branches otherwise."""
    ops = stage.controller_ops(d)
    return sum(m @ eta @ m.conj().T for m in ops)


def effective_hamiltonian(eta: np.ndarray, stage: InLoopStage) -> np.ndarray:
    """Generator h = Λ(η) + η of the weak-interaction limit (Hermitian)."""
    eta = check_density_matrix(eta, what="controller state")
    d = eta.shape[0]
    return hermitize(in_loop_map(eta, stage, d) + eta, tol=1e-9)


def _hermitian_basis_states(d: int) -> np.ndarray:
    """d² density matrices spanning Hermitian space: |i><i| and the +/i
    superposition projectors for each pair."""
    states = [np.outer(ket(d, i), ket(d, i).conj()) for i in range(d)]
    for i in range(d):
        for j in range(i + 1, d):
            for amp in (1.0, 1.0j):
                v = (ket(d, i) + amp * ket(d, j)) / np.sqrt(2.0)
                states.append(np.outer(v, v.conj()))
    return np.stack(states)


def first_order_defect(p: FeedbackProtocol, dtheta: float) -> float:
    """Max-norm gap between one full cycle and the first-order generator step.

    The protocol's couplings are reparameterised to tau1 = tau2 = cos²(dθ)
    and the noise replaced by the identity; the defect is the worst case of
    |cycle(rho) - (rho - i[h, rho] dθ)| over a spanning set of pure inputs.
    Scales quadratically in dθ.
    """
    if dtheta <= 0.0:
        raise ValueError(f"dtheta must be positive, got {dtheta}")
    tau = np.cos(dtheta) ** 2
    weak = FeedbackProtocol(
        d=p.d, noise=identity_channel(p.d), tau1=tau, tau2=tau, eta=p.eta, stage=p.stage
    )
    h = effective_hamiltonian(p.eta, p.stage)
    states = _hermitian_basis_states(p.d)
    outs = build_superoperator(weak).apply(states)
    comm = h[None] @ states - states @ h[None]
    defect = outs - (states - 1j * dtheta * comm)
    return float(np.max(np.abs(defect)))


def lie_closure_dim(generators: list[np.ndarray]) -> int:
    """Real dimension of the smallest commutator-closed span containing the
    generators and the identity.

    A Hermitian matrix is the real vector of its real and imaginary parts, in
    which the Frobenius product is the dot product. The span grows by the
    nested commutators -i[g, b] (Hermitian for Hermitian inputs) of each
    generator g with each element b of the current basis, which one SVD per
    round makes orthonormal, until the rank stops increasing; the rank counts
    the singular values above 1e-9·max(1, σ₀). d² means any Hamiltonian on
    the system can be simulated.
    """
    if not generators:
        raise ValueError("need at least one generator")
    gens = np.stack([hermitize(g, tol=1e-9) for g in generators])
    d = gens.shape[-1]
    basis, rank = np.concatenate([np.eye(d, dtype=complex)[None], gens]), 0
    while True:
        brackets = -1j * (gens[:, None] @ basis - basis @ gens[:, None])
        span = np.concatenate([basis, brackets.reshape(-1, d, d)])
        vectors = np.concatenate([span.real, span.imag], axis=1).reshape(len(span), 2 * d * d)
        _, sv, vt = np.linalg.svd(vectors, full_matrices=False)
        new_rank = int(np.sum(sv > 1e-9 * max(1.0, sv[0])))
        if new_rank in (rank, d * d):
            return new_rank
        parts = vt[:new_rank].reshape(new_rank, 2, d, d)
        basis, rank = parts[:, 0] + 1j * parts[:, 1], new_rank
