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


def _vectorize_hermitian(ms: list[np.ndarray]) -> np.ndarray:
    """Real coordinates of Hermitian matrices in the orthogonal basis of
    matrix units (diagonal, symmetric and antisymmetric combinations)."""
    rows = []
    for m in ms:
        d = m.shape[0]
        iu = np.triu_indices(d, k=1)
        rows.append(np.concatenate([np.diag(m).real, m[iu].real, m[iu].imag]))
    return np.array(rows)


def _rank(vectors: np.ndarray, tol: float = 1e-9) -> int:
    if len(vectors) == 0:
        return 0
    sv = np.linalg.svd(vectors, compute_uv=False)
    return int(np.sum(sv > tol * max(1.0, sv[0])))


def lie_closure_dim(generators: list[np.ndarray]) -> int:
    """Real dimension of the smallest commutator-closed span containing the
    generators and the identity.

    Grown by iterated commutators -i[h1, h2] (Hermitian for Hermitian inputs)
    until the rank stops increasing; rank via singular values above 1e-9.
    d² means any Hamiltonian on the system can be simulated.
    """
    if not generators:
        raise ValueError("need at least one generator")
    gens = [hermitize(g, tol=1e-9) for g in generators]
    d = gens[0].shape[0]
    basis = [np.eye(d, dtype=complex)] + gens
    rank = _rank(_vectorize_hermitian(basis))
    while True:
        new = list(basis)
        for i in range(len(basis)):
            for j in range(i + 1, len(basis)):
                new.append(-1j * (basis[i] @ basis[j] - basis[j] @ basis[i]))
        vecs = _vectorize_hermitian(new)
        new_rank = _rank(vecs)
        if new_rank == rank or new_rank == d * d:
            return new_rank
        # keep an orthonormal spanning subset to stop pair growth exploding
        _, _, vt = np.linalg.svd(vecs, full_matrices=False)
        basis = _devectorize(vt[:new_rank], d)
        rank = new_rank


def _devectorize(rows: np.ndarray, d: int) -> list[np.ndarray]:
    iu = np.triu_indices(d, k=1)
    n_off = len(iu[0])
    out = []
    for r in rows:
        m = np.zeros((d, d), dtype=complex)
        np.fill_diagonal(m, r[:d])
        m[iu] = r[d:d + n_off] + 1j * r[d + n_off:]
        m[(iu[1], iu[0])] = r[d:d + n_off] - 1j * r[d + n_off:]
        out.append(m)
    return out
