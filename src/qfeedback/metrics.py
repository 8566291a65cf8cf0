"""Figures of merit: entropies, overlap fidelity, and the Haar-averaged
fidelity of the in-loop bit-flip task.

The Haar average is evaluated by deterministic tensor quadrature
(Gauss-Legendre in cos(chi), uniform trapezoid in the periodic azimuth), which
converges to machine precision for these low-degree integrands. A Monte-Carlo
sampler over Haar-random qubit states is provided as a cross-check only.
"""

from __future__ import annotations

import functools

import numpy as np

from .quantum import check_density_matrix, pauli_x


def von_neumann_entropy(rho: np.ndarray, normalised: bool = False) -> float:
    """-sum λ ln λ in nats, divided by ln(d) when normalised (0·ln0 := 0)."""
    rho = check_density_matrix(rho)
    w = np.clip(np.linalg.eigvalsh(rho), 0.0, 1.0)
    w = w[w > 0.0]
    s = float(-np.sum(w * np.log(w))) + 0.0  # avoid -0.0 for pure states
    return s / np.log(rho.shape[0]) if normalised else s


def linear_entropy(rho: np.ndarray) -> float:
    """1 - tr(rho²)."""
    rho = check_density_matrix(rho)
    return float(1.0 - np.trace(rho @ rho).real)


def purity(rho: np.ndarray) -> float:
    return float(np.trace(rho @ rho).real)


def fidelity_to_pure(rho: np.ndarray, psi: np.ndarray) -> float:
    """<psi|rho|psi> for a normalised state vector psi."""
    psi = np.asarray(psi, dtype=complex)
    norm = np.linalg.norm(psi)
    if abs(norm - 1.0) > 1e-10:
        raise ValueError(f"psi must be normalised, got |psi| = {norm!r}")
    rho = check_density_matrix(rho)
    return float(np.real(psi.conj() @ rho @ psi))


@functools.lru_cache(maxsize=16)
def _bloch_states(nodes: int) -> tuple[np.ndarray, np.ndarray, int]:
    """Quadrature grid of pure qubit inputs cos(χ/2)|0> + e^{iφ} sin(χ/2)|1>.

    Returns (psi, gl_weights, n_phi): psi has shape (nodes*nodes, 2) with the
    polar index varying slowest. Cached per `nodes`; the arrays are read-only.
    """
    u, w = np.polynomial.legendre.leggauss(nodes)  # u = cos(chi) on [-1, 1]
    phi = 2.0 * np.pi * np.arange(nodes) / nodes
    cos_half = np.sqrt((1.0 + u) / 2.0)
    sin_half = np.sqrt((1.0 - u) / 2.0)
    psi0 = np.repeat(cos_half, nodes).astype(complex)
    psi1 = np.repeat(sin_half, nodes) * np.exp(1j * np.tile(phi, nodes))
    psi = np.stack([psi0, psi1], axis=1)
    psi.flags.writeable = w.flags.writeable = False
    return psi, w, nodes


def _bitflip_fidelities(p, psi: np.ndarray) -> np.ndarray:
    """<ψ_X|Φ(|ψ><ψ|)|ψ_X> for each row ψ of psi, with ψ_X = σ_x ψ and Φ the
    protocol's unconditional cycle."""
    from .loop import build_superoperator  # deferred: loop builds on quantum only

    outs = build_superoperator(p).apply(np.einsum("na,nb->nab", psi, psi.conj()))
    targets = psi @ pauli_x.T  # σ_x ψ, row-wise
    return np.einsum("na,nab,nb->n", targets.conj(), outs, targets).real


def haar_avg_bitflip_fidelity(p, nodes: int = 32) -> float:
    """Haar-averaged fidelity of the protocol's output to sigma_x |psi>.

    (4π)^-1 ∬ <ψ_X|ρ_out(χ,φ)|ψ_X> sinχ dχ dφ over the pure-state sphere,
    with ψ_X = σ_x ψ. Requires a qubit protocol with identity noise (the
    bit-flip benchmark is defined without system noise).
    """
    if nodes < 4:
        raise ValueError(f"need at least 4 quadrature nodes per axis, got {nodes}")
    if p.d != 2:
        raise ValueError("the bit-flip benchmark is qubit-only")
    if len(p.noise.kraus) != 1 or not np.allclose(p.noise.kraus[0], np.eye(2), atol=1e-12):
        raise ValueError("the bit-flip benchmark assumes identity noise")
    psi, w, n_phi = _bloch_states(nodes)
    fids = _bitflip_fidelities(p, psi)
    per_polar = fids.reshape(nodes, n_phi).mean(axis=1)  # exact trapezoid on the circle
    return float(0.5 * np.sum(w * per_polar))


def haar_avg_bitflip_fidelity_mc(p, samples: int, seed: int) -> float:
    """Monte-Carlo cross-check of the quadrature: Haar qubit states drawn as
    normalised pairs of standard complex Gaussians."""
    if p.d != 2:
        raise ValueError("the bit-flip benchmark is qubit-only")
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((samples, 2)) + 1j * rng.standard_normal((samples, 2))
    psi = z / np.linalg.norm(z, axis=1, keepdims=True)
    return float(_bitflip_fidelities(p, psi).mean())
