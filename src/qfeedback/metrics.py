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

from .loop import Superoperator, build_superoperator
from .quantum import check_density_matrix, pauli_x


def von_neumann_entropy(rho: np.ndarray, normalised: bool = False):
    """-sum λ ln λ in nats, divided by ln(d) when normalised (0·ln0 := 0).
    A stack of states (..., d, d) gives an array of entropies."""
    rho = check_density_matrix(rho)
    w = np.clip(np.linalg.eigvalsh(rho), 0.0, 1.0)
    support = w > 0.0  # the zero eigenvalues lead the ascending spectrum and are left out of the sum
    s = -np.sum(w * np.log(np.where(support, w, 1.0)), axis=-1, where=support) + 0.0  # avoid -0.0 for pure states
    s = s / np.log(rho.shape[-1]) if normalised else s
    return float(s) if rho.ndim == 2 else s


def linear_entropy(rho: np.ndarray):
    """1 - tr(rho²); an array for a stack of states (..., d, d)."""
    return 1.0 - purity(check_density_matrix(rho))


def purity(rho: np.ndarray):
    """tr(rho²); an array for a stack of states (..., d, d)."""
    rho = np.asarray(rho)
    tr = np.trace(rho @ rho, axis1=-2, axis2=-1).real
    return float(tr) if rho.ndim == 2 else tr


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


def _bitflip_fidelities(sop: Superoperator, psi: np.ndarray) -> np.ndarray:
    """<ψ_X|Φ(|ψ><ψ|)|ψ_X> for each row ψ of psi, with ψ_X = σ_x ψ and Φ the
    qubit cycle superoperator sop."""
    outs = sop.apply(np.einsum("na,nb->nab", psi, psi.conj()))
    targets = psi @ pauli_x.T  # σ_x ψ, row-wise
    return np.einsum("na,nab,nb->n", targets.conj(), outs, targets).real


def _check_bitflip_protocol(d: int, noise) -> None:
    if d != 2:
        raise ValueError("the bit-flip benchmark is qubit-only")
    if len(noise.kraus) != 1 or not np.allclose(noise.kraus[0], np.eye(2), atol=1e-12):
        raise ValueError("the bit-flip benchmark assumes identity noise")


def haar_avg_bitflip_fidelity(p, nodes: int = 32) -> float:
    """Haar-averaged fidelity of the output of one qubit cycle to sigma_x |psi>.

    (4π)^-1 ∬ <ψ_X|ρ_out(χ,φ)|ψ_X> sinχ dχ dφ over the pure-state sphere,
    with ψ_X = σ_x ψ. p is a qubit protocol with identity noise (the bit-flip
    benchmark is defined without system noise), or the Superoperator of the
    cycle of one such protocol (a sweep point, whose noise the sweep checks).
    """
    if nodes < 4:
        raise ValueError(f"need at least 4 quadrature nodes per axis, got {nodes}")
    if isinstance(p, Superoperator):
        if p.d != 2:
            raise ValueError("the bit-flip benchmark is qubit-only")
        sop = p
    else:
        _check_bitflip_protocol(p.d, p.noise)
        sop = build_superoperator(p)
    psi, w, n_phi = _bloch_states(nodes)
    per_polar = _bitflip_fidelities(sop, psi).reshape(nodes, n_phi).mean(axis=1)  # exact trapezoid on the circle
    return float(0.5 * np.sum(w * per_polar))


def haar_avg_bitflip_fidelity_mc(p, samples: int, seed: int) -> float:
    """Monte-Carlo cross-check of the quadrature: Haar qubit states drawn as
    normalised pairs of standard complex Gaussians."""
    if p.d != 2:
        raise ValueError("the bit-flip benchmark is qubit-only")
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((samples, 2)) + 1j * rng.standard_normal((samples, 2))
    psi = z / np.linalg.norm(z, axis=1, keepdims=True)
    return float(_bitflip_fidelities(build_superoperator(p), psi).mean())
