"""Figures of merit: entropies, purity, and the Haar-averaged fidelity of
the in-loop bit-flip task.

The Haar average is evaluated by deterministic tensor quadrature
(Gauss-Legendre in cos(chi), uniform trapezoid in the periodic azimuth), which
converges to machine precision for these low-degree integrands.
"""

from __future__ import annotations

import functools

import numpy as np

from .loop import build_superoperator, stack, unstack
from .quantum import check_density_matrix, checked_spectrum, pauli_x


def von_neumann_entropy(rho: np.ndarray, normalised: bool = False):
    """-sum λ ln λ in nats, divided by ln(d) when normalised (0·ln0 := 0).
    A stack of states (..., d, d) gives an array of entropies."""
    rho, w = checked_spectrum(rho)
    s = spectrum_entropy(w, normalised)
    return float(s) if rho.ndim == 2 else s


def spectrum_entropy(w: np.ndarray, normalised: bool = False) -> np.ndarray:
    """The von Neumann entropy of each checked state of a stack from its ascending spectrum (..., d)."""
    w = np.clip(w, 0.0, 1.0)
    support = w > 0.0  # the zero eigenvalues lead the ascending spectrum and are left out of the sum
    s = -np.sum(w * np.log(np.where(support, w, 1.0)), axis=-1, where=support) + 0.0  # avoid -0.0 for pure states
    return s / np.log(w.shape[-1]) if normalised else s


def linear_entropy(rho: np.ndarray):
    """1 - tr(rho²); an array for a stack of states (..., d, d)."""
    return 1.0 - purity(check_density_matrix(rho))


def purity(rho: np.ndarray):
    """tr(rho²); an array for a stack of states (..., d, d)."""
    rho = np.asarray(rho)
    tr = np.trace(rho @ rho, axis1=-2, axis2=-1).real
    return float(tr) if rho.ndim == 2 else tr


def steady_metrics(rho: np.ndarray, gap: np.ndarray, prefix: str = "", spectrum: bool = False) -> dict[str, np.ndarray]:
    """Metric columns of a stack of steady states (P, d, d) and their gaps, and the spectra (P, d) if asked.
    The stack is checked once, and the entropies read that check's symmetrised states and spectra."""
    w = np.sort(np.linalg.eigvalsh(rho), axis=-1)[:, ::-1]
    checked, checked_w = checked_spectrum(rho)
    columns = {
        f"{prefix}alpha0": w[:, 0],
        f"{prefix}entropy_vn_norm": spectrum_entropy(checked_w, normalised=True),
        f"{prefix}entropy_linear": 1.0 - purity(checked),
        f"{prefix}purity": purity(rho),
        f"{prefix}rho11": rho[:, 1, 1].real,
        f"{prefix}gap": gap,
    }
    return columns | {f"{prefix}spectrum": w} if spectrum else columns


@functools.lru_cache(maxsize=16)
def _bloch_states(nodes: int) -> tuple[np.ndarray, np.ndarray, int, tuple[np.ndarray, ...]]:
    """Quadrature grid of pure qubit inputs cos(χ/2)|0> + e^{iφ} sin(χ/2)|1>.

    Returns (psi, gl_weights, n_phi, inputs): psi has shape (nodes*nodes, 2) with the
    polar index varying slowest, and inputs is `_fidelity_inputs(psi)`. Cached per
    `nodes`; the arrays are read-only.
    """
    u, w = np.polynomial.legendre.leggauss(nodes)  # u = cos(chi) on [-1, 1]
    phi = 2.0 * np.pi * np.arange(nodes) / nodes
    cos_half = np.sqrt((1.0 + u) / 2.0)
    sin_half = np.sqrt((1.0 - u) / 2.0)
    psi0 = np.repeat(cos_half, nodes).astype(complex)
    psi1 = np.repeat(sin_half, nodes) * np.exp(1j * np.tile(phi, nodes))
    psi = np.stack([psi0, psi1], axis=1)
    inputs = _fidelity_inputs(psi)
    for a in (psi, w, *inputs):
        a.flags.writeable = False
    return psi, w, nodes, inputs


def _fidelity_inputs(psi: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """What the bit-flip fidelities read of the inputs ψ, the rows of psi: the projectors |ψ><ψ|
    column-stacked (n, 4), the targets ψ_X = σ_x ψ and their conjugates."""
    targets = psi @ pauli_x.T  # σ_x ψ, row-wise
    return stack(np.einsum("na,nb->nab", psi, psi.conj())), targets, targets.conj()


def _bitflip_fidelities(sop: np.ndarray, inputs: tuple[np.ndarray, np.ndarray, np.ndarray]) -> np.ndarray:
    """<ψ_X|Φ(|ψ><ψ|)|ψ_X> for each input ψ of `_fidelity_inputs`, with Φ the
    qubit cycle superoperator sop (4 x 4)."""
    projectors, targets, conj_targets = inputs
    outs = unstack(projectors @ sop.T, 2)
    return np.einsum("na,nab,nb->n", conj_targets, outs, targets).real


def haar_avg_bitflip_fidelity(p, nodes: int = 32) -> float:
    """Haar-averaged fidelity of the output of one qubit cycle to sigma_x |psi>.

    (4π)^-1 ∬ <ψ_X|ρ_out(χ,φ)|ψ_X> sinχ dχ dφ over the pure-state sphere,
    with ψ_X = σ_x ψ. p is a qubit protocol with identity noise (the bit-flip
    benchmark is defined without system noise), or the 4x4 superoperator of
    the cycle of one such protocol (a sweep point of a bit-flip scenario,
    whose noise is the identity channel and whose trace the sweep checks).
    `nodes` is an integer, at least 4.
    """
    if not isinstance(nodes, (int, np.integer)) or nodes < 4:
        raise ValueError(f"nodes must be an integer of at least 4 (quadrature nodes per axis), got {nodes!r}")
    if isinstance(p, np.ndarray):
        if p.shape != (4, 4):
            raise ValueError("the bit-flip benchmark is qubit-only")
        sop = p
    else:
        if p.d != 2:
            raise ValueError("the bit-flip benchmark is qubit-only")
        if len(p.noise.kraus) != 1 or not np.allclose(p.noise.kraus[0], np.eye(2), atol=1e-12):
            raise ValueError("the bit-flip benchmark assumes identity noise")
        sop = build_superoperator(p)
    _, w, n_phi, inputs = _bloch_states(nodes)
    per_polar = _bitflip_fidelities(sop, inputs).reshape(nodes, n_phi).mean(axis=1)  # exact trapezoid on the circle
    return float(0.5 * np.sum(w * per_polar))
