"""The joint-space reference for one feedback cycle, kept for the tests only.

The package holds a cycle as one Liouville matrix per controller outcome. The
functions here compute the same maps another way, so that tests can compare
the two: Kronecker products and partial traces over the system-controller
space, Kraus sums and direct closed-form channels, Hermitian spectra and the
majorisation order, and a Monte-Carlo sampler over Haar-random qubit states.
The partial-swap coupling itself is `qfeedback.quantum.partial_swap`.

`branch_liouvillians` is the other kind of reference: it builds the branch
stack L with each Kraus tensor written out whole, as four outer products, and
the blocked kernel `qfeedback.loop.branch_liouvillians` must reproduce it bit
for bit.
"""

from __future__ import annotations

import numpy as np

from qfeedback.loop import _liouville, build_superoperator
from qfeedback.metrics import _bitflip_fidelities
from qfeedback.quantum import KrausChannel, check_density_matrix, hermitize, ket


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product of two matrices."""
    return np.kron(np.asarray(a, dtype=complex), np.asarray(b, dtype=complex))


def partial_trace(m: np.ndarray, dim_a: int, dim_b: int, keep: str = "A") -> np.ndarray:
    """Trace out one factor of a matrix on a (dim_a * dim_b)-dimensional space.

    `keep` selects the factor that survives ("A" = first, "B" = second).
    The full trace is preserved: tr(result) == tr(m).
    """
    m = np.asarray(m, dtype=complex)
    n = dim_a * dim_b
    if m.shape != (n, n):
        raise ValueError(f"expected a {n}x{n} matrix for dims ({dim_a},{dim_b}), got {m.shape}")
    m4 = m.reshape(dim_a, dim_b, dim_a, dim_b)
    if keep == "A":
        return np.einsum("abcb->ac", m4)
    if keep == "B":
        return np.einsum("abad->bd", m4)
    raise ValueError(f"keep must be 'A' or 'B', got {keep!r}")


def hermitian_eigs(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix, eigenvalues sorted descending.

    Returns (w, v) with real eigenvalues w[0] >= w[1] >= ... and v's columns
    the matching orthonormal eigenvectors. Input must be Hermitian within
    HERMITICITY_TOL; smaller deviations are symmetrised away.
    """
    h = hermitize(h)
    w, v = np.linalg.eigh(h)
    return w[::-1].copy(), v[:, ::-1].copy()


def majorizes(v, w, tol: float = 1e-12) -> bool:
    """True iff v ≺ w, i.e. w majorizes v.

    Both arguments must be probability vectors of equal length (sum 1 within
    1e-9). The check compares partial sums of the descending sorts: every
    partial sum of w must dominate the corresponding partial sum of v, up to
    `tol` of numerical slack.
    """
    v = np.asarray(v, dtype=float)
    w = np.asarray(w, dtype=float)
    if v.shape != w.shape or v.ndim != 1:
        raise ValueError(f"spectra must be equal-length vectors, got {v.shape} and {w.shape}")
    for name, x in (("v", v), ("w", w)):
        if abs(x.sum() - 1.0) > 1e-9:
            raise ValueError(f"{name} is not normalised: sum = {x.sum()!r}")
    pv = np.cumsum(np.sort(v)[::-1])
    pw = np.cumsum(np.sort(w)[::-1])
    return bool(np.all(pw - pv >= -tol))


def reset_channel(d: int, target: int = 0) -> KrausChannel:
    """Map every input to |target><target|; Kraus set {|target><j|}."""
    ops = tuple(np.outer(ket(d, target), ket(d, j).conj()) for j in range(d))
    return KrausChannel(d, ops)


def apply_channel(rho: np.ndarray, ch: KrausChannel) -> np.ndarray:
    """Kraus sum sum_j K_j rho K_j†, symmetrised."""
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (ch.dim, ch.dim):
        raise ValueError(f"state shape {rho.shape} does not match channel dim {ch.dim}")
    out = sum(k @ rho @ k.conj().T for k in ch.kraus)
    return hermitize(out, tol=np.inf)


def depolarize(rho: np.ndarray, lam: float) -> np.ndarray:
    """rho -> lam*rho + (1-lam)*1/d, evaluated directly (not via Kraus operators)."""
    if not 0.0 <= lam <= 1.0:
        raise ValueError(f"noise parameter must be in [0,1], got {lam}")
    rho = check_density_matrix(rho)
    d = rho.shape[0]
    return lam * rho + (1.0 - lam) * np.eye(d) / d


def amplitude_damp(rho: np.ndarray, gamma: float) -> np.ndarray:
    """Qubit amplitude damping applied directly to the matrix elements."""
    if not 0.0 <= gamma <= 1.0:
        raise ValueError(f"damping strength must be in [0,1], got {gamma}")
    rho = check_density_matrix(rho)
    if rho.shape != (2, 2):
        raise ValueError("amplitude damping is defined for qubits only")
    r = np.sqrt(1.0 - gamma)
    return np.array(
        [[rho[0, 0] + gamma * rho[1, 1], r * rho[0, 1]],
         [r * rho[1, 0], (1.0 - gamma) * rho[1, 1]]]
    )


def fidelity_to_pure(rho: np.ndarray, psi: np.ndarray) -> float:
    """<psi|rho|psi> for a normalised state vector psi."""
    psi = np.asarray(psi, dtype=complex)
    norm = np.linalg.norm(psi)
    if abs(norm - 1.0) > 1e-10:
        raise ValueError(f"psi must be normalised, got |psi| = {norm!r}")
    rho = check_density_matrix(rho)
    return float(np.real(psi.conj() @ rho @ psi))


def haar_avg_bitflip_fidelity_mc(p, samples: int, seed: int) -> float:
    """Monte-Carlo cross-check of the quadrature: Haar qubit states drawn as
    normalised pairs of standard complex Gaussians."""
    if p.d != 2:
        raise ValueError("the bit-flip benchmark is qubit-only")
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((samples, 2)) + 1j * rng.standard_normal((samples, 2))
    psi = z / np.linalg.norm(z, axis=1, keepdims=True)
    return float(_bitflip_fidelities(build_superoperator(p), psi).mean())


def branch_liouvillians(tau1, tau2, eta: np.ndarray, ops: np.ndarray, noise: np.ndarray) -> np.ndarray:
    """The branch stacks (P, J, d², d²) of `qfeedback.loop.branch_liouvillians`
    (same arguments; the transmissivities are not checked), each Kraus tensor
    built whole as the sum of four einsum outer products, ((T1 - T2) - T3) - T4,
    and the Liouville and noise products taken over the whole stack at once."""
    tau1, tau2 = np.asarray(tau1, dtype=float), np.asarray(tau2, dtype=float)
    n_pts, n_j, d, _ = ops.shape
    e, f = np.linalg.eigh(check_density_matrix(eta, what="controller reset state"))
    keep = e != 0.0
    support_codes = keep @ (1 << np.arange(d))
    out = np.empty((n_pts, n_j, d * d, d * d), dtype=complex)
    eye = np.eye(d)
    for code in dict.fromkeys(support_codes.tolist()):
        pts = np.flatnonzero(support_codes == code)
        support = keep[pts[0]]
        ep, fp, m = e[pts][:, support], f[pts][:, :, support], ops[pts]
        t1, t2 = tau1[pts, None, None, None, None, None], tau2[pts, None, None, None, None, None]
        mf = m @ fp[:, None]
        kraus = (np.sqrt(t2 * t1) * np.einsum("pjkl,ab->pjklab", mf, eye)
                 - 1j * np.sqrt(t2 * (1.0 - t1)) * np.einsum("pal,pjkb->pjklab", fp, m)
                 - 1j * np.sqrt((1.0 - t2) * t1) * np.einsum("pjal,kb->pjklab", mf, eye)
                 - np.sqrt((1.0 - t2) * (1.0 - t1)) * np.einsum("pkl,pjab->pjklab", fp, m))
        kraus = kraus.reshape(len(pts), n_j, d * ep.shape[1], d, d)  # [p, j, (k, l), a, b]
        out[pts] = _liouville(kraus, np.tile(ep, d)[:, None]) @ noise[pts, None]
    return out
