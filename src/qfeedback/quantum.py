"""States, channels, the system-controller coupling and the tolerance helpers
used by the feedback cycle.

Density matrices are plain complex ndarrays; `check_density_matrix` enforces
the invariants (Hermitian within 1e-10, unit trace within 1e-10, eigenvalues
above -1e-8). A channel is a `KrausChannel`: its Kraus operators as one
complex stack (n, d, d), as an in-loop stage is held, checked complete on
construction. `max_abs` is the entrywise norm most tolerances are stated in,
and `hermitize` symmetrises a matrix or refuses it.
Every check fails on NaN as well as on a deviation above its tolerance.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

# Matrices whose deviation from Hermiticity exceeds this are rejected;
# smaller deviations are silently symmetrised.
HERMITICITY_TOL = 1e-10
TRACE_TOL = 1e-10
EIG_FLOOR = -1e-8

pauli_x = np.array([[0, 1], [1, 0]], dtype=complex)


def max_abs(m: np.ndarray) -> float:
    """Entrywise max-norm, the norm used by most tolerances in this package."""
    return float(np.max(np.abs(m))) if np.size(m) else 0.0


def hermitize(m: np.ndarray, tol: float = HERMITICITY_TOL) -> np.ndarray:
    """Return (m + m†)/2, raising if m is further than `tol` from Hermitian or holds NaN.
    A stack of matrices (..., n, n) is symmetrised matrix by matrix."""
    m = np.asarray(m, dtype=complex)
    m_dag = np.swapaxes(m, -1, -2).conj()
    dev = max_abs(m - m_dag)
    if not dev <= tol:
        raise ValueError(f"matrix is not Hermitian: max|M - M†| = {dev:.3e} > {tol:.1e}")
    return 0.5 * (m + m_dag)


def ket(d: int, j: int) -> np.ndarray:
    """Computational basis vector |j> in dimension d."""
    v = np.zeros(d, dtype=complex)
    v[j] = 1.0
    return v


def dm(psi: np.ndarray) -> np.ndarray:
    """Projector |psi><psi| of a (normalised) state vector."""
    psi = np.asarray(psi, dtype=complex)
    return np.outer(psi, psi.conj())


def maximally_mixed(d: int) -> np.ndarray:
    return np.eye(d, dtype=complex) / d


def check_density_matrix(rho: np.ndarray, what: str = "state") -> np.ndarray:
    """Validate the density-matrix invariants and return the symmetrised matrix.
    A stack (..., d, d) is checked matrix by matrix; an error names the first failure."""
    return checked_spectrum(rho, what)[0]


def checked_spectrum(rho: np.ndarray, what: str = "state") -> tuple[np.ndarray, np.ndarray]:
    """`check_density_matrix`'s symmetrised matrix and the ascending eigenvalues that its check takes."""
    rho = np.asarray(rho, dtype=complex)
    if rho.ndim < 2 or rho.shape[-1] != rho.shape[-2]:
        raise ValueError(f"{what} must be a square matrix, got shape {rho.shape}")
    rho = hermitize(rho)
    tr = np.atleast_1d(np.trace(rho, axis1=-2, axis2=-1).real)
    off = ~(np.abs(tr - 1.0) <= TRACE_TOL)
    if off.any():
        raise ValueError(f"{what} has trace {tr[off][0]!r}, expected 1")
    w = np.linalg.eigvalsh(rho)
    wmin = float(w[..., 0].min(initial=np.inf))
    if not wmin >= EIG_FLOOR:
        raise ValueError(f"{what} has eigenvalue {wmin:.3e} below {EIG_FLOOR:.1e}")
    return rho, w


def clean_state(rho: np.ndarray) -> np.ndarray:
    """Per-cycle state hygiene: symmetrise, clip tiny negative eigenvalues, renormalise.

    Eigenvalues in [-1e-8, 0) are clipped to 0; anything below -1e-8 is an error.
    A stack (..., d, d) is cleaned matrix by matrix.
    """
    rho = hermitize(rho)
    w, v = np.linalg.eigh(rho)
    wmin = w[..., 0].min(initial=np.inf)
    if wmin < EIG_FLOOR:
        raise ValueError(f"state eigenvalue {wmin:.3e} below {EIG_FLOOR:.1e}")
    w = np.clip(w, 0.0, None)
    rho = (v * w[..., None, :]) @ np.swapaxes(v.conj(), -1, -2)
    return rho / np.trace(rho, axis1=-2, axis2=-1).real[..., None, None]


@dataclass(frozen=True, eq=False)
class KrausChannel:
    """A CP trace-preserving map given by Kraus operators {K_j}, sum K†K = 1,
    held as one complex stack (n, d, d), as an in-loop stage is held."""

    dim: int
    kraus: np.ndarray

    def __post_init__(self):
        if not len(self.kraus):
            raise ValueError("channel needs at least one Kraus operator")
        for k in self.kraus:
            if np.shape(k) != (self.dim, self.dim):
                raise ValueError(f"Kraus operator shape {np.shape(k)} != ({self.dim},{self.dim})")
        object.__setattr__(self, "kraus", check_complete(np.asarray(self.kraus, dtype=complex), self.dim))


def check_complete(ops: np.ndarray, dim: int) -> np.ndarray:
    """Kraus operators stacked (..., n, dim, dim), each set of n checked complete: max|ΣK†K - 1| within
    HERMITICITY_TOL, NaN failing. A refusal gives the deviation of the first set that fails."""
    # ΣK†K summed in operator order (numpy sums the 1x1 products of d = 1 pairwise), 64 operators
    # to a batched product: a d = 16 channel's 256 products at once would be a fresh 1 MB buffer,
    # slower than the chunks
    comp = None
    for start in range(0, ops.shape[-3], 64):
        stack = ops[..., start:start + 64, :, :]
        products = np.swapaxes(stack.conj(), -1, -2) @ stack
        comp = (products if comp is None else np.concatenate([comp, products], axis=-3)).sum(axis=-3, keepdims=True)
    dev = np.abs(comp[..., 0, :, :] - np.eye(dim)).max(axis=(-2, -1))
    failed = ~(dev <= HERMITICITY_TOL)
    if failed.any():
        raise ValueError(f"Kraus completeness violated: max|ΣK†K - 1| = {dev[failed][0]:.3e}")
    return ops


def identity_channel(d: int) -> KrausChannel:
    return KrausChannel(d, np.eye(d, dtype=complex)[None])


@functools.lru_cache(maxsize=16)
def _weyl_ops(d: int) -> np.ndarray:
    """The d² shift-and-clock unitaries S^a·C^b, stacked (d², d, d) in the order
    (a, b); the first is the identity. Their uniform twirl fully depolarises.
    Cached per d; the stack is read-only."""
    omega = np.exp(2j * np.pi / d)
    shift = np.roll(np.eye(d, dtype=complex), 1, axis=0)
    clock = np.diag(omega ** np.arange(d))
    ops = np.stack([np.linalg.matrix_power(shift, a) @ np.linalg.matrix_power(clock, b)
                    for a in range(d) for b in range(d)])
    ops.flags.writeable = False
    return ops


def _in_unit_interval(x, what: str) -> np.ndarray:
    """x as a float array, every value checked to lie in [0,1]; a refusal names the first that does not."""
    x = np.asarray(x, dtype=float)
    outside = ~((0.0 <= x) & (x <= 1.0))
    if outside.any():
        raise ValueError(f"{what} must be in [0,1], got {x[outside][0]}")
    return x


def depolarizing_kraus(d: int, lam) -> np.ndarray:
    """Kraus operators of rho -> lam*rho + (1-lam)*1/d, stacked (d², d, d): the Weyl unitaries scaled
    by √(lam + p) for the identity and √p for the others, p = (1 - lam)/d². An array of lam gives
    one stack per value, (..., d², d, d)."""
    lam = _in_unit_interval(lam, "noise parameter")
    p = (1.0 - lam) / d**2
    scale = np.repeat(np.sqrt(p)[..., None], d * d, axis=-1)
    scale[..., 0] = np.sqrt(lam + p)
    return scale[..., None, None] * _weyl_ops(d)


def depolarizing_channel(d: int, lam: float) -> KrausChannel:
    """The depolarising channel of `depolarizing_kraus`."""
    return KrausChannel(d, depolarizing_kraus(d, lam))


def amplitude_damping_kraus(gamma) -> np.ndarray:
    """Qubit decay towards |0> with strength gamma: E0 = √γ|0><1|, E1 = √(1-γ)|1><1| + |0><0|, stacked
    (2, 2, 2). An array of gamma gives one stack per value, (..., 2, 2, 2)."""
    gamma = _in_unit_interval(gamma, "damping strength")
    kraus = np.zeros((*gamma.shape, 2, 2, 2), dtype=complex)
    kraus[..., 0, 0, 1], kraus[..., 1, 0, 0], kraus[..., 1, 1, 1] = np.sqrt(gamma), 1.0, np.sqrt(1.0 - gamma)
    return kraus


def amplitude_damping_channel(gamma: float) -> KrausChannel:
    """The amplitude-damping channel of `amplitude_damping_kraus`."""
    return KrausChannel(2, amplitude_damping_kraus(gamma))


def swap_operator(d: int) -> np.ndarray:
    """The two-qudit swap S |a,b> = |b,a> on a d²-dimensional space."""
    return np.eye(d * d).reshape(d, d, d, d).transpose(0, 1, 3, 2).reshape(d * d, d * d).astype(complex)


# No package code calls partial_swap; it stays while perfbench/tracing.py traces it by name.
def partial_swap(d: int, tau: float) -> np.ndarray:
    """Partial-swap coupling √τ·1 - i√(1-τ)·S, the system-controller interaction.

    tau is the transmissivity: tau=1 is no interaction, tau=0 a full swap
    (times a global phase -i).
    """
    if not 0.0 <= tau <= 1.0:
        raise ValueError(f"transmissivity must be in [0,1], got {tau}")
    n = d * d
    return np.sqrt(tau) * np.eye(n, dtype=complex) - 1j * np.sqrt(1.0 - tau) * swap_operator(d)


def qubit_unitary(chi: float, phi1: float = 0.0, phi2: float = 0.0) -> np.ndarray:
    """General 2x2 unitary [[e^{iφ1}cosχ, e^{iφ2}sinχ], [-e^{-iφ2}sinχ, e^{-iφ1}cosχ]]."""
    c, s = np.cos(chi), np.sin(chi)
    return np.array(
        [[np.exp(1j * phi1) * c, np.exp(1j * phi2) * s],
         [-np.exp(-1j * phi2) * s, np.exp(-1j * phi1) * c]]
    )


def rotation(chi: float) -> np.ndarray:
    """The in-loop rotation cosχ·1 + i sinχ·σ_y = [[cosχ, sinχ], [-sinχ, cosχ]]."""
    return qubit_unitary(chi)


def controller_state(d: int, spec) -> np.ndarray:
    """Resolve a controller reset-state spec to a density matrix.

    Accepts "noisy" (maximally mixed), "clean" (|0><0|), a float eta0 in [0,1]
    for the qubit diagonal family diag(eta0, 1-eta0), or an explicit d x d matrix.
    """
    if isinstance(spec, str):
        if spec == "noisy":
            return maximally_mixed(d)
        if spec == "clean":
            return dm(ket(d, 0))
        raise ValueError(f"unknown controller preset {spec!r}")
    if isinstance(spec, (int, float)) and not isinstance(spec, bool):
        if d != 2:
            raise ValueError("the eta0 diagonal family is defined for qubit controllers")
        return eta0_states(_in_unit_interval(spec, "eta0"))
    rho = np.asarray(spec, dtype=complex)
    if rho.shape != (d, d):
        raise ValueError(f"controller state must be {d}x{d}, got shape {rho.shape}")
    return check_density_matrix(rho, what="controller state")


def eta0_states(eta0) -> np.ndarray:
    """The qubit controller states diag(eta0, 1-eta0) of an array of eta0 in [0,1], stacked (..., 2, 2)."""
    eta0 = np.asarray(eta0, dtype=float)
    states = np.zeros((*eta0.shape, 2, 2), dtype=complex)
    states[..., 0, 0], states[..., 1, 1] = eta0, 1.0 - eta0
    return states


def unitary_mapping(src: np.ndarray, dst: np.ndarray) -> np.ndarray:
    """A unitary sending the state vector `src` to `dst` (up to global phase).

    Implemented as a Householder reflection after phase-aligning the pair.
    """
    src = np.asarray(src, dtype=complex)
    dst = np.asarray(dst, dtype=complex)
    overlap = np.vdot(dst, src)
    if abs(overlap) > 1e-14:
        dst = dst * (overlap / abs(overlap))
    w = src - dst
    nw2 = np.vdot(w, w).real
    if nw2 < 1e-28:
        return np.eye(len(src), dtype=complex)
    return np.eye(len(src), dtype=complex) - 2.0 * np.outer(w, w.conj()) / nw2


def random_unitary(d: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-random unitary via QR of a complex Gaussian matrix."""
    z = (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_density_matrix(d: int, rng: np.random.Generator) -> np.ndarray:
    """Random full-rank state: normalised GG† with G complex Gaussian."""
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def random_kraus_channel(d: int, n_ops: int, rng: np.random.Generator) -> KrausChannel:
    """Random channel: n_ops Kraus operators from a Haar unitary on a dilated space."""
    u = random_unitary(d * n_ops, rng)
    return KrausChannel(d, u[:, :d].reshape(n_ops, d, d))
