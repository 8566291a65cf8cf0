"""Dense complex linear algebra for small Hilbert spaces (joint dimension <= 256).

Everything here is a thin, contract-enforcing layer over numpy: Kronecker
products, partial traces over a bipartite split, Hermitian eigendecompositions
with a fixed (descending) ordering, and the majorisation partial order on
spectra. All functions are pure and side-effect free.
"""

from __future__ import annotations

import numpy as np

# Matrices whose deviation from Hermiticity exceeds this are rejected;
# smaller deviations are silently symmetrised.
HERMITICITY_TOL = 1e-10


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product of two matrices."""
    return np.kron(np.asarray(a, dtype=complex), np.asarray(b, dtype=complex))


def max_abs(m: np.ndarray) -> float:
    """Entrywise max-norm, the norm used by most tolerances in this package."""
    return float(np.max(np.abs(m))) if np.size(m) else 0.0


def hermitize(m: np.ndarray, tol: float = HERMITICITY_TOL) -> np.ndarray:
    """Return (m + m†)/2, raising if m is further than `tol` from Hermitian.
    A stack of matrices (..., n, n) is symmetrised matrix by matrix."""
    m = np.asarray(m, dtype=complex)
    m_dag = np.swapaxes(m, -1, -2).conj()
    dev = max_abs(m - m_dag)
    if dev > tol:
        raise ValueError(f"matrix is not Hermitian: max|M - M†| = {dev:.3e} > {tol:.1e}")
    return 0.5 * (m + m_dag)


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
