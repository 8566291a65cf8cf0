"""The feedback cycle: one collision consists of noise on the system, a first
partial-swap collision with the controller, an in-loop stage acting on the
controller alone (a unitary for coherent feedback, a measurement plus
outcome-conditioned unitary for measurement-based feedback, or a general
POVM), a second partial swap, and a reset of the controller.

One cycle splits into one branch per controller outcome j, each a d²xd²
Liouville matrix L_j on column-stacked density matrices, vec(AρB) =
(Bᵀ⊗A) vec ρ (Wood, Biamonte & Cory, QIC 2015): with η = Σ_l e_l |f_l><f_l|
and A_jkl = (1⊗<k|) U₂ (1⊗M_j) U₁ (1⊗|f_l>), L_j = (Σ_kl e_l Ā_jkl⊗A_jkl)·N,
where N = Σ K̄⊗K is the noise channel. The stack L (J x d² x d²) is built
once per protocol; the superoperator Σ_j L_j, its steady state (cross-checked
by fixed-point iteration), the branch probabilities vec(1)ᵀ L_j vec ρ and the
seeded trajectories (trajectory i is row i of one ensemble) read from it.

An ensemble step works on distinct values. The trajectories' states repeat
heavily at d = 2, so each step contracts L only with the distinct states
(keyed on their bytes) and cleans each distinct (state, outcome) pair once,
gathering the results back to every row. A contraction's row depends on no
other row, so the arrays are bit for bit those of a step per row. Once a step
starts from more distinct states than half the rows (often at d = 3),
the ensemble steps every row on its own for the rest of the run.

Many protocols (the points of a sweep) are built as one (P, J, d², d²) stack
by `branch_liouvillians` and solved as one batch by `steady_states`; a single
protocol is the one-point case of both.

The controller is a single qudit; protocols with composite controllers are
out of scope (the stage types are the extension point).
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .quantum import (
    HERMITICITY_TOL,
    KrausChannel,
    check_density_matrix,
    clean_state,
    hermitize,
    ket,
    max_abs,
    unitary_mapping,
)

PROBABILITY_FLOOR = 1e-15
# Joint system-controller dimension d² <= 256. The branch stack L holds
# J·d⁴ complex entries: 16.8 MB at d = 16 with J = d.
MAX_DIM = 16
# A batch of protocols is built and solved in blocks whose L stacks hold at
# most this many bytes (at least one protocol per block).
MAX_BLOCK_BYTES = 1 << 24


class DegenerateSteadyStateError(RuntimeError):
    """The cycle superoperator has more than one eigenvalue of unit magnitude."""


def _check_unitary(u: np.ndarray, d: int, what: str) -> np.ndarray:
    u = np.asarray(u, dtype=complex)
    if u.shape != (d, d):
        raise ValueError(f"{what} must be {d}x{d}, got {u.shape}")
    dev = max_abs(u.conj().T @ u - np.eye(d))
    if not dev <= HERMITICITY_TOL:
        raise ValueError(f"{what} is not unitary: max|U†U - 1| = {dev:.3e}")
    return u


@dataclass(frozen=True, eq=False)
class CoherentStage:
    """Coherent feedback: a single unitary applied to the controller in-loop."""

    unitary: np.ndarray

    def controller_ops(self, d: int) -> list[np.ndarray]:
        return [_check_unitary(self.unitary, d, "in-loop unitary")]


@dataclass(frozen=True, eq=False)
class ProjectiveStage:
    """Projective measurement of the controller followed by per-outcome unitaries.

    `basis` holds the measurement basis as columns (identity = computational
    basis); `feedback[j]` is the unitary applied after outcome j.
    """

    feedback: tuple[np.ndarray, ...]
    basis: np.ndarray | None = None

    def controller_ops(self, d: int) -> list[np.ndarray]:
        if len(self.feedback) != d:
            raise ValueError(f"need {d} feedback unitaries, got {len(self.feedback)}")
        b = np.eye(d, dtype=complex) if self.basis is None else _check_unitary(self.basis, d, "measurement basis")
        ops = []
        for j, v in enumerate(self.feedback):
            vj = _check_unitary(v, d, f"feedback unitary {j}")
            proj = np.outer(b[:, j], b[:, j].conj())
            ops.append(vj @ proj)
        return ops


@dataclass(frozen=True, eq=False)
class PovmStage:
    """General in-loop POVM with Kraus operators K_j (feedback unitaries absorbed)."""

    kraus: tuple[np.ndarray, ...]

    def controller_ops(self, d: int) -> list[np.ndarray]:
        ch = KrausChannel(d, tuple(self.kraus))  # re-validates completeness
        return list(ch.kraus)


InLoopStage = CoherentStage | ProjectiveStage | PovmStage


def all_to_target_stage(d: int, target: np.ndarray | int = 0) -> ProjectiveStage:
    """Projective stage that maps every measurement outcome to the same state.

    This is the optimal cooling feedback: measure in the computational basis
    and re-prepare the controller in `target` regardless of the outcome.
    """
    tgt = ket(d, target) if isinstance(target, int) else np.asarray(target, dtype=complex)
    vs = tuple(unitary_mapping(ket(d, j), tgt) for j in range(d))
    return ProjectiveStage(feedback=vs)


@dataclass(frozen=True, eq=False)
class FeedbackProtocol:
    """Everything defining one feedback collision.

    d: system (= controller) dimension, at most MAX_DIM; noise: the CP map
    hitting the system at the start of each cycle; tau1/tau2: transmissivities
    of the two partial swaps; eta: controller reset state; stage: the in-loop
    operation. L, built on construction, is the stack of per-outcome Liouville
    matrices (J x d² x d², column-stacking convention).
    """

    d: int
    noise: KrausChannel
    tau1: float
    tau2: float
    eta: np.ndarray
    stage: InLoopStage
    L: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        d = self.d
        if d > MAX_DIM:
            raise ValueError(f"d = {d} exceeds the limit d <= {MAX_DIM} (joint dimension d² <= {MAX_DIM ** 2})")
        if self.noise.dim != d:
            raise ValueError(f"noise channel dim {self.noise.dim} != {d}")
        object.__setattr__(self, "eta", check_density_matrix(self.eta, what="controller reset state"))
        if self.eta.shape != (d, d):
            raise ValueError(f"controller reset state shape {self.eta.shape} != ({d},{d})")
        object.__setattr__(self, "L", _branch_liouvillians(self, self.tau2))  # checks tau1 and tau2

    @property
    def n_outcomes(self) -> int:
        return len(self.L)


def _liouville(ops: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Σ_i w_i Ā_i⊗A_i for each stack of operators A_i in ops, shape (..., n, d, d),
    with weights (..., n): with X[i, (b, e)] = A_i[b, e], Xᵀ·diag(w)·X̄ holds
    Σ_i w_i A_i[b, e] Ā_i[a, c], which a reshuffle moves to the Kronecker index
    [(a, b), (c, e)]."""
    *lead, n, d, _ = ops.shape
    x = ops.reshape(*lead, n, d * d)
    prod = np.swapaxes(x, -1, -2) @ (weights[..., None] * x.conj())
    k = len(lead)
    return (prod.reshape(*lead, d, d, d, d).transpose(*range(k), k + 2, k, k + 3, k + 1)
            .reshape(*lead, d * d, d * d))


def noise_liouville(noise: KrausChannel) -> np.ndarray:
    """The d²xd² Liouville matrix Σ K̄⊗K of a noise channel."""
    return _liouville(np.stack(noise.kraus), np.ones(len(noise.kraus)))


def branch_liouvillians(tau1, tau2, eta: np.ndarray, ops: np.ndarray, noise: np.ndarray) -> np.ndarray:
    """Per-outcome Liouville matrices of P cycles, stacked (P, J, d², d²).

    Point p has transmissivities tau1[p] and tau2[p] (a tau2 of 1 stops before
    the second coupling), reset state eta[p] (d x d), in-loop controller
    operators ops[p] (J x d x d) and noise Liouville matrix noise[p] (d² x d²).
    Every point's transmissivities and reset state are checked.

    U = √τ·1 - i√(1-τ)·S splits U₂(1⊗M_j)U₁ into four terms, so A_jkl =
    c₁₁<k|M_j|f_l> 1 - i c₁₂|f_l><k|M_j - i c₂₁ M_j|f_l><k| - c₂₂<k|f_l> M_j.
    Each c is one square root, e.g. c₁₂ = √(τ₂(1-τ₁)), not a product of two,
    which keeps dyadic entries (τ = 1/2) exact.
    """
    tau1, tau2 = np.asarray(tau1, dtype=float), np.asarray(tau2, dtype=float)
    for name, t in (("tau1", tau1), ("tau2", tau2)):
        outside = ~((0.0 <= t) & (t <= 1.0))
        if outside.any():
            raise ValueError(f"{name} must be in [0,1], got {t[outside][0]}")
    eta = check_density_matrix(eta, what="controller reset state")
    n_pts, n_j, d, _ = ops.shape
    e, f = np.linalg.eigh(eta)
    # a pure or rank-deficient reset state needs fewer Kraus terms: points are built by the support of η
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


def _branch_liouvillians(p: FeedbackProtocol, tau2: float) -> np.ndarray:
    """Per-outcome Liouville matrices of the cycle of p with its second coupling
    at transmissivity `tau2` (p.tau2; 1 stops before the second coupling)."""
    ops = np.stack(p.stage.controller_ops(p.d))
    return branch_liouvillians([p.tau1], [tau2], p.eta[None], ops[None], noise_liouville(p.noise)[None])[0]


def _check_state(rho: np.ndarray, p: FeedbackProtocol) -> np.ndarray:
    """A density matrix of the protocol's dimension, symmetrised."""
    rho = check_density_matrix(rho)
    if rho.shape != (p.d, p.d):
        raise ValueError(f"state shape {rho.shape} does not match protocol d={p.d}")
    return rho


def cycle_unconditional(rho: np.ndarray, p: FeedbackProtocol) -> np.ndarray:
    """One unconditional feedback collision (measurement outcomes averaged over)."""
    rho = _check_state(rho, p)
    return clean_state(unstack(p.L.sum(axis=0) @ stack(rho), p.d))


def conditional_branches(rho: np.ndarray, p: FeedbackProtocol) -> list[tuple[float, np.ndarray]]:
    """Per-outcome (probability, normalised post-cycle system state)."""
    rho = _check_state(rho, p)
    outs = p.L @ stack(rho)
    branches = []
    for prob, out in zip(_traces(outs, p.d).tolist(), outs):
        if prob > PROBABILITY_FLOOR:
            branches.append((prob, clean_state(unstack(out, p.d) / prob)))
        else:
            branches.append((max(prob, 0.0), np.full((p.d, p.d), np.nan)))
    return branches


def stack(rho: np.ndarray) -> np.ndarray:
    """Column-stack a matrix (or the last two axes of a batch) into a vector."""
    rho = np.asarray(rho, dtype=complex)
    return np.swapaxes(rho, -1, -2).reshape(*rho.shape[:-2], -1)


def unstack(vec: np.ndarray, d: int) -> np.ndarray:
    vec = np.asarray(vec, dtype=complex)
    return np.swapaxes(vec.reshape(*vec.shape[:-1], d, d), -1, -2)


def _traces(vecs: np.ndarray, d: int) -> np.ndarray:
    """vec(1)ᵀ v along the last axis: the traces of column-stacked matrices."""
    return vecs[..., :: d + 1].sum(axis=-1).real


@dataclass(frozen=True, eq=False)
class Superoperator:
    """d²xd² matrix of one unconditional cycle, acting on column-stacked states."""

    d: int
    matrix: np.ndarray

    def __post_init__(self):
        n = self.d * self.d
        m = np.asarray(self.matrix, dtype=complex)
        if m.shape != (n, n):
            raise ValueError(f"superoperator must be {n}x{n}, got {m.shape}")
        _check_trace_preserving(m, self.d)
        object.__setattr__(self, "matrix", m)

    def apply(self, rho: np.ndarray) -> np.ndarray:
        """The map applied to a matrix or a batch of matrices (no validation or hygiene)."""
        return unstack(stack(rho) @ self.matrix.T, self.d)


def _check_trace_preserving(m: np.ndarray, d: int) -> None:
    """Every superoperator of the stack (..., d², d²) has the stacked identity as a left fixed vector."""
    dev = max_abs(stack(np.eye(d)) @ m - stack(np.eye(d)))
    if dev > 1e-10:
        raise ValueError(f"superoperator does not preserve trace: deviation {dev:.3e}")


def build_superoperator(p: FeedbackProtocol) -> Superoperator:
    """The cycle superoperator Σ_j L_j."""
    return Superoperator(p.d, p.L.sum(axis=0))


def superoperators(L: np.ndarray, d: int) -> np.ndarray:
    """The cycle superoperators Σ_j L_j of a batch of branch stacks (P, J, d², d²), checked."""
    m = L.sum(axis=1)
    _check_trace_preserving(m, d)
    return m


def degenerate_error(second: float) -> DegenerateSteadyStateError:
    return DegenerateSteadyStateError(
        f"second eigenvalue magnitude {second:.12f} is within 1e-8 of 1; the steady state is not unique"
    )


def steady_states(sops: np.ndarray, d: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Fixed points of a stack of cycle superoperators (P, d², d²), their
    second eigenvalue magnitudes |λ₂| (the spectral gap is 1 - |λ₂|) and the
    mask of degenerate points.

    Solved by full eigendecomposition, taking the eigenvector of the eigenvalue
    nearest 1. A point whose |λ₂| lies within 1e-8 of 1 has no unique fixed
    point: it is degenerate, and its state is left NaN.
    """
    evals, evecs = np.linalg.eig(sops)
    second = np.sort(np.abs(evals), axis=-1)[:, -2] if d > 1 else np.zeros(len(sops))  # d = 1: no λ₂
    degenerate = second > 1.0 - 1e-8
    states = np.full((len(sops), d, d), np.nan, dtype=complex)
    unique = np.flatnonzero(~degenerate)
    nearest = np.argmin(np.abs(evals[unique] - 1.0), axis=-1)
    rho = hermitize(unstack(evecs[unique, :, nearest], d), tol=np.inf)
    states[unique] = clean_state(rho / np.trace(rho, axis1=-2, axis2=-1).real[:, None, None])
    return states, second, degenerate


def steady_state(p: FeedbackProtocol) -> tuple[np.ndarray, float]:
    """Fixed point of the unconditional cycle and the spectral gap 1 - |λ₂|:
    the one-protocol case of `steady_states`. Raises DegenerateSteadyStateError
    when a second eigenvalue sits within 1e-8 of unit magnitude.
    """
    (rho,), (second,), (degenerate,) = steady_states(build_superoperator(p).matrix[None], p.d)
    if degenerate:
        raise degenerate_error(second)
    return rho, float(1.0 - second)


def iterate_to_fixed_point(
    rho0: np.ndarray, p: FeedbackProtocol, steps: int
) -> np.ndarray:
    """Apply the unconditional cycle `steps` times; independent steady-state path."""
    rho = check_density_matrix(rho0)
    for _ in range(steps):
        rho = cycle_unconditional(rho, p)
    return rho


@dataclass
class EnsembleResult:
    """Arrays indexed (trajectory, step); final_states is (trajectory, d, d)."""

    outcomes: np.ndarray
    probabilities: np.ndarray
    entropies: np.ndarray
    rho11: np.ndarray
    final_states: np.ndarray
    majorization_violation: float | None = None


def _entropy_batch(w: np.ndarray, d: int) -> np.ndarray:
    w = np.clip(w, 0.0, 1.0)
    terms = np.where(w > 0.0, -w * np.log(np.where(w > 0.0, w, 1.0)), 0.0)
    return terms.sum(axis=-1) / np.log(d)


# the contraction order numpy's optimize=True picks for the hygiene einsum at every n and d, given
# once so that it is not searched for at every step
_HYGIENE_PATH = ["einsum_path", (0, 1), (0, 1)]


def _hygiene_batch(states: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Batched per-cycle hygiene; returns cleaned states and their spectra (ascending)."""
    states = 0.5 * (states + np.conj(np.swapaxes(states, -1, -2)))
    w, v = np.linalg.eigh(states)
    if float(w.min()) < -1e-8:
        raise ValueError(f"trajectory state eigenvalue {w.min():.3e} below -1e-8")
    w = np.clip(w, 0.0, None)
    w /= w.sum(axis=-1, keepdims=True)
    states = np.einsum("nij,nj,nkj->nik", v, w, v.conj(), optimize=_HYGIENE_PATH)
    return states, w


def _distinct_rows(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct rows of x (m, k), keyed on their bytes, and for each row of x the index of its copy."""
    keys = np.ascontiguousarray(x).view(np.dtype((np.void, x.itemsize * x.shape[1]))).ravel()
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    return x[first], inverse


def _run_chunk(
    rho0: np.ndarray,
    p: FeedbackProtocol,
    seed: int,
    rows: slice,
    out: EnsembleResult,
    check_majorization: bool,
) -> float:
    """Fill rows `rows` of `out` with trajectories rows.start..rows.stop-1 and
    return their worst majorisation violation (-inf when unchecked).

    Every step draws outcome j by inverse CDF over p_j = vec(1)ᵀ L_j vec ρ,
    on distinct values until the chunk is more than half distinct (see the
    module docstring).
    """
    d, steps, n_out = p.d, out.outcomes.shape[1], len(p.L)
    # counter-based per-trajectory streams: ensembles are reproducible and
    # order-independent no matter how they are chunked across workers
    uniforms = np.stack([np.random.default_rng((seed, i)).random(steps) for i in range(rows.start, rows.stop)])
    n = len(uniforms)
    idx = np.arange(n)
    # the states (stacked), and where each row's state is among them
    vecs, at, dedupe = stack(rho0)[None], np.zeros(n, dtype=np.intp), True
    worst = -np.inf
    # branch maps that stop before the second coupling: the pre-U₂ system state
    mids = _branch_liouvillians(p, 1.0) if check_majorization else None
    for t in range(steps):
        if dedupe:
            vecs, inverse = _distinct_rows(vecs)
            at = inverse[at]
            if 2 * len(vecs) > n:  # more than half distinct: np.unique no longer pays
                vecs, at, dedupe = vecs[at], slice(None), False
        outs = np.einsum("jab,nb->jna", p.L, vecs)
        probs = _traces(outs, d).T
        cum = np.cumsum(probs, axis=1)[at]
        u = uniforms[:, t] * cum[:, -1]
        chosen = (u[:, None] >= cum).sum(axis=1)
        np.clip(chosen, 0, n_out - 1, out=chosen)
        if dedupe:  # each distinct (state, outcome) pair
            pairs, pair_at = np.unique(at * n_out + chosen, return_inverse=True)
            src, pick = np.divmod(pairs, n_out)
        else:
            src, pick, pair_at = idx, chosen, at
        pj = probs[src, pick]
        if float(pj.min()) <= PROBABILITY_FLOOR:
            raise RuntimeError(f"sampled a branch with probability {pj.min():.3e}, below the floor")
        states, spectra = _hygiene_batch(unstack(outs[pick, src] / pj[:, None], d))
        if mids is not None:
            rho_j = unstack(np.einsum("nab,nb->na", mids[chosen], vecs[at]) / pj[pair_at, None], d)
            w_mid = np.sort(np.linalg.eigvalsh(0.5 * (rho_j + np.conj(np.swapaxes(rho_j, 1, 2)))), axis=1)[:, ::-1]
            # spectrum of the branch output must be majorized by
            # tau2 * spectrum(rho_j) + (1 - tau2) * (pure spectrum)
            bound = p.tau2 * w_mid
            bound[:, 0] += 1.0 - p.tau2
            viol = np.cumsum(np.sort(spectra[pair_at], axis=1)[:, ::-1], axis=1) - np.cumsum(bound, axis=1)
            worst = max(worst, float(viol.max()))
        at = pair_at
        out.outcomes[rows, t] = chosen
        out.probabilities[rows, t] = pj[at]
        out.entropies[rows, t] = _entropy_batch(spectra, d)[at]
        out.rho11[rows, t] = states[:, 1, 1].real[at]
        vecs = stack(states)
    out.final_states[rows] = states[at]
    return worst


def sample_ensemble(
    rho0: np.ndarray,
    p: FeedbackProtocol,
    steps: int,
    n_traj: int,
    seed: int,
    threads: int = 1,
    check_majorization: bool = False,
) -> EnsembleResult:
    """Sample n_traj conditional (filtered) trajectories of `steps` cycles each.

    Trajectory i is row i, drawn from the stream of (seed, i). With
    threads > 1 the rows are chunked across a worker pool; results do not
    depend on the chunking. Coherent stages are deterministic: outcome 0 with
    probability 1.
    """
    if n_traj < 1 or steps < 1:
        raise ValueError(f"steps and n_traj must be at least 1, got steps={steps}, n_traj={n_traj}")
    rho0 = _check_state(rho0, p)
    out = EnsembleResult(*(np.empty((n_traj, steps), dtype) for dtype in (np.int64, float, float, float)),
                         final_states=np.empty((n_traj, p.d, p.d), dtype=complex))
    n_chunks = 1 if threads <= 1 or n_traj < 2 * threads else threads
    bounds = np.linspace(0, n_traj, n_chunks + 1, dtype=int)
    chunks = [slice(a, b) for a, b in zip(bounds[:-1], bounds[1:]) if b > a]
    with ThreadPoolExecutor(max_workers=len(chunks)) as pool:
        worst = max(pool.map(lambda rows: _run_chunk(rho0, p, seed, rows, out, check_majorization), chunks))
    out.majorization_violation = worst if check_majorization else None
    return out
