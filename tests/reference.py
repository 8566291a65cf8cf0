"""The joint-space reference for one feedback cycle, kept for the tests only.

The package holds a cycle as one Liouville matrix per controller outcome. The
functions here compute the same maps another way, so that tests can compare
the two: Kronecker products and partial traces over the system-controller
space, Kraus sums and direct closed-form channels, Hermitian spectra and the
majorisation order, and a Monte-Carlo sampler over Haar-random qubit states.
The partial-swap coupling itself is `qfeedback.quantum.partial_swap`;
`joint_branch_maps` builds one cycle's per-outcome maps from it in the joint
space.

`steady_row`, `cf_no_cooling_worst` and `spectrum_grid_worst` are the
per-protocol paths that `steady` and two `validate` checks took before they
read batched metric rows and Liouville stacks: one `FeedbackProtocol` and one
`steady_state` per point, with the seeds and draw order of the batched paths.

`branch_liouvillians` is the other kind of reference: it builds the branch
stack L with each Kraus tensor written out whole, as four outer products, and
the blocked kernel `qfeedback.loop.branch_liouvillians` must reproduce it bit
for bit. So are `point_parts`, the parts of one sweep point built alone, as a
sweep built them before it built them per axis and block, and
`bitflip_fidelities`, the Haar quadrature's integrand with every node array
computed at each call: `scenarios.metric_rows` and
`metrics.haar_avg_bitflip_fidelity` must reproduce them bit for bit.
"""

from __future__ import annotations

import numpy as np

from qfeedback import scenarios
from qfeedback.loop import (FeedbackProtocol, _liouville, all_to_target_stage, apply, build_superoperator,
                            coherent_stage, cycle_unconditional, povm_stage, stack, steady_state)
from qfeedback.metrics import _bitflip_fidelities, _fidelity_inputs, steady_metrics, von_neumann_entropy
from qfeedback.quantum import (KrausChannel, _weyl_ops, check_density_matrix, depolarizing_channel, hermitize, ket,
                               maximally_mixed, partial_swap, pauli_x, random_density_matrix, random_unitary)
from qfeedback.scenarios import SCENARIOS, _with_oracle, build_protocols, resolve_config


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


def joint_branch_maps(tau1: float, tau2: float, eta: np.ndarray, ops: np.ndarray, noise: KrausChannel) -> np.ndarray:
    """The per-outcome Liouville matrices (J, d², d²) of one cycle, built in the
    joint space: column a + d*b of map j is the image of |a><b| under the noise,
    the product with η, U₁ (transmissivity tau1), 1⊗M_j for the controller
    operator ops[j], U₂ (transmissivity tau2) and the controller trace."""
    d = len(eta)
    maps = []
    for m in ops:
        g = partial_swap(d, tau2) @ np.kron(np.eye(d), m) @ partial_swap(d, tau1)
        cols = []
        for b in range(d):
            for a in range(d):
                unit = np.zeros((d, d), dtype=complex)
                unit[a, b] = 1.0
                noisy = sum(k @ unit @ k.conj().T for k in noise.kraus)
                joint = g @ np.kron(noisy, eta) @ g.conj().T
                cols.append(stack(partial_trace(joint, d, d, keep="A")))
        maps.append(np.column_stack(cols))
    return np.array(maps)


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
    return float(_bitflip_fidelities(build_superoperator(p), _fidelity_inputs(psi)).mean())


def bitflip_fidelities(sop: np.ndarray, psi: np.ndarray) -> np.ndarray:
    """<ψ_X|Φ(|ψ><ψ|)|ψ_X> for each row ψ of psi, with ψ_X = σ_x ψ: the projectors, the targets
    and their conjugates computed at the call."""
    outs = apply(sop, np.einsum("na,nb->nab", psi, psi.conj()))
    targets = psi @ pauli_x.T
    return np.einsum("na,nab,nb->n", targets.conj(), outs, targets).real


def depolarizing_kraus(d: int, lam: float) -> np.ndarray:
    """The Kraus operators (d², d, d) of one depolarising channel."""
    p = (1.0 - lam) / d**2
    scale = np.full(d * d, np.sqrt(p))
    scale[0] = np.sqrt(lam + p)
    return scale[:, None, None] * _weyl_ops(d)


def amplitude_damping_kraus(gamma: float) -> np.ndarray:
    """The Kraus operators (2, 2, 2) of one amplitude-damping channel."""
    e0 = np.sqrt(gamma) * np.array([[0, 1], [0, 0]], dtype=complex)
    e1 = np.array([[1, 0], [0, np.sqrt(1.0 - gamma)]], dtype=complex)
    return np.stack([e0, e1])


def bitflip_povm_kraus(a: float, b: float) -> tuple[np.ndarray, np.ndarray]:
    """The bit-flip POVM {σ_x P0, σ_x P1}, P0 = diag(a, b), of one point."""
    p0 = np.diag([a, b]).astype(complex)
    p1 = np.diag([np.sqrt(1.0 - a * a), np.sqrt(1.0 - b * b)]).astype(complex)
    return pauli_x @ p0, pauli_x @ p1


def point_parts(cfg: dict) -> dict:
    """The parts of `scenarios._batch_parts` of one resolved config, keyed as there, built for that
    point alone: the noise Liouville matrix of its own Kraus operators, η, and each label's stage,
    with the axis-batched stages (`bitflip-povm`'s POVM and the dominant-state cooling of an η)
    built from their per-point formulas and every other stage by its builder on this one config."""
    scenario, d = SCENARIOS[cfg["scenario"]], cfg["d"]
    if scenario.noise is scenarios._DEPOLARIZING:
        kraus = depolarizing_kraus(d, cfg["lambda"])
    elif scenario.noise is scenarios._DAMPING:
        kraus = amplitude_damping_kraus(cfg["gamma"])
    else:
        kraus = np.eye(d, dtype=complex)[None]
    spec = cfg["eta"]
    eta = np.diag([cfg["eta0"], 1.0 - cfg["eta0"]]).astype(complex) if "eta0" in spec else scenarios._eta(cfg)
    parts = {"noise": _liouville(kraus, np.ones(len(kraus))), "eta": eta}
    for label, stage in scenario.stages.items():
        if "stage" in cfg:
            ops = scenarios._stage_from_config(cfg["stage"], d)
        elif stage is scenarios._COOL_TO_DOMINANT:
            ops = all_to_target_stage(d, 0 if eta[0, 0].real >= eta[1, 1].real else 1)
        elif scenario.kind == "bitflip" and stage.keys == ("a", "b"):
            ops = povm_stage(2, bitflip_povm_kraus(cfg["a"], cfg["b"]))
        else:
            ops = stage.build([cfg])[0]
        parts["ops", label] = ops
    return parts


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


def steady_row(cfg: dict, _spectrum: bool = False) -> dict:
    """`scenarios.metric_row` of a steady scenario's config, from its one protocol solved alone by
    `steady_state`, with the spectrum of `eigvalsh` under `spectrum` if `_spectrum` is set."""
    (p,) = build_protocols(cfg).values()
    rho, gap = steady_state(p)
    columns = steady_metrics(rho[None], np.array([gap]))
    row = _with_oracle(cfg, {key: float(column[0]) for key, column in columns.items()})
    return row | {"spectrum": np.sort(np.linalg.eigvalsh(rho))[::-1].tolist()} if _spectrum else row


def cf_no_cooling_worst(protocols: int, seed: int) -> tuple[float, float]:
    """The worst entropy drop and worst |steady state - 1/d| of the `cf-no-cooling` check,
    one protocol at a time."""
    rng = np.random.default_rng(seed)
    worst_drop = 0.0
    worst_ss = 0.0
    for _ in range(protocols):
        d = int(rng.integers(2, 4))
        tau1, tau2 = rng.uniform(0.0, 1.0, 2)
        lam = rng.uniform(0.0, 0.98)
        p = FeedbackProtocol(d=d, noise=depolarizing_channel(d, lam), tau1=tau1, tau2=tau2,
                             eta=maximally_mixed(d), ops=coherent_stage(d, random_unitary(d, rng)))
        rho = random_density_matrix(d, rng)
        drop = von_neumann_entropy(rho) - von_neumann_entropy(cycle_unconditional(rho, p))
        worst_drop = max(worst_drop, drop)
        rho_ss, _ = steady_state(p)
        worst_ss = max(worst_ss, float(np.max(np.abs(rho_ss - maximally_mixed(d)))))
    return worst_drop, worst_ss


def spectrum_grid_worst(scenario: str, label: str, oracle, points: int, seed: int) -> float:
    """The worst |steady spectrum - oracle spectrum| of protocol `label` of a scenario on the
    random grid of a spectrum `oracle-grid` check, one protocol at a time."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(points):
        d = int(rng.integers(2, 5))
        tau, lam = rng.uniform(0.03, 0.97, 2)
        rho, _ = steady_state(build_protocols(resolve_config({"scenario": scenario, "d": d, "tau": tau,
                                                              "lambda": lam}))[label])
        dev = np.max(np.abs(np.sort(np.linalg.eigvalsh(rho))[::-1] - oracle(d, tau, lam)))
        worst = max(worst, float(dev))
    return worst
