"""Self-contained verification suite: every closed-form result is recomputed
through the simulator pipeline and compared at the tolerances the package
promises. `run_all` powers the `validate` CLI command; the test suite asserts
on the same results. Checks whose protocols are scenarios read both the
simulated and the oracle value from the scenario table's metric rows
(`scenarios.metric_rows`), the rows `qfeedback sweep` writes.

Checks are grouped by the claim they verify; each returns CheckResult rows
with a pass flag and a human-readable detail string (worst deviation, fitted
exponent, ...), so a failure names exactly what broke.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from . import oracles
from .loop import (CoherentStage, DegenerateSteadyStateError, FeedbackProtocol, PovmStage,
                   all_to_target_stage, conditional_branches, cycle_unconditional, iterate_to_fixed_point,
                   sample_ensemble, steady_state)
from .metrics import von_neumann_entropy
from .quantum import (depolarizing_channel, dm, identity_channel, ket, maximally_mixed, random_density_matrix,
                      random_kraus_channel, random_unitary, unitary_mapping)
from .scenarios import ConfigError, build_protocols, metric_row, metric_rows, resolve_config
from .weaklimit import effective_hamiltonian, first_order_defect, lie_closure_dim

ORACLE_TOL = 1e-9


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str


def _result(name: str, passed, detail: str) -> CheckResult:
    return CheckResult(name=name, passed=bool(passed), detail=detail)


def _scenario(config: dict) -> dict[str, FeedbackProtocol]:
    """The protocols of a scenario preset, built as the command line builds them."""
    return build_protocols(resolve_config(config))


def _spectrum(rho: np.ndarray) -> np.ndarray:
    return np.sort(np.linalg.eigvalsh(rho))[::-1]


def _rows(configs: list[dict]) -> list[dict[str, float]]:
    """The metric rows of scenario points, computed as a sweep computes them: one
    `metric_rows` batch. A degenerate point raises, so its check fails."""
    rows = metric_rows([resolve_config(config) for config in configs])
    for row in rows:
        if isinstance(row, DegenerateSteadyStateError):
            raise row
    return rows


def _worst(rows: list[dict[str, float]], *pairs: tuple[str, str]) -> float:
    """The largest |simulated - oracle| over the rows, for (simulated, oracle) column pairs;
    a row without one of the columns raises KeyError, so its check fails."""
    return float(np.max([abs(row[sim] - row[oracle]) for row in rows for sim, oracle in pairs]))


# --- criterion 1: oracle equivalence grids -------------------------------

def _spectrum_grid(scenario: str, label: str, oracle, points: int, seed: int) -> CheckResult:
    """The steady spectrum of protocol `label` of a scenario against its oracle spectrum, at random
    d in {2, 3, 4} and tau, lambda in [0.03, 0.97]."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(points):
        d = int(rng.integers(2, 5))
        tau, lam = rng.uniform(0.03, 0.97, 2)
        rho, _ = steady_state(_scenario({"scenario": scenario, "d": d, "tau": tau, "lambda": lam})[label])
        dev = np.max(np.abs(_spectrum(rho) - oracle(d, tau, lam)))
        worst = max(worst, float(dev))
    return _result(f"oracle-grid[{oracle.__name__}]", worst < ORACLE_TOL, f"worst |sim-oracle| = {worst:.2e}")


_ENTROPY_PAIRS = (("mf_entropy_linear", "oracle_s_mf"), ("cf_entropy_linear", "oracle_s_cf"))


def check_oracle_clean_entropies(points: int = 100, seed: int = 102) -> CheckResult:
    rng = np.random.default_rng(seed)
    configs = [{"scenario": "clean-cooling-compare", "tau": tau, "lambda": lam}
               for tau, lam in (rng.uniform(0.03, 0.97, 2) for _ in range(points))]
    worst = _worst(_rows(configs), *_ENTROPY_PAIRS)
    return _result("oracle-grid[clean_qubit_entropies]", worst < ORACLE_TOL, f"worst |sim-oracle| = {worst:.2e}")


def check_oracle_eta_entropies(points: int = 100, seed: int = 103) -> CheckResult:
    rng = np.random.default_rng(seed)
    configs = [{"scenario": "eta-cooling-compare", "tau": tau, "lambda": lam, "eta": {"eta0": rng.uniform(0.0, 1.0)}}
               for tau, lam in (rng.uniform(0.03, 0.97, 2) for _ in range(points))]
    worst = _worst(_rows(configs), *_ENTROPY_PAIRS)
    return _result("oracle-grid[eta_entropies]", worst < ORACLE_TOL, f"worst |sim-oracle| = {worst:.2e}")


def diagonal_fixed_point_population(p: FeedbackProtocol) -> float:
    """|0> population of the cycle's fixed point within the diagonal sector.

    The map e -> <0|cycle(diag(e, 1-e))|0> is affine; this returns its fixed
    point. Coincides with the unconstrained steady state whenever that state
    is diagonal.
    """
    f0 = cycle_unconditional(np.diag([0.0, 1.0]).astype(complex), p)[0, 0].real
    f1 = cycle_unconditional(np.diag([1.0, 0.0]).astype(complex), p)[0, 0].real
    return f0 / (1.0 - (f1 - f0))


def check_oracle_cf_general(points: int = 100, seed: int = 104) -> CheckResult:
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(points):
        tau, lam = rng.uniform(0.03, 0.97, 2)
        chi, phi1 = rng.uniform(0.0, np.pi, 2)
        p = _scenario({"scenario": "cf-clean", "tau": tau, "lambda": lam, "chi": chi, "phi1": phi1})["cf"]
        e1 = diagonal_fixed_point_population(p)
        worst = max(worst, abs(e1 - oracles.cf_clean_general_qubit(tau, lam, chi, phi1)))
    # on the slices where the steady state actually is diagonal, the formula
    # must also match the unconstrained solver
    for _ in range(20):
        tau, lam = rng.uniform(0.05, 0.95, 2)
        phi1 = rng.uniform(0.0, np.pi)
        for chi in (0.0, np.pi / 2, np.pi):
            p = _scenario({"scenario": "cf-clean", "tau": tau, "lambda": lam, "chi": chi, "phi1": phi1})["cf"]
            rho, _ = steady_state(p)
            worst = max(worst, abs(rho[0, 0].real - oracles.cf_clean_general_qubit(tau, lam, chi, phi1)))
    return _result("oracle-grid[cf_clean_general_qubit]", worst < ORACLE_TOL, f"worst |sim-oracle| = {worst:.2e}")


# steady rho11 of the chi=0 and chi=pi/2 coherent loops and of measure-and-repump, against their oracles
_AD_PAIRS = (("cf_chi0_rho11", "oracle_rho11_chi0"), ("cf_chipi2_rho11", "oracle_rho11_chipi2"),
             ("mf_rho11", "oracle_rho11_mf"))


def check_oracle_ad(points: int = 100, seed: int = 105) -> CheckResult:
    rng = np.random.default_rng(seed)
    configs = [{"scenario": "ad-compare", "tau": tau, "gamma": gamma}
               for tau, gamma in (rng.uniform(0.03, 0.97, 2) for _ in range(points))]
    rows = _rows(configs)
    worst = _worst(rows, *_AD_PAIRS)
    bool_ok = True
    for config, row in zip(configs, rows):
        if abs(max(row["cf_chi0_rho11"], row["cf_chipi2_rho11"]) - row["mf_rho11"]) > 1e-7:
            # the oracle's own verdict, which the row does not carry
            bool_ok &= bool(row["cf_beats_mf"]) == oracles.ad_occupations(config["tau"], config["gamma"])[4]
    ok = worst < ORACLE_TOL and bool_ok
    return _result("oracle-grid[ad_occupations]", ok, f"worst |sim-oracle| = {worst:.2e}, cf_beats_mf consistent: {bool_ok}")


def check_oracle_bitflip(points: int = 100, seed: int = 106) -> CheckResult:
    rng = np.random.default_rng(seed)
    configs = []
    for i in range(points):
        tau = rng.uniform(0.0, 1.0)
        if i % 3 == 0:
            a = b = rng.uniform(0.0, 1.0)       # the coherent-feedback line
        elif i % 3 == 1:
            a, b = 1.0, 0.0                      # projective measurement
        else:
            a, b = rng.uniform(0.0, 1.0, 2)
        configs.append({"scenario": "bitflip-povm", "tau": tau, "a": a, "b": b})
    worst = _worst(_rows(configs), ("haar_fidelity", "oracle_fidelity"))
    return _result("oracle-grid[bitflip_fidelity]", worst < ORACLE_TOL, f"worst |quad-oracle| = {worst:.2e}")


def check_oracle_conditional(points: int = 100, seed: int = 107) -> CheckResult:
    rng = np.random.default_rng(seed)
    worst = 0.0
    ident = 0.0
    for _ in range(points):
        d = int(rng.integers(2, 5))
        tau, lam = rng.uniform(0.03, 0.97, 2)
        alpha_in = rng.uniform(1.0 / d + 1e-3, 0.999)
        rest = (1.0 - alpha_in) / (d - 1)
        rho = np.diag([alpha_in] + [rest] * (d - 1)).astype(complex)
        p = _scenario({"scenario": "mf-noisy-cooling", "d": d, "tau": tau, "lambda": lam})["mf"]
        p0_o, a00_o, a01_o = oracles.conditional_cooling(d, tau, lam, alpha_in)
        branches = conditional_branches(rho, p)
        worst = max(
            worst,
            abs(branches[0][0] - p0_o),
            abs(float(np.linalg.eigvalsh(branches[0][1])[-1]) - a00_o),
            abs(float(np.linalg.eigvalsh(branches[1][1])[-1]) - a01_o),
        )
        # law of total probability: branch-weighted dominant eigenvalue equals
        # the unconditional one-step value
        uncond = cycle_unconditional(rho, p)[0, 0].real
        ident = max(ident, abs(p0_o * a00_o + (1.0 - p0_o) * a01_o - uncond))
    ok = worst < ORACLE_TOL and ident < 1e-12
    return _result("oracle-grid[conditional_cooling]", ok, f"worst |sim-oracle| = {worst:.2e}, mixture identity = {ident:.2e}")


def check_oracle_grids(points: int = 100) -> list[CheckResult]:
    """Criterion 1: every oracle matched by the simulator on a random grid."""
    subchecks = [
        ("mf_noisy_steady", lambda points: _spectrum_grid("mf-noisy-cooling", "mf", oracles.mf_noisy_steady, points, 100)),
        ("cf_clean_steady", lambda points: _spectrum_grid("cf-clean", "cf", oracles.cf_clean_steady, points, 101)),
        ("clean_qubit_entropies", check_oracle_clean_entropies),
        ("eta_entropies", check_oracle_eta_entropies),
        ("cf_clean_general_qubit", check_oracle_cf_general),
        ("ad_occupations", check_oracle_ad),
        ("bitflip_fidelity", check_oracle_bitflip),
        ("conditional_cooling", check_oracle_conditional),
    ]
    t0 = time.perf_counter()
    results = []
    for name, fn in subchecks:
        try:
            results.append(fn(points))
        except Exception as exc:  # name the oracle whose pipeline broke
            results.append(_result(f"oracle-grid[{name}]", False, f"raised {type(exc).__name__}: {exc}"))
    elapsed = time.perf_counter() - t0
    results.append(_result("oracle-grid[runtime]", elapsed < 60.0, f"{elapsed:.1f}s (budget 60s)"))
    return results


# --- criterion 2: cooling steady-state spot value --------------------------

def check_steady_spot() -> CheckResult:
    expected = np.array([0.7857142857, 0.2142857143])
    p = _scenario({"scenario": "mf-noisy-cooling", "tau": 0.5, "lambda": 0.5})["mf"]
    rho_eig, _ = steady_state(p)
    rho_fix = iterate_to_fixed_point(maximally_mixed(2), p, 1000)
    dev_eig = float(np.max(np.abs(_spectrum(rho_eig) - expected)))
    dev_fix = float(np.max(np.abs(_spectrum(rho_fix) - expected)))
    ok = dev_eig < ORACLE_TOL and dev_fix < ORACLE_TOL
    return _result("steady-spot-value", ok, f"eigensolve dev {dev_eig:.2e}, fixed-point dev {dev_fix:.2e}")


# --- criterion 3: CF no-cooling theorem -----------------------------------

def check_cf_no_cooling(protocols: int = 500, seed: int = 300) -> CheckResult:
    rng = np.random.default_rng(seed)
    worst_drop = 0.0
    worst_ss = 0.0
    for _ in range(protocols):
        d = int(rng.integers(2, 4))
        tau1, tau2 = rng.uniform(0.0, 1.0, 2)
        lam = rng.uniform(0.0, 0.98)
        p = FeedbackProtocol(d=d, noise=depolarizing_channel(d, lam), tau1=tau1, tau2=tau2,
                             eta=maximally_mixed(d), stage=CoherentStage(random_unitary(d, rng)))
        rho = random_density_matrix(d, rng)
        drop = von_neumann_entropy(rho) - von_neumann_entropy(cycle_unconditional(rho, p))
        worst_drop = max(worst_drop, drop)
        rho_ss, _ = steady_state(p)
        worst_ss = max(worst_ss, float(np.max(np.abs(rho_ss - maximally_mixed(d)))))
    ok = worst_drop < 1e-10 and worst_ss < 1e-8
    return _result("cf-no-cooling", ok,
                   f"worst entropy drop {worst_drop:.2e} (tol 1e-10), worst |ss - 1/d| {worst_ss:.2e}")


# --- criterion 4: clean-controller crossover at tau = 1/3 ------------------

def _entropy_gap_clean(tau: float, lam: float) -> float:
    cfg = resolve_config({"scenario": "clean-cooling-compare", "tau": tau, "lambda": lam})
    return metric_row(cfg)["s_mf_minus_s_cf"]


def check_crossover(lams=(0.1, 0.5, 0.9)) -> CheckResult:
    worst = 0.0
    for lam in lams:
        lo, hi = 0.2, 0.45
        flo = _entropy_gap_clean(lo, lam)
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            fmid = _entropy_gap_clean(mid, lam)
            if (fmid < 0) == (flo < 0):
                lo, flo = mid, fmid
            else:
                hi = mid
            if hi - lo < 1e-12:
                break
        root = 0.5 * (lo + hi)
        worst = max(worst, abs(root - 1.0 / 3.0))
    return _result("crossover-tau-third", worst < ORACLE_TOL, f"worst |tau* - 1/3| = {worst:.2e}")


# --- criterion 5: purity dichotomy at tau = 1/2 ----------------------------

def _real_rows(m: np.ndarray) -> list[list[float]]:
    """A real matrix in its exact config form."""
    if np.any(m.imag):
        raise ValueError(f"expected a real matrix, got {m}")
    return m.real.tolist()


def check_purity_dichotomy(grid: int = 30, lams=(0.05, 0.5, 0.95)) -> CheckResult:
    (cf,) = _rows([{"scenario": "cf-clean", "tau": 0.5, "lambda": min(lams)}])
    # the feedback unitaries map |j> to cos(th/2)|0> + sin(th/2)|1>
    thetas = np.linspace(0.0, np.pi, grid)
    v0s, v1s = ([_real_rows(unitary_mapping(ket(2, j), np.array([np.cos(th / 2), np.sin(th / 2)], dtype=complex)))
                 for th in thetas] for j in (0, 1))
    rows = _rows([{"scenario": "mf-clean-cooling", "tau": 0.5, "lambda": lam,
                   "stage": {"type": "mf-projective", "feedback": [v0, v1]}}
                  for lam in lams for v0 in v0s for v1 in v1s])
    max_mf = max(row["purity"] for row in rows)
    ok = cf["purity"] >= 1.0 - 1e-9 and max_mf < 1.0 - 1e-4
    return _result("purity-dichotomy", ok,
                   f"CF purity {cf['purity']:.12f}, max projective-MF purity {max_mf:.6f} over {grid}x{grid}x{len(lams)}")


# --- criterion 6: amplitude-damping comparison -----------------------------

def check_ad_grid(grid: int = 20) -> CheckResult:
    taus = np.linspace(0.03, 0.97, grid)
    gammas = np.linspace(0.03, 0.97, grid)
    rows = _rows([{"scenario": "ad-compare", "tau": tau, "gamma": gamma} for gamma in gammas for tau in taus])
    worst = _worst(rows, *_AD_PAIRS)
    boundary_ok = True
    for k in range(grid):
        line = rows[k * grid:(k + 1) * grid]  # one gamma, tau ascending
        signs = [bool(row["cf_beats_mf"]) for row in line]
        tstar = line[0]["oracle_cf_crossover_tau"]
        # boundary of the CF>MF region matches the threshold within one cell
        flips = [i for i in range(1, grid) if signs[i] != signs[i - 1]]
        step = taus[1] - taus[0]
        if taus[0] < tstar < taus[-1]:
            if len(flips) != 1 or abs(taus[flips[0]] - tstar) > step:
                boundary_ok = False
        elif flips:
            boundary_ok = False
    ok = worst < ORACLE_TOL and boundary_ok
    return _result("ad-occupations-grid", ok,
                   f"worst |sim-oracle| = {worst:.2e} on {grid}x{grid}, boundary matches threshold: {boundary_ok}")


# --- criterion 7: bit-flip fidelities --------------------------------------

def check_bitflip_surface(grid: int = 21) -> CheckResult:
    cf_line, mf_line = (_rows([{"scenario": name, "tau": tau} for tau in np.linspace(0.0, 1.0, 9)])
                        for name in ("bitflip-cf", "bitflip-mf"))
    axis = np.linspace(0.0, 1.0, grid)
    surface = _rows([{"scenario": "bitflip-povm", "tau": 0.5, "a": a, "b": b} for a in axis for b in axis])
    worst = _worst(cf_line + mf_line + surface, ("haar_fidelity", "oracle_fidelity"))
    vals = np.array([row["haar_fidelity"] for row in surface]).reshape(grid, grid)
    off = ~np.eye(grid, dtype=bool)
    argmax_on_diag = np.max(vals[off]) < np.max(np.diag(vals)) - 1e-6
    ok = worst < ORACLE_TOL and argmax_on_diag
    return _result("bitflip-fidelities", ok,
                   f"worst |quad-formula| = {worst:.2e}, argmax on diagonal: {argmax_on_diag}")


# --- criterion 8: conditional statistics -----------------------------------

def check_conditional_statistics(n_traj: int = 10_000, steps: int = 200,
                                 seed: int = 800, threads: int = 4) -> CheckResult:
    d, tau, lam = 2, 0.5, 0.5
    p = _scenario({"scenario": "mf-noisy-cooling", "d": d, "tau": tau, "lambda": lam})["mf"]
    rho_ss, _ = steady_state(p)

    # one-step outcome statistics from a fixed diagonal input
    alpha_in = 0.7
    rho0 = np.diag([alpha_in, 1.0 - alpha_in]).astype(complex)
    ens1 = sample_ensemble(rho0, p, 1, n_traj, seed=seed, threads=threads)
    p0, a00, a01 = oracles.conditional_cooling(d, tau, lam, alpha_in)
    freq = float((ens1.outcomes[:, 0] == 0).mean())
    sigma = np.sqrt(p0 * (1.0 - p0) / n_traj)
    p0_ok = abs(freq - p0) <= 3.0 * sigma
    lead = np.linalg.eigvalsh(ens1.final_states)[:, -1]
    a00_dev = float(np.max(np.abs(lead[ens1.outcomes[:, 0] == 0] - a00)))
    a01_dev = float(np.max(np.abs(lead[ens1.outcomes[:, 0] == 1] - a01)))
    branch_ok = a00_dev < ORACLE_TOL and a01_dev < ORACLE_TOL

    # long-run ensemble: outcome-averaged state equals the unconditional
    # steady state, and every sampled step satisfies the majorisation bound
    ens = sample_ensemble(maximally_mixed(d), p, steps, n_traj, seed=seed + 1,
                          threads=threads, check_majorization=True)
    mean_state = ens.final_states.mean(axis=0)
    sem = ens.final_states.std(axis=0) / np.sqrt(n_traj)
    mean_ok = bool(np.all(np.abs(mean_state - rho_ss) <= 3.0 * np.abs(sem) + 1e-12))
    major_ok = ens.majorization_violation < 1e-9
    ok = p0_ok and branch_ok and mean_ok and major_ok
    return _result(
        "conditional-statistics", ok,
        f"p0 |freq-p0|/sigma = {abs(freq - p0) / sigma:.2f}, branch devs ({a00_dev:.1e}, {a01_dev:.1e}), "
        f"mean-state within 3 sigma: {mean_ok}, majorization violation {ens.majorization_violation:.1e}",
    )


# --- criterion 9: weak-interaction limit -----------------------------------

def check_weak_limit(seed: int = 900) -> CheckResult:
    rng = np.random.default_rng(seed)
    plus = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2.0)
    p = FeedbackProtocol(2, identity_channel(2), 0.5, 0.5, dm(ket(2, 0)),
                         all_to_target_stage(2, plus))
    defects = [first_order_defect(p, dt) for dt in (1e-2, 5e-3, 2.5e-3)]
    ratios = [defects[0] / defects[1], defects[1] / defects[2]]
    quad_ok = all(abs(r - 4.0) <= 0.4 for r in ratios)

    dims_ok = True
    for d in (2, 3):
        g_cf = [effective_hamiltonian(maximally_mixed(d), CoherentStage(random_unitary(d, rng)))
                for _ in range(3)]
        dims_ok &= lie_closure_dim(g_cf) == 1
        eta = dm(ket(d, 0))
        g_mf = [effective_hamiltonian(eta, PovmStage(kraus=random_kraus_channel(d, 2, rng).kraus)) for _ in range(2)]
        dims_ok &= lie_closure_dim(g_mf) == d * d
    ok = quad_ok and dims_ok
    return _result("weak-limit", ok,
                   f"defect halving ratios {ratios[0]:.3f}, {ratios[1]:.3f} (want 4±0.4), closure dims ok: {dims_ok}")


# --- criterion 10: cooling-rate scaling -------------------------------------

def check_cooling_rate(taus=(0.5, 0.75, 0.9), threshold: float = 0.01) -> CheckResult:
    # swap-dominated regime (identity depolariser): iterations to approach the
    # steady entropy grow like 1/(1-tau)
    counts = []
    for tau in taus:
        p = _scenario({"scenario": "mf-noisy-cooling", "tau": tau, "lambda": 1.0})["mf"]
        target = von_neumann_entropy(steady_state(p)[0], normalised=True)
        rho = maximally_mixed(2)
        n = 0
        while abs(von_neumann_entropy(rho, normalised=True) - target) >= threshold:
            rho = cycle_unconditional(rho, p)
            n += 1
            if n > 100_000:
                break
        counts.append(n)
    x = np.log([1.0 / (1.0 - t) for t in taus])
    slope = float(np.polyfit(x, np.log(counts), 1)[0])
    ok = abs(slope - 1.0) <= 0.3
    return _result("cooling-rate-scaling", ok, f"iterations {counts}, fitted exponent {slope:.3f} (want 1±0.3)")


# --- criterion 11: determinism ----------------------------------------------

def check_determinism(seed: int = 1100) -> CheckResult:
    p = _scenario({"scenario": "mf-noisy-cooling", "tau": 0.5, "lambda": 0.5})["mf"]
    a = sample_ensemble(maximally_mixed(2), p, 40, 50, seed=seed, threads=1)
    b = sample_ensemble(maximally_mixed(2), p, 40, 50, seed=seed, threads=3)
    same = (
        np.array_equal(a.outcomes, b.outcomes)
        and np.array_equal(a.probabilities, b.probabilities)
        and np.array_equal(a.entropies, b.entropies)
        and np.array_equal(a.final_states, b.final_states)
    )
    return _result("determinism", same, "same seed, different thread counts: identical arrays")


CHECK_GROUPS: list[tuple[str, object]] = [
    ("oracle-grid", lambda points: check_oracle_grids(points)),
    ("steady-spot-value", lambda points: [check_steady_spot()]),
    ("cf-no-cooling", lambda points: [check_cf_no_cooling()]),
    ("crossover-tau-third", lambda points: [check_crossover()]),
    ("purity-dichotomy", lambda points: [check_purity_dichotomy()]),
    ("ad-occupations-grid", lambda points: [check_ad_grid()]),
    ("bitflip-fidelities", lambda points: [check_bitflip_surface()]),
    ("conditional-statistics", lambda points: [check_conditional_statistics()]),
    ("weak-limit", lambda points: [check_weak_limit()]),
    ("cooling-rate-scaling", lambda points: [check_cooling_rate()]),
    ("determinism", lambda points: [check_determinism()]),
]


def run_all(points: int = 100, only: str | None = None) -> list[CheckResult]:
    """Run every check (or the groups whose name contains `only`)."""
    if points < 1:
        raise ConfigError(f"points per oracle grid must be at least 1, got {points}")
    groups = CHECK_GROUPS
    if only is not None:
        groups = [(name, fn) for name, fn in CHECK_GROUPS if only in name]
        if not groups:
            raise ConfigError(f"no validation check matches {only!r}")
    results: list[CheckResult] = []
    for name, fn in groups:
        try:
            results.extend(fn(points))
        except Exception as exc:  # a broken build should fail its row, not crash
            results.append(_result(name, False, f"raised {type(exc).__name__}: {exc}"))
    return results
