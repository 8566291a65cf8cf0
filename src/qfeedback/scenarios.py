"""Named protocol presets covering every closed-form case in the package,
plus the config resolution used by the command-line front end.

A scenario resolves a flat config dict (scenario defaults < config file <
command-line overrides) into one or more `FeedbackProtocol`s and knows how to
compute its metric row, including the matching oracle values where one exists.
"""

from __future__ import annotations

import math

import numpy as np

from . import oracles
from .loop import (
    MAX_DIM,
    CoherentStage,
    FeedbackProtocol,
    PovmStage,
    ProjectiveStage,
    all_to_target_stage,
    steady_state,
)
from .metrics import haar_avg_bitflip_fidelity, linear_entropy, purity, von_neumann_entropy
from .quantum import (
    amplitude_damping_channel,
    controller_state,
    depolarizing_channel,
    identity_channel,
    pauli_x,
    qubit_unitary,
    rotation,
)


class ConfigError(ValueError):
    """Invalid configuration (unknown scenario, bad parameter, bad axis)."""


GLOBAL_DEFAULTS = {
    "d": 2,
    "tau": 0.5,
    "lambda": 0.5,
    "gamma": 0.2,
    "eta0": 0.5,
    "chi": 0.0,
    "phi1": 0.0,
    "a": 0.5,
    "b": 0.5,
    "seed": 0,
    "steps": 100,
    "ntraj": 100,
    "threads": 0,  # 0 = hardware parallelism
}

# scenario name -> (kind, per-scenario defaults)
SCENARIOS: dict[str, tuple[str, dict]] = {
    "mf-noisy-cooling": ("steady", {"eta": {"preset": "noisy"}}),
    "mf-clean-cooling": ("steady", {"eta": {"preset": "clean"}}),
    "mf-eta-cooling": ("steady", {"eta": {"eta0": 0.5}}),
    "cf-noisy": ("steady", {"eta": {"preset": "noisy"}}),
    "cf-clean": ("steady", {"eta": {"preset": "clean"}}),
    "cf-eta": ("steady", {"eta": {"eta0": 0.5}}),
    "ad-cf": ("steady", {"eta": {"preset": "noisy"}, "chi": 0.0}),
    "ad-mf": ("steady", {"eta": {"preset": "noisy"}}),
    "clean-cooling-compare": ("compare", {"eta": {"preset": "clean"}}),
    "eta-cooling-compare": ("compare", {"eta": {"eta0": 0.5}}),
    "ad-compare": ("compare", {"eta": {"preset": "noisy"}}),
    "bitflip-cf": ("bitflip", {"eta": {"preset": "noisy"}}),
    "bitflip-mf": ("bitflip", {"eta": {"preset": "noisy"}}),
    "bitflip-povm": ("bitflip", {"eta": {"preset": "noisy"}}),
}


def scenario_kind(name: str) -> str:
    if name not in SCENARIOS:
        raise ConfigError(f"unknown scenario {name!r}; choose from {sorted(SCENARIOS)}")
    return SCENARIOS[name][0]


def resolve_config(config: dict | None, overrides: dict | None = None) -> dict:
    """Merge defaults, a config document and overrides (highest precedence)."""
    config = dict(config or {})
    overrides = {k: v for k, v in (overrides or {}).items() if v is not None}
    name = overrides.get("scenario", config.get("scenario"))
    if not name:
        raise ConfigError("no scenario given (set 'scenario' in the config or pass --scenario)")
    kind, defaults = SCENARIOS.get(name, (None, None))
    if kind is None:
        raise ConfigError(f"unknown scenario {name!r}; choose from {sorted(SCENARIOS)}")
    cfg = dict(GLOBAL_DEFAULTS)
    cfg.update(defaults)
    cfg.update(config)
    cfg.update(overrides)
    cfg["scenario"] = name
    if "eta0" in overrides:
        cfg["eta"] = {"eta0": overrides["eta0"]}
    cfg.setdefault("tau1", cfg["tau"])
    cfg.setdefault("tau2", cfg["tau"])
    if "tau" in overrides:
        cfg["tau1"] = cfg["tau2"] = overrides["tau"]
    _validate_resolved(cfg)
    return cfg


def _validate_resolved(cfg: dict) -> None:
    try:
        d = int(cfg["d"])
        if not 2 <= d <= MAX_DIM:
            raise ConfigError(f"d must be in [2, {MAX_DIM}] (joint dimension d² <= {MAX_DIM ** 2}), got {d}")
        cfg["d"] = d
        for key in ("tau", "tau1", "tau2", "lambda", "gamma", "eta0", "a", "b"):
            x = float(cfg[key]) if key in cfg else 0.0
            if key in cfg and not 0.0 <= x <= 1.0:
                raise ConfigError(f"{key} must be in [0,1], got {x}")
            cfg[key] = x
        for key in ("chi", "phi1"):
            cfg[key] = float(cfg[key])
        eta = cfg.get("eta")
        if isinstance(eta, dict) and "eta0" in eta and not (d == 2 and 0.0 <= float(eta["eta0"]) <= 1.0):
            raise ConfigError(f"eta0 sets the qubit controller state diag(eta0, 1-eta0) and needs d=2 "
                              f"and eta0 in [0,1], got d={d}, eta0={eta['eta0']}")
        for key in ("seed", "steps", "ntraj", "threads"):
            cfg[key] = int(cfg[key])
        if cfg["steps"] < 1 or cfg["ntraj"] < 1:
            raise ConfigError("steps and ntraj must be at least 1")
        if cfg["threads"] < 0:
            raise ConfigError("threads must be non-negative")
    except (TypeError, ValueError) as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(f"bad config value: {exc}") from exc


def _parse_complex(x) -> complex:
    if isinstance(x, (int, float)):
        return complex(x)
    if isinstance(x, (list, tuple)) and len(x) == 2:
        return complex(float(x[0]), float(x[1]))
    raise ConfigError(f"matrix entries must be numbers or [re, im] pairs, got {x!r}")


def parse_matrix(rows) -> np.ndarray:
    try:
        return np.array([[_parse_complex(x) for x in row] for row in rows], dtype=complex)
    except (TypeError, ConfigError) as exc:
        raise ConfigError(f"could not parse matrix: {exc}") from exc


def _stage_from_config(spec: dict, d: int):
    kind = spec.get("type")
    if kind == "cf":
        return CoherentStage(parse_matrix(spec["unitary"]))
    if kind == "mf-projective":
        basis = parse_matrix(spec["basis"]) if "basis" in spec else None
        fb = tuple(parse_matrix(m) for m in spec["feedback"])
        return ProjectiveStage(feedback=fb, basis=basis)
    if kind == "mf-povm":
        return PovmStage(kraus=tuple(parse_matrix(m) for m in spec["kraus"]))
    raise ConfigError(f"unknown stage type {spec.get('type')!r}")


def _eta(cfg: dict) -> np.ndarray:
    spec = cfg.get("eta", {"preset": "noisy"})
    if isinstance(spec, dict):
        if "preset" in spec:
            return controller_state(cfg["d"], spec["preset"])
        if "eta0" in spec:
            return controller_state(2, float(spec["eta0"]))
        if "matrix" in spec:
            return controller_state(cfg["d"], parse_matrix(spec["matrix"]))
        raise ConfigError(f"eta spec needs 'preset', 'eta0' or 'matrix': {spec!r}")
    return controller_state(cfg["d"], spec)


def _eta0_value(cfg: dict) -> float:
    spec = cfg.get("eta", {})
    if isinstance(spec, dict) and "eta0" in spec:
        return float(spec["eta0"])
    return float(cfg["eta0"])


def _qubit_only(cfg: dict, name: str) -> None:
    if cfg["d"] != 2:
        raise ConfigError(f"scenario {name!r} is qubit-only (d=2)")


def build_protocols(cfg: dict) -> dict[str, FeedbackProtocol]:
    """Instantiate the protocol(s) for a resolved config, keyed by label."""
    name, d = cfg["scenario"], cfg["d"]
    t1, t2 = cfg["tau1"], cfg["tau2"]
    lam, gamma = cfg["lambda"], cfg["gamma"]

    def proto(noise, eta, stage):
        p = FeedbackProtocol(d=d, noise=noise, tau1=t1, tau2=t2, eta=eta, stage=stage)
        return p

    if "stage" in cfg and name not in ("clean-cooling-compare", "eta-cooling-compare", "ad-compare"):
        stage_override = _stage_from_config(cfg["stage"], d)
    else:
        stage_override = None

    if name in ("mf-noisy-cooling", "mf-clean-cooling", "mf-eta-cooling"):
        if name == "mf-eta-cooling":
            _qubit_only(cfg, name)
            target = 0 if _eta0_value(cfg) >= 0.5 else 1
        else:
            target = 0
        stage = stage_override or all_to_target_stage(d, target)
        return {"mf": proto(depolarizing_channel(d, lam), _eta(cfg), stage)}

    if name in ("cf-noisy", "cf-clean", "cf-eta"):
        if stage_override is not None:
            stage = stage_override
        elif d == 2 and (cfg["chi"] != 0.0 or cfg["phi1"] != 0.0):
            stage = CoherentStage(qubit_unitary(cfg["chi"], cfg["phi1"]))
        else:
            stage = CoherentStage(np.eye(d, dtype=complex))
        return {"cf": proto(depolarizing_channel(d, lam), _eta(cfg), stage)}

    if name == "ad-cf":
        _qubit_only(cfg, name)
        stage = stage_override or CoherentStage(rotation(cfg["chi"]))
        return {"cf": proto(amplitude_damping_channel(gamma), _eta(cfg), stage)}

    if name == "ad-mf":
        _qubit_only(cfg, name)
        # measure, repump to |1>: do nothing on outcome 1, rotate by pi/2 on outcome 0
        stage = stage_override or ProjectiveStage(
            feedback=(rotation(np.pi / 2), np.eye(2, dtype=complex))
        )
        return {"mf": proto(amplitude_damping_channel(gamma), _eta(cfg), stage)}

    if name == "clean-cooling-compare" or name == "eta-cooling-compare":
        _qubit_only(cfg, name)
        eta = _eta(cfg)
        eta0 = 1.0 if name == "clean-cooling-compare" else _eta0_value(cfg)
        target = 0 if eta0 >= 0.5 else 1
        noise = depolarizing_channel(2, lam)
        return {
            "mf": proto(noise, eta, all_to_target_stage(2, target)),
            "cf": proto(noise, eta, CoherentStage(np.eye(2, dtype=complex))),
        }

    if name == "ad-compare":
        _qubit_only(cfg, name)
        noise = amplitude_damping_channel(gamma)
        eta = _eta(cfg)
        return {
            "cf_chi0": proto(noise, eta, CoherentStage(rotation(0.0))),
            "cf_chipi2": proto(noise, eta, CoherentStage(rotation(np.pi / 2))),
            "mf": proto(noise, eta, ProjectiveStage(feedback=(rotation(np.pi / 2), np.eye(2, dtype=complex)))),
        }

    if name == "bitflip-cf":
        _qubit_only(cfg, name)
        stage = stage_override or CoherentStage(pauli_x)
        return {"cf": proto(identity_channel(2), _eta(cfg), stage)}

    if name == "bitflip-mf":
        _qubit_only(cfg, name)
        stage = stage_override or ProjectiveStage(feedback=(pauli_x, pauli_x))
        return {"mf": proto(identity_channel(2), _eta(cfg), stage)}

    if name == "bitflip-povm":
        _qubit_only(cfg, name)
        stage = stage_override or PovmStage(kraus=bitflip_povm_kraus(cfg["a"], cfg["b"]))
        return {"mf": proto(identity_channel(2), _eta(cfg), stage)}

    raise ConfigError(f"unknown scenario {name!r}")


def bitflip_povm_kraus(a: float, b: float) -> tuple[np.ndarray, np.ndarray]:
    """In-loop POVM for the bit-flip task: {σ_x P0, σ_x P1}, P0 = diag(a, b)."""
    p0 = np.diag([a, b]).astype(complex)
    p1 = np.diag([math.sqrt(1.0 - a * a), math.sqrt(1.0 - b * b)]).astype(complex)
    return pauli_x @ p0, pauli_x @ p1


def _steady_metrics(rho: np.ndarray, gap: float, prefix: str = "") -> dict[str, float]:
    w = np.sort(np.linalg.eigvalsh(rho))[::-1]
    row = {
        f"{prefix}alpha0": float(w[0]),
        f"{prefix}entropy_vn_norm": von_neumann_entropy(rho, normalised=True),
        f"{prefix}entropy_linear": linear_entropy(rho),
        f"{prefix}purity": purity(rho),
        f"{prefix}rho11": float(rho[1, 1].real),
        f"{prefix}gap": gap,
    }
    return row


def _oracle_for_steady(cfg: dict) -> dict[str, float]:
    """Closed-form reference values for the single-protocol steady scenarios."""
    name, d = cfg["scenario"], cfg["d"]
    tau, lam, gamma = cfg["tau1"], cfg["lambda"], cfg["gamma"]
    if cfg["tau1"] != cfg["tau2"]:
        return {}
    if name == "mf-noisy-cooling":
        spec = oracles.mf_noisy_steady(d, tau, lam)
        return {"oracle_alpha0": spec[0], "oracle_alpha1": spec[-1]}
    if name == "cf-noisy":
        return {"oracle_alpha0": 1.0 / d}
    if name == "cf-clean" and cfg["chi"] == 0.0 and cfg["phi1"] == 0.0:
        spec = oracles.cf_clean_steady(d, tau, lam)
        return {"oracle_alpha0": spec[0]}
    if name in ("mf-clean-cooling", "mf-eta-cooling") and d == 2:
        eta0 = 1.0 if name == "mf-clean-cooling" else _eta0_value(cfg)
        s_mf, _ = oracles.eta_entropies(tau, lam, eta0)
        return {"oracle_entropy_linear": s_mf}
    if name == "cf-eta" and cfg["chi"] == 0.0 and cfg["phi1"] == 0.0:
        _, s_cf = oracles.eta_entropies(tau, lam, _eta0_value(cfg))
        return {"oracle_entropy_linear": s_cf}
    if name == "ad-cf":
        chi0, chipi2, _, _, _ = oracles.ad_occupations(tau, gamma)
        if abs(cfg["chi"]) < 1e-12:
            return {"oracle_rho11": chi0}
        if abs(cfg["chi"] - np.pi / 2) < 1e-12:
            return {"oracle_rho11": chipi2}
        return {}
    if name == "ad-mf":
        return {"oracle_rho11": oracles.ad_occupations(tau, gamma)[2]}
    return {}


def metric_row(cfg: dict, solved: tuple[np.ndarray, float] | None = None) -> dict[str, float]:
    """Compute the full metric row for a resolved config (sweep/steady output).
    `solved`: the steady scenario's (state, gap), when the caller already has it."""
    name = cfg["scenario"]
    kind = scenario_kind(name)

    if kind == "steady":
        if solved is None:
            (_, p), = build_protocols(cfg).items()
            solved = steady_state(p)
        row = _steady_metrics(*solved)
        oracle = _oracle_for_steady(cfg)
        row.update(oracle)
        if "oracle_alpha0" in oracle:
            row["oracle_dev"] = abs(row["alpha0"] - oracle["oracle_alpha0"])
        elif "oracle_entropy_linear" in oracle:
            row["oracle_dev"] = abs(row["entropy_linear"] - oracle["oracle_entropy_linear"])
        elif "oracle_rho11" in oracle:
            row["oracle_dev"] = abs(row["rho11"] - oracle["oracle_rho11"])
        return row

    protos = build_protocols(cfg)
    if kind == "compare":
        row: dict[str, float] = {}
        for label, p in protos.items():
            row.update(_steady_metrics(*steady_state(p), prefix=f"{label}_"))
        tau, lam, gamma = cfg["tau1"], cfg["lambda"], cfg["gamma"]
        if name == "clean-cooling-compare":
            s_mf, s_cf = oracles.clean_qubit_entropies(tau, lam)
            row.update({"oracle_s_mf": s_mf, "oracle_s_cf": s_cf,
                        "s_mf_minus_s_cf": row["mf_entropy_linear"] - row["cf_entropy_linear"]})
        elif name == "eta-cooling-compare":
            s_mf, s_cf = oracles.eta_entropies(tau, lam, _eta0_value(cfg))
            row.update({"oracle_s_mf": s_mf, "oracle_s_cf": s_cf,
                        "s_mf_minus_s_cf": row["mf_entropy_linear"] - row["cf_entropy_linear"]})
        elif name == "ad-compare":
            chi0, chipi2, mf, crossover, cf_beats = oracles.ad_occupations(tau, gamma)
            row.update({
                "oracle_rho11_chi0": chi0, "oracle_rho11_chipi2": chipi2,
                "oracle_rho11_mf": mf, "oracle_cf_crossover_tau": crossover,
                "cf_beats_mf": float(max(row["cf_chi0_rho11"], row["cf_chipi2_rho11"]) > row["mf_rho11"]),
            })
        return row

    # bitflip: the figure of merit is the Haar-averaged fidelity, not a steady state
    (_, p), = protos.items()
    avg = haar_avg_bitflip_fidelity(p)
    row = {"haar_fidelity": avg}
    tau = cfg["tau1"]
    if cfg["tau1"] == cfg["tau2"]:
        if name == "bitflip-cf":
            row["oracle_fidelity"] = 1.0 - 2.0 * tau / 3.0
        elif name == "bitflip-mf":
            row["oracle_fidelity"] = 2.0 / 3.0 - tau / 3.0
        else:
            row["oracle_fidelity"] = oracles.bitflip_fidelity(tau, cfg["a"], cfg["b"])
        row["oracle_dev"] = abs(avg - row["oracle_fidelity"])
    return row
