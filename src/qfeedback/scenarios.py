"""Named protocol presets covering every closed-form case in the package,
plus the config resolution used by the command-line front end.

Each preset is one `Scenario` record in `SCENARIOS`: a noise channel and a
controller reset state η shared by its protocols, per protocol label the
in-loop stage as its stacked controller operators (J, d, d), its defaults and
its closed-form oracle columns. The CLI and `validate` build
every preset protocol from this table. `PARAMETERS` declares each config
parameter once: its type, default, range and flag help, from which the
defaults, the config check, the CLI flags and the sweep axes are read. A
scenario resolves a flat config dict (parameter defaults < scenario defaults
< config file < command-line overrides), and `metric_rows` computes the
metric rows of many configs (a sweep, or the one point of `steady`) as one
batch, with the oracle values wherever the oracle describes the protocol that
was built: the noise, η and the stages are each built once per distinct value
of the config keys they read, and each protocol label is built and solved as
one stack. `build_protocols` builds a config's `FeedbackProtocol`s, for the
commands and checks that step the cycle itself.
"""

from __future__ import annotations

import cmath
import math
from typing import Callable, NamedTuple

import numpy as np

from . import oracles
from .loop import (
    MAX_BLOCK_BYTES,
    MAX_DIM,
    MAX_THREADS,
    DegenerateSteadyStateError,
    FeedbackProtocol,
    all_to_target_stage,
    branch_liouvillians,
    coherent_stage,
    degenerate_error,
    noise_liouville,
    povm_stage,
    projective_stage,
    steady_states,
    superoperators,
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


# Size limits, refused before anything is allocated or started (with loop.MAX_DIM and loop.MAX_THREADS).
MAX_TRAJECTORY_STEPS = 10 ** 7  # ntraj * steps; an ensemble holds about 370 B per trajectory-step


class Parameter(NamedTuple):
    """One config parameter: a config key, a command-line flag and, for a float, a sweep axis."""

    name: str
    type: type                    # int or float
    default: int | float | None   # None: tau1 and tau2 follow tau
    low: float                    # the closed range [low, high]; a float must also be finite
    high: float
    help: str


PARAMETERS = (
    Parameter("d", int, 2, 2, MAX_DIM, "system/controller dimension"),
    Parameter("tau", float, 0.5, 0.0, 1.0, "transmissivity of both couplings"),
    Parameter("tau1", float, None, 0.0, 1.0, "transmissivity of the first coupling"),
    Parameter("tau2", float, None, 0.0, 1.0, "transmissivity of the second coupling"),
    Parameter("lambda", float, 0.5, 0.0, 1.0, "depolarising parameter (1 = no noise)"),
    Parameter("gamma", float, 0.2, 0.0, 1.0, "amplitude-damping strength"),
    Parameter("eta0", float, 0.5, 0.0, 1.0, "controller |0> population (qubit family)"),
    Parameter("chi", float, 0.0, -math.inf, math.inf, "in-loop rotation angle"),
    Parameter("phi1", float, 0.0, -math.inf, math.inf, "in-loop unitary phase"),
    Parameter("a", float, 0.5, 0.0, 1.0, "POVM diagonal element a"),
    Parameter("b", float, 0.5, 0.0, 1.0, "POVM diagonal element b"),
    Parameter("seed", int, 0, 0, math.inf, "RNG seed"),
    Parameter("steps", int, 100, 1, math.inf, "cycles per trajectory"),
    Parameter("ntraj", int, 100, 1, math.inf, "number of trajectories"),
    Parameter("threads", int, 0, 0, MAX_THREADS, "worker pool size (0 = hardware)"),
)
# the keys of a config document besides the parameters; `sweep` is accepted so that a sweep's sidecar
# config can be read back, but the axes come from the command line and no resolved config holds it
_CONFIG_KEYS = frozenset({p.name for p in PARAMETERS} | {"scenario", "eta", "stage", "sweep"})
_ETA_KINDS = ("preset", "eta0", "matrix")


def resolve_config(config: dict | None, overrides: dict | None = None, axes: tuple[str, ...] = ()) -> dict:
    """Merge the parameter defaults, the scenario's defaults, a config document
    and overrides (highest precedence). `tau` sets `tau1` and `tau2`: an
    overriding `tau` replaces both, so it cannot come with either of them, and
    a `tau` among the sweep `axes` replaces both at every point, so it cannot
    come with a `tau1` or `tau2` that differs from `tau`. An `eta0` given
    without an `eta` spec sets the spec `{"eta0": x}`, and that spec sets
    `eta0`."""
    config = dict(config or {})
    config.pop("sweep", None)
    overrides = {k: v for k, v in (overrides or {}).items() if v is not None}
    unknown = sorted(config.keys() - _CONFIG_KEYS)
    if unknown:
        raise ConfigError(f"unknown config key {', '.join(map(repr, unknown))}; "
                          f"accepted keys: {sorted(_CONFIG_KEYS)}")
    eta = config.get("eta")
    if isinstance(eta, dict) and "eta0" in eta and "eta0" in config and eta["eta0"] != config["eta0"]:
        raise ConfigError(f"config sets eta0 = {config['eta0']} and the eta spec {eta}: give one eta0")
    name = overrides.get("scenario", config.get("scenario"))
    if not name:
        raise ConfigError("no scenario given (set 'scenario' in the config or pass --scenario)")
    if not isinstance(name, str) or name not in SCENARIOS:
        raise ConfigError(f"unknown scenario {name!r}; choose from {sorted(SCENARIOS)}")
    both = [k for k in ("tau1", "tau2") if "tau" in overrides and k in overrides]
    if both:
        raise ConfigError(f"cannot set tau together with {' and '.join(both)} (tau sets tau1 and tau2)")
    cfg = {p.name: p.default for p in PARAMETERS if p.default is not None}
    cfg.update(SCENARIOS[name].defaults)
    cfg.update(config)
    cfg.update(overrides)
    cfg["scenario"] = name
    for layer in (config, overrides):
        if "eta0" in layer and "eta" not in layer:
            cfg["eta"] = {"eta0": layer["eta0"]}
    cfg.setdefault("tau1", cfg["tau"])
    cfg.setdefault("tau2", cfg["tau"])
    if "tau" in overrides:
        cfg["tau1"] = cfg["tau2"] = overrides["tau"]
    _validate_resolved(cfg)
    fixed = [k for k in ("tau1", "tau2") if "tau" in axes and cfg[k] != cfg["tau"]]
    if fixed:
        raise ConfigError(f"cannot sweep tau with {' and '.join(fixed)} set (tau sets tau1 and tau2)")
    if "eta0" in axes:  # the axis replaces the eta spec at every point, so no point would check it
        _eta(cfg)
    return cfg


def _range_text(p: Parameter) -> str:
    if p.high == math.inf:
        return "finite" if p.low == -math.inf else f"at least {p.low:g}"
    return f"in [{p.low:g},{p.high:g}]"


def _validate_resolved(cfg: dict) -> None:
    try:
        for p in PARAMETERS:
            name, kind, _, low, high, _ = p
            x = cfg[name]
            if kind is int and isinstance(x, float) and not x.is_integer():  # int() would truncate it
                raise ConfigError(f"{name} must be an integer, got {x!r}")
            x = cfg[name] = kind(x)
            if not (low <= x <= high and (kind is int or math.isfinite(x))):
                raise ConfigError(f"{name} must be {_range_text(p)}, got {x}")
        if cfg["ntraj"] * cfg["steps"] > MAX_TRAJECTORY_STEPS:
            raise ConfigError(f"ntraj*steps must be at most {MAX_TRAJECTORY_STEPS}, "
                              f"got {cfg['ntraj']}*{cfg['steps']} = {cfg['ntraj'] * cfg['steps']}")
        if "stage" in cfg:
            stage = cfg["stage"]
            kind = stage.get("type") if isinstance(stage, dict) else None
            if kind not in _STAGE_TYPES:
                raise ConfigError(f"a stage needs a type from {sorted(_STAGE_TYPES)}, got {stage!r}")
            keys, _ = _STAGE_TYPES[kind]
            stray = sorted(stage.keys() - {"type", *keys})
            if stray:
                raise ConfigError(f"stage {kind!r} does not read {', '.join(map(repr, stray))}; "
                                  f"it reads {sorted(keys)}")
            if len(SCENARIOS[cfg["scenario"]].stages) > 1:
                raise ConfigError(f"scenario {cfg['scenario']!r} compares several protocols: "
                                  f"a config stage applies only to single-protocol scenarios")
        eta = cfg["eta"]  # every scenario's defaults hold one
        if not isinstance(eta, dict) or len(eta) != 1 or next(iter(eta)) not in _ETA_KINDS:
            raise ConfigError(f"an eta spec needs exactly one of {', '.join(map(repr, _ETA_KINDS))}, got {eta!r}")
        if "eta0" in eta:
            x = float(eta["eta0"])
            if not (cfg["d"] == 2 and 0.0 <= x <= 1.0):
                raise ConfigError(f"eta0 sets the qubit controller state diag(eta0, 1-eta0) and needs d=2 "
                                  f"and eta0 in [0,1], got d={cfg['d']}, eta0={eta['eta0']}")
            cfg["eta0"] = x  # the eta0 that the run uses
    except (TypeError, ValueError, OverflowError) as exc:  # float() of an int beyond the float range overflows
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(f"bad config value: {exc}") from exc


def _parse_complex(x) -> complex:
    if isinstance(x, (int, float)):
        z = complex(x)
    elif isinstance(x, (list, tuple)) and len(x) == 2:
        z = complex(float(x[0]), float(x[1]))
    else:
        raise ConfigError(f"matrix entries must be numbers or [re, im] pairs, got {x!r}")
    if not cmath.isfinite(z):
        raise ConfigError(f"matrix entries must be finite, got {x!r}")
    return z


def parse_matrix(rows) -> np.ndarray:
    try:
        return np.array([[_parse_complex(x) for x in row] for row in rows], dtype=complex)
    except (TypeError, OverflowError, ConfigError) as exc:
        raise ConfigError(f"could not parse matrix: {exc}") from exc


# each type of config `stage`: the keys it reads besides `type`, and its controller operators built from them at d
_STAGE_TYPES = {
    "cf": (("unitary",), lambda spec, d: coherent_stage(d, parse_matrix(spec["unitary"]))),
    "mf-projective": (("feedback", "basis"), lambda spec, d: projective_stage(
        d, tuple(map(parse_matrix, spec["feedback"])), parse_matrix(spec["basis"]) if "basis" in spec else None)),
    "mf-povm": (("kraus",), lambda spec, d: povm_stage(d, tuple(map(parse_matrix, spec["kraus"])))),
}


def _stage_from_config(spec: dict, d: int) -> np.ndarray:
    """The controller operators of a config `stage` object whose type resolve_config checked, checked against d."""
    kind = spec["type"]
    try:
        return _STAGE_TYPES[kind][1](spec, d)
    except ConfigError:
        raise
    except KeyError as exc:
        raise ConfigError(f"stage {kind!r} needs the key {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad stage {kind!r} at d={d}: {exc}") from exc


def _eta(cfg: dict) -> np.ndarray:
    """The controller reset state of a resolved config's eta spec, a dict of exactly one kind."""
    spec = cfg["eta"]
    try:
        if "preset" in spec:
            return controller_state(cfg["d"], spec["preset"])
        if "eta0" in spec:
            return controller_state(2, cfg["eta0"])
        return controller_state(cfg["d"], parse_matrix(spec["matrix"]))
    except ConfigError:
        raise
    except (TypeError, ValueError, OverflowError) as exc:  # float() of an int beyond the float range overflows
        raise ConfigError(f"bad eta spec {spec!r} at d={cfg['d']}: {exc}") from exc


def bitflip_povm_kraus(a: float, b: float) -> tuple[np.ndarray, np.ndarray]:
    """In-loop POVM for the bit-flip task: {σ_x P0, σ_x P1}, P0 = diag(a, b)."""
    p0 = np.diag([a, b]).astype(complex)
    p1 = np.diag([math.sqrt(1.0 - a * a), math.sqrt(1.0 - b * b)]).astype(complex)
    return pauli_x @ p0, pauli_x @ p1


# --- the scenario table ----------------------------------------------------
# Noise, stage and oracle entries take the resolved config; a stage entry returns its controller operators.

def _depolarizing(cfg: dict):
    return depolarizing_channel(cfg["d"], cfg["lambda"])


def _damping(cfg: dict):
    return amplitude_damping_channel(cfg["gamma"])


def _noiseless(cfg: dict):
    return identity_channel(cfg["d"])


def _cool(cfg: dict):
    """Measure the controller and re-prepare |0> whatever the outcome."""
    return all_to_target_stage(cfg["d"], 0)


def _cool_to_dominant(cfg: dict):
    """Re-prepare the dominant state of the qubit η: |0> when <0|η|0> >= <1|η|1>, else |1>."""
    eta = _eta(cfg)
    return all_to_target_stage(cfg["d"], 0 if eta[0, 0].real >= eta[1, 1].real else 1)


def _do_nothing(cfg: dict):
    return coherent_stage(cfg["d"], np.eye(cfg["d"], dtype=complex))


def _unrotated(cfg: dict) -> bool:
    return cfg["chi"] == 0.0 and cfg["phi1"] == 0.0


def _coherent_loop(cfg: dict):
    """The qubit unitary of (chi, phi1) when either is set at d=2; the identity otherwise."""
    if cfg["d"] == 2 and not _unrotated(cfg):
        return coherent_stage(2, qubit_unitary(cfg["chi"], cfg["phi1"]))
    return _do_nothing(cfg)


def _repump(cfg: dict):
    """Measure, then repump to |1>: rotate by pi/2 on outcome 0, do nothing on outcome 1."""
    return projective_stage(2, (rotation(np.pi / 2), np.eye(2, dtype=complex)))


def _mf_noisy_oracle(cfg: dict) -> dict[str, float]:
    spectrum = oracles.mf_noisy_steady(cfg["d"], cfg["tau1"], cfg["lambda"])
    return {"oracle_alpha0": spectrum[0], "oracle_alpha1": spectrum[-1]}


def _ad_cf_oracle(cfg: dict) -> dict[str, float]:
    """rho11 of the chi=0 or the chi=pi/2 loop; no oracle at any other angle."""
    chi0, chipi2, _, _, _ = oracles.ad_occupations(cfg["tau1"], cfg["gamma"])
    return {"oracle_rho11": r for chi, r in ((0.0, chi0), (np.pi / 2, chipi2)) if abs(cfg["chi"] - chi) < 1e-12}


def _ad_compare_oracle(cfg: dict) -> dict[str, float]:
    """The three occupations, and the CF-over-MF threshold τ* where one exists (not at gamma=1). The
    fifth value of ad_occupations, its CF-beats-MF verdict, is dropped: cf_beats_mf is read off the row."""
    *rho11, crossover, _ = oracles.ad_occupations(cfg["tau1"], cfg["gamma"])
    columns = dict(zip(("oracle_rho11_chi0", "oracle_rho11_chipi2", "oracle_rho11_mf"), rho11))
    return columns if math.isnan(crossover) else columns | {"oracle_cf_crossover_tau": crossover}


def _entropy_difference(row: dict) -> dict[str, float]:
    return {"s_mf_minus_s_cf": row["mf_entropy_linear"] - row["cf_entropy_linear"]}


def _cf_verdict(row: dict) -> dict[str, float]:
    return {"cf_beats_mf": float(max(row["cf_chi0_rho11"], row["cf_chipi2_rho11"]) > row["mf_rho11"])}


class Scenario(NamedTuple):
    """One preset: its protocols share the noise channel and the reset state η."""

    kind: str                     # "steady" (one protocol), "compare" (several) or "bitflip" (Haar fidelity)
    defaults: dict                # always holds the scenario's own η spec
    noise: Callable
    stages: dict[str, Callable]   # protocol label -> its in-loop stage's controller operators
    qubit_only: bool
    oracle: Callable              # the oracle columns, valid at tau1 == tau2
    derived: Callable | None      # comparison columns read off the simulated row


_NOISY, _CLEAN, _ETA = {"eta": {"preset": "noisy"}}, {"eta": {"preset": "clean"}}, {"eta": {"eta0": 0.5}}

# name: Scenario(kind, defaults, noise, {label: stage}, qubit_only, oracle columns, derived columns)
SCENARIOS: dict[str, Scenario] = {
    "mf-noisy-cooling": Scenario("steady", _NOISY, _depolarizing, {"mf": _cool}, False, _mf_noisy_oracle, None),
    "mf-clean-cooling": Scenario(
        "steady", _CLEAN, _depolarizing, {"mf": _cool}, False,
        lambda c: {"oracle_entropy_linear": oracles.eta_entropies(c["tau1"], c["lambda"], 1.0)[0]} if c["d"] == 2 else {},
        None),
    "mf-eta-cooling": Scenario(
        "steady", _ETA, _depolarizing, {"mf": _cool_to_dominant}, True,
        lambda c: {"oracle_entropy_linear": oracles.eta_entropies(c["tau1"], c["lambda"], c["eta0"])[0]}, None),
    "cf-noisy": Scenario("steady", _NOISY, _depolarizing, {"cf": _coherent_loop}, False,
                         lambda c: {"oracle_alpha0": 1.0 / c["d"]}, None),
    "cf-clean": Scenario(
        "steady", _CLEAN, _depolarizing, {"cf": _coherent_loop}, False,
        lambda c: {"oracle_alpha0": oracles.cf_clean_steady(c["d"], c["tau1"], c["lambda"])[0]} if _unrotated(c) else {},
        None),
    "cf-eta": Scenario(
        "steady", _ETA, _depolarizing, {"cf": _coherent_loop}, False,
        lambda c: ({"oracle_entropy_linear": oracles.eta_entropies(c["tau1"], c["lambda"], c["eta0"])[1]}
                   if _unrotated(c) else {}),
        None),
    "ad-cf": Scenario("steady", _NOISY, _damping, {"cf": lambda c: coherent_stage(2, rotation(c["chi"]))}, True,
                      _ad_cf_oracle, None),
    "ad-mf": Scenario("steady", _NOISY, _damping, {"mf": _repump}, True,
                      lambda c: {"oracle_rho11": oracles.ad_occupations(c["tau1"], c["gamma"])[2]}, None),
    "clean-cooling-compare": Scenario(
        "compare", _CLEAN, _depolarizing, {"mf": _cool, "cf": _do_nothing}, True,
        lambda c: dict(zip(("oracle_s_mf", "oracle_s_cf"), oracles.clean_qubit_entropies(c["tau1"], c["lambda"]))),
        _entropy_difference),
    "eta-cooling-compare": Scenario(
        "compare", _ETA, _depolarizing, {"mf": _cool_to_dominant, "cf": _do_nothing}, True,
        lambda c: dict(zip(("oracle_s_mf", "oracle_s_cf"), oracles.eta_entropies(c["tau1"], c["lambda"], c["eta0"]))),
        _entropy_difference),
    "ad-compare": Scenario(
        "compare", _NOISY, _damping,
        {"cf_chi0": lambda c: coherent_stage(2, rotation(0.0)),
         "cf_chipi2": lambda c: coherent_stage(2, rotation(np.pi / 2)), "mf": _repump},
        True,
        _ad_compare_oracle,
        _cf_verdict),
    "bitflip-cf": Scenario("bitflip", _NOISY, _noiseless, {"cf": lambda c: coherent_stage(2, pauli_x)}, True,
                           lambda c: {"oracle_fidelity": oracles.bitflip_line_fidelities(c["tau1"])[0]}, None),
    "bitflip-mf": Scenario("bitflip", _NOISY, _noiseless, {"mf": lambda c: projective_stage(2, (pauli_x, pauli_x))},
                           True, lambda c: {"oracle_fidelity": oracles.bitflip_line_fidelities(c["tau1"])[1]}, None),
    "bitflip-povm": Scenario(
        "bitflip", _NOISY, _noiseless, {"mf": lambda c: povm_stage(2, bitflip_povm_kraus(c["a"], c["b"]))}, True,
        lambda c: {"oracle_fidelity": oracles.bitflip_fidelity(c["tau1"], c["a"], c["b"])}, None),
}


def _stages(cfg: dict) -> dict[str, np.ndarray]:
    """The in-loop stage of each protocol label of a resolved config, as its
    stacked controller operators. A config `stage` (resolve_config admits one
    only for a single-protocol scenario) replaces the scenario's own."""
    scenario, d = SCENARIOS[cfg["scenario"]], cfg["d"]
    override = _stage_from_config(cfg["stage"], d) if "stage" in cfg else None
    if scenario.qubit_only and d != 2:
        raise ConfigError(f"scenario {cfg['scenario']!r} is qubit-only (d=2)")
    return {label: stage(cfg) if override is None else override for label, stage in scenario.stages.items()}


def build_protocols(cfg: dict) -> dict[str, FeedbackProtocol]:
    """Instantiate the protocol(s) for a resolved config, keyed by label."""
    stages = _stages(cfg)
    noise, eta = SCENARIOS[cfg["scenario"]].noise(cfg), _eta(cfg)
    return {label: FeedbackProtocol(d=cfg["d"], noise=noise, tau1=cfg["tau1"], tau2=cfg["tau2"], eta=eta, ops=ops)
            for label, ops in stages.items()}


def _steady_metrics(rho: np.ndarray, gap: np.ndarray, prefix: str, spectrum: bool) -> dict[str, np.ndarray]:
    """Metric columns of a stack of steady states (P, d, d) and their gaps, and the spectra (P, d) if asked."""
    w = np.sort(np.linalg.eigvalsh(rho), axis=-1)[:, ::-1]
    columns = {
        f"{prefix}alpha0": w[:, 0],
        f"{prefix}entropy_vn_norm": von_neumann_entropy(rho, normalised=True),
        f"{prefix}entropy_linear": linear_entropy(rho),
        f"{prefix}purity": purity(rho),
        f"{prefix}rho11": rho[:, 1, 1].real,
        f"{prefix}gap": gap,
    }
    return columns | {f"{prefix}spectrum": w} if spectrum else columns


# The parts of a sweep point: the config keys each reads, and its builder. They are built in this
# order, so a stage's refusals (a qubit-only scenario at d > 2) come before any noise is built.
_PARTS = {
    "ops": (tuple(sorted(_CONFIG_KEYS - {"sweep", "tau", "tau1", "tau2", "lambda", "gamma"})), _stages),
    "noise": (("scenario", "d", "lambda", "gamma"), lambda cfg: noise_liouville(SCENARIOS[cfg["scenario"]].noise(cfg))),
    "eta": (("d", "eta", "eta0"), _eta),
}


def _point_parts(cfg: dict, built: dict) -> dict:
    """η, the noise Liouville matrix and each protocol label's stacked
    controller operators (`ops`) for one config. Each part is built once per
    distinct value of the config keys it reads: `built` holds the parts
    already built, keyed by part name and those values."""
    parts = {}
    for name, (keys, build) in _PARTS.items():
        key = (name, repr([cfg.get(k) for k in keys]))
        if key not in built:
            built[key] = build(cfg)
        parts[name] = built[key]
    return parts


def _block_columns(cfgs: list[dict], built: dict, spectrum: bool) -> tuple[dict[str, np.ndarray],
                                                                           list[DegenerateSteadyStateError | None]]:
    """Simulated metric columns of a block of configs of one scenario and d,
    with each protocol label built and solved as one stack, and for every
    point its DegenerateSteadyStateError, or None where its steady states are
    unique. `built`: the parts of `_point_parts` built so far."""
    scenario, d = SCENARIOS[cfgs[0]["scenario"]], cfgs[0]["d"]
    parts = [_point_parts(cfg, built) for cfg in cfgs]
    tau1, tau2 = [cfg["tau1"] for cfg in cfgs], [cfg["tau2"] for cfg in cfgs]
    eta, noise = np.stack([part["eta"] for part in parts]), np.stack([part["noise"] for part in parts])
    columns: dict[str, np.ndarray] = {}
    errors: list[DegenerateSteadyStateError | None] = [None] * len(cfgs)
    for label in scenario.stages:
        ops = np.stack([part["ops"][label] for part in parts])
        sops = superoperators(branch_liouvillians(tau1, tau2, eta, ops, noise), d)
        if scenario.kind == "bitflip":  # the figure of merit is the Haar-averaged fidelity, not a steady state
            columns["haar_fidelity"] = np.array([haar_avg_bitflip_fidelity(m) for m in sops])
            continue
        states, second, degenerate = steady_states(sops, d)
        unique = np.flatnonzero(~degenerate)
        prefix = f"{label}_" if scenario.kind == "compare" else ""
        for key, column in _steady_metrics(states[unique], 1.0 - second[unique], prefix, spectrum).items():
            columns[key] = np.full((len(cfgs), *column.shape[1:]), np.nan)
            columns[key][unique] = column
        for i in np.flatnonzero(degenerate):
            errors[i] = errors[i] or degenerate_error(second[i])
    return columns, errors


def metric_rows(cfgs: list[dict], *, _spectrum: bool = False) -> list[dict[str, float] | DegenerateSteadyStateError]:
    """The metric rows of resolved configs of one scenario and d (the points
    of a sweep), computed as one batch per block of points whose L stacks fit
    MAX_BLOCK_BYTES. A point whose steady state is degenerate gets its
    DegenerateSteadyStateError in place of a row. `_spectrum` adds each steady
    state's descending spectrum to its row, as the list `spectrum` (no CSV column)."""
    d = cfgs[0]["d"]
    built: dict = {}  # the parts built so far, shared by every block; the first point's parts size the blocks
    n_outcomes = max(len(ops) for ops in _point_parts(cfgs[0], built)["ops"].values())
    size = max(1, MAX_BLOCK_BYTES // (16 * n_outcomes * d ** 4))
    rows = []
    for start in range(0, len(cfgs), size):
        block = cfgs[start:start + size]
        columns, errors = _block_columns(block, built, _spectrum)
        cells = {key: column.tolist() for key, column in columns.items()}  # Python floats, a spectrum a list
        rows += [error or _with_oracle(cfg, {key: values[i] for key, values in cells.items()})
                 for i, (cfg, error) in enumerate(zip(block, errors))]
    return rows


def _oracle_applies(cfg: dict, scenario: Scenario) -> bool:
    """The oracles hold at tau1 == tau2, for the scenario's own stages and η spec (an eta0
    scenario takes any eta0)."""
    spec, own = cfg["eta"], scenario.defaults["eta"]
    own_eta = spec == own or ("eta0" in own and spec.keys() == {"eta0"})
    return cfg["tau1"] == cfg["tau2"] and own_eta and "stage" not in cfg


# oracle column -> the simulated column that `oracle_dev` compares it with
_DEV_COLUMNS = {"oracle_alpha0": "alpha0", "oracle_entropy_linear": "entropy_linear", "oracle_rho11": "rho11",
                "oracle_fidelity": "haar_fidelity"}


def metric_row(cfg: dict, *, _spectrum: bool = False) -> dict[str, float]:
    """The metric row of a resolved config: the one-point case of `metric_rows`,
    raising DegenerateSteadyStateError at a degenerate point."""
    (row,) = metric_rows([cfg], _spectrum=_spectrum)
    if isinstance(row, DegenerateSteadyStateError):
        raise row
    return row


def _with_oracle(cfg: dict, row: dict[str, float]) -> dict[str, float]:
    """A simulated row with its oracle and derived columns appended."""
    scenario = SCENARIOS[cfg["scenario"]]
    if _oracle_applies(cfg, scenario):
        oracle = scenario.oracle(cfg)
        row.update(oracle)
        first = next(iter(oracle), None)
        if first in _DEV_COLUMNS:
            row["oracle_dev"] = abs(row[_DEV_COLUMNS[first]] - oracle[first])
    if scenario.derived is not None:
        row.update(scenario.derived(row))
    return row
