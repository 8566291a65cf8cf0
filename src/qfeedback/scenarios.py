"""Named protocol presets covering every closed-form case in the package,
plus the config resolution used by the command-line front end.

Each preset is one `Scenario` record in `SCENARIOS`: a noise channel and a
controller reset state η shared by its protocols, per protocol label the
in-loop stage, its defaults and its closed-form oracle columns. The noise and
each stage are `Part`s: the config keys the part reads and a builder that
returns the parts of a batch of configs as one stack (the noise's Kraus
operators (P, n, d, d), a stage's controller operators (P, J, d, d)). The CLI
and `validate` build every preset protocol from this table. `PARAMETERS`
declares each config parameter once: its type, default, range and flag help,
from which the defaults, the config check, the CLI flags and the sweep axes
are read. A scenario resolves a flat config dict (parameter defaults <
scenario defaults < config file < command-line overrides). `metric_rows`
computes the metric rows of many configs (a sweep, or the one point of
`steady`) as one batch, with the oracle values wherever the oracle describes
the protocol that was built: a part whose keys take one value over the
configs is built once, any other as one stack per block of points, once per
distinct value and dropped with its block, and each protocol label is built
and solved as one stack. `build_protocols` builds a config's
`FeedbackProtocol`s, for the commands and checks that step the cycle itself.
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
from .metrics import haar_avg_bitflip_fidelity, steady_metrics
from .quantum import (
    KrausChannel,
    amplitude_damping_kraus,
    check_complete,
    controller_state,
    depolarizing_kraus,
    eta0_states,
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


def bitflip_povm_kraus(a, b) -> tuple[np.ndarray, np.ndarray]:
    """In-loop POVM for the bit-flip task: {σ_x P0, σ_x P1}, P0 = diag(a, b). Arrays of a and b
    give a stack of each operator, (..., 2, 2)."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    p0, p1 = np.zeros((2, *a.shape, 2, 2), dtype=complex)
    p0[..., 0, 0], p0[..., 1, 1] = a, b
    p1[..., 0, 0], p1[..., 1, 1] = np.sqrt(1.0 - a * a), np.sqrt(1.0 - b * b)
    return pauli_x @ p0, pauli_x @ p1


# --- the scenario table ----------------------------------------------------

class Part(NamedTuple):
    """A part of the protocols of a batch of configs of one scenario and d: the config keys it reads
    besides those two, and its builder, which takes configs of such a batch and returns their parts
    stacked on a leading point axis."""

    keys: tuple[str, ...]
    build: Callable[[list[dict]], np.ndarray]


def _each(keys: tuple[str, ...], stage: Callable) -> Part:
    """The Part of a stage built from one config at a time."""
    return Part(keys, lambda cfgs: np.stack([stage(cfg) for cfg in cfgs]))


# Noise entries give the noise channels' Kraus operators, stage entries the in-loop stages' controller
# operators, each stacked per config: (P, n, d, d) and (P, J, d, d).

_DEPOLARIZING = Part(("lambda",), lambda cfgs: depolarizing_kraus(cfgs[0]["d"], [cfg["lambda"] for cfg in cfgs]))
_DAMPING = Part(("gamma",), lambda cfgs: amplitude_damping_kraus([cfg["gamma"] for cfg in cfgs]))
_NOISELESS = Part((), lambda cfgs: np.eye(cfgs[0]["d"], dtype=complex)[None, None].repeat(len(cfgs), axis=0))


def _etas(cfgs: list[dict]) -> np.ndarray:
    """The controller reset states of resolved configs of one d, stacked (P, d, d): those of an eta0
    spec in one call."""
    if all("eta0" in cfg["eta"] for cfg in cfgs):
        return eta0_states([cfg["eta0"] for cfg in cfgs])
    return np.stack([_eta(cfg) for cfg in cfgs])


_ETA = Part(("eta", "eta0"), _etas)


def _cool(cfg: dict):
    """Measure the controller and re-prepare |0> whatever the outcome."""
    return all_to_target_stage(cfg["d"], 0)


def _cool_to_dominant(cfgs: list[dict]) -> np.ndarray:
    """Re-prepare the dominant state of the qubit η: |0> when <0|η|0> >= <1|η|1>, else |1>."""
    eta = _etas(cfgs)
    targets = np.where(eta[:, 0, 0].real >= eta[:, 1, 1].real, 0, 1)
    stages = {target: all_to_target_stage(2, target) for target in dict.fromkeys(targets.tolist())}
    return np.stack([stages[target] for target in targets.tolist()])


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


def _bitflip_povm(cfgs: list[dict]) -> np.ndarray:
    """The POVM stages of `bitflip_povm_kraus`, each checked complete as povm_stage checks one."""
    kraus = bitflip_povm_kraus([cfg["a"] for cfg in cfgs], [cfg["b"] for cfg in cfgs])
    return check_complete(np.stack(kraus, axis=1), 2)


_COOL, _DO_NOTHING, _REPUMP = _each((), _cool), _each((), _do_nothing), _each((), _repump)
_COHERENT_LOOP, _COOL_TO_DOMINANT = _each(("chi", "phi1"), _coherent_loop), Part(("eta", "eta0"), _cool_to_dominant)


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
    noise: Part                   # the noise channel's Kraus operators
    stages: dict[str, Part]       # protocol label -> its in-loop stage's controller operators
    qubit_only: bool
    oracle: Callable              # the oracle columns, valid at tau1 == tau2
    derived: Callable | None      # comparison columns read off the simulated row


_NOISY, _CLEAN, _ETA0 = {"eta": {"preset": "noisy"}}, {"eta": {"preset": "clean"}}, {"eta": {"eta0": 0.5}}

# name: Scenario(kind, defaults, noise, {label: stage}, qubit_only, oracle columns, derived columns)
SCENARIOS: dict[str, Scenario] = {
    "mf-noisy-cooling": Scenario("steady", _NOISY, _DEPOLARIZING, {"mf": _COOL}, False, _mf_noisy_oracle, None),
    "mf-clean-cooling": Scenario(
        "steady", _CLEAN, _DEPOLARIZING, {"mf": _COOL}, False,
        lambda c: {"oracle_entropy_linear": oracles.eta_entropies(c["tau1"], c["lambda"], 1.0)[0]} if c["d"] == 2 else {},
        None),
    "mf-eta-cooling": Scenario(
        "steady", _ETA0, _DEPOLARIZING, {"mf": _COOL_TO_DOMINANT}, True,
        lambda c: {"oracle_entropy_linear": oracles.eta_entropies(c["tau1"], c["lambda"], c["eta0"])[0]}, None),
    "cf-noisy": Scenario("steady", _NOISY, _DEPOLARIZING, {"cf": _COHERENT_LOOP}, False,
                         lambda c: {"oracle_alpha0": 1.0 / c["d"]}, None),
    "cf-clean": Scenario(
        "steady", _CLEAN, _DEPOLARIZING, {"cf": _COHERENT_LOOP}, False,
        lambda c: {"oracle_alpha0": oracles.cf_clean_steady(c["d"], c["tau1"], c["lambda"])[0]} if _unrotated(c) else {},
        None),
    "cf-eta": Scenario(
        "steady", _ETA0, _DEPOLARIZING, {"cf": _COHERENT_LOOP}, False,
        lambda c: ({"oracle_entropy_linear": oracles.eta_entropies(c["tau1"], c["lambda"], c["eta0"])[1]}
                   if _unrotated(c) else {}),
        None),
    "ad-cf": Scenario("steady", _NOISY, _DAMPING, {"cf": _each(("chi",), lambda c: coherent_stage(2, rotation(c["chi"])))},
                      True, _ad_cf_oracle, None),
    "ad-mf": Scenario("steady", _NOISY, _DAMPING, {"mf": _REPUMP}, True,
                      lambda c: {"oracle_rho11": oracles.ad_occupations(c["tau1"], c["gamma"])[2]}, None),
    "clean-cooling-compare": Scenario(
        "compare", _CLEAN, _DEPOLARIZING, {"mf": _COOL, "cf": _DO_NOTHING}, True,
        lambda c: dict(zip(("oracle_s_mf", "oracle_s_cf"), oracles.clean_qubit_entropies(c["tau1"], c["lambda"]))),
        _entropy_difference),
    "eta-cooling-compare": Scenario(
        "compare", _ETA0, _DEPOLARIZING, {"mf": _COOL_TO_DOMINANT, "cf": _DO_NOTHING}, True,
        lambda c: dict(zip(("oracle_s_mf", "oracle_s_cf"), oracles.eta_entropies(c["tau1"], c["lambda"], c["eta0"]))),
        _entropy_difference),
    "ad-compare": Scenario(
        "compare", _NOISY, _DAMPING,
        {"cf_chi0": _each((), lambda c: coherent_stage(2, rotation(0.0))),
         "cf_chipi2": _each((), lambda c: coherent_stage(2, rotation(np.pi / 2))), "mf": _REPUMP},
        True,
        _ad_compare_oracle,
        _cf_verdict),
    "bitflip-cf": Scenario("bitflip", _NOISY, _NOISELESS, {"cf": _each((), lambda c: coherent_stage(2, pauli_x))}, True,
                           lambda c: {"oracle_fidelity": oracles.bitflip_line_fidelities(c["tau1"])[0]}, None),
    "bitflip-mf": Scenario("bitflip", _NOISY, _NOISELESS,
                           {"mf": _each((), lambda c: projective_stage(2, (pauli_x, pauli_x)))}, True,
                           lambda c: {"oracle_fidelity": oracles.bitflip_line_fidelities(c["tau1"])[1]}, None),
    "bitflip-povm": Scenario(
        "bitflip", _NOISY, _NOISELESS, {"mf": Part(("a", "b"), _bitflip_povm)}, True,
        lambda c: {"oracle_fidelity": oracles.bitflip_fidelity(c["tau1"], c["a"], c["b"])}, None),
}


def _stages(cfg: dict) -> dict[str, Part]:
    """The in-loop stage of each protocol label for configs of cfg's scenario
    and d. A config `stage` (resolve_config admits one only for a
    single-protocol scenario) replaces the scenario's own: cfg's is read and
    checked here, before the scenario's qubit-only check."""
    scenario, d = SCENARIOS[cfg["scenario"]], cfg["d"]
    override = None
    if "stage" in cfg:
        override = _each(("stage",), lambda c: _stage_from_config(c["stage"], d))
        override.build([cfg])  # its refusal comes before the qubit-only one
    if scenario.qubit_only and d != 2:
        raise ConfigError(f"scenario {cfg['scenario']!r} is qubit-only (d=2)")
    return {label: override or stage for label, stage in scenario.stages.items()}


def build_protocols(cfg: dict) -> dict[str, FeedbackProtocol]:
    """Instantiate the protocol(s) for a resolved config, keyed by label."""
    stages = {label: stage.build([cfg])[0] for label, stage in _stages(cfg).items()}
    noise = KrausChannel(cfg["d"], SCENARIOS[cfg["scenario"]].noise.build([cfg])[0])
    eta = _etas([cfg])[0]
    return {label: FeedbackProtocol(d=cfg["d"], noise=noise, tau1=cfg["tau1"], tau2=cfg["tau2"], eta=eta, ops=ops)
            for label, ops in stages.items()}


def _batch_parts(cfg: dict) -> dict:
    """The parts of the protocols of configs of cfg's scenario and d, in the
    order they are built, so that a stage's refusals (a qubit-only scenario at
    d > 2) come before any noise is built: each label's stage, keyed
    ("ops", label), then the noise Liouville matrix, of Kraus operators checked
    complete as a KrausChannel checks them, and η."""
    noise, d = SCENARIOS[cfg["scenario"]].noise, cfg["d"]
    return ({("ops", label): stage for label, stage in _stages(cfg).items()}
            | {"noise": Part(noise.keys, lambda cfgs: noise_liouville(check_complete(noise.build(cfgs), d))),
               "eta": _ETA})


def _block_columns(cfgs: list[dict], parts: dict, spectrum: bool) -> tuple[dict[str, np.ndarray],
                                                                          list[DegenerateSteadyStateError | None]]:
    """Simulated metric columns of a block of configs of one scenario and d,
    with each protocol label built and solved as one stack, and for every
    point its DegenerateSteadyStateError, or None where its steady states are
    unique. `parts`: the block's parts of `_batch_parts`, stacked."""
    scenario, d = SCENARIOS[cfgs[0]["scenario"]], cfgs[0]["d"]
    tau1, tau2 = [cfg["tau1"] for cfg in cfgs], [cfg["tau2"] for cfg in cfgs]
    columns: dict[str, np.ndarray] = {}
    errors: list[DegenerateSteadyStateError | None] = [None] * len(cfgs)
    for label in scenario.stages:
        sops = superoperators(branch_liouvillians(tau1, tau2, parts["eta"], parts["ops", label], parts["noise"]), d)
        if scenario.kind == "bitflip":  # the figure of merit is the Haar-averaged fidelity, not a steady state
            columns["haar_fidelity"] = np.array([haar_avg_bitflip_fidelity(m) for m in sops])
            continue
        states, second, degenerate = steady_states(sops, d)
        unique = np.flatnonzero(~degenerate)
        prefix = f"{label}_" if scenario.kind == "compare" else ""
        for key, column in steady_metrics(states[unique], 1.0 - second[unique], prefix, spectrum).items():
            columns[key] = np.full((len(cfgs), *column.shape[1:]), np.nan)
            columns[key][unique] = column
        for i in np.flatnonzero(degenerate):
            errors[i] = errors[i] or degenerate_error(second[i])
    return columns, errors


def _distinct_build(part: Part, cfgs: list[dict]) -> np.ndarray:
    """The part's stack over configs, built (and so checked) once per distinct value of its keys."""
    keys = [repr([cfg[k] for k in part.keys]) for cfg in cfgs]
    distinct: dict = {}
    for key, cfg in zip(keys, cfgs):
        distinct.setdefault(key, cfg)
    index = {key: i for i, key in enumerate(distinct)}
    return part.build(list(distinct.values()))[[index[key] for key in keys]]


def metric_rows(cfgs: list[dict], *, _spectrum: bool = False) -> list[dict[str, float] | DegenerateSteadyStateError]:
    """The metric rows of resolved configs of one scenario and d, all with a
    config stage or none (the points of a sweep), computed as one batch per
    block of points whose L stacks fit MAX_BLOCK_BYTES. A part is built once
    where the keys it reads take one value over the configs, and otherwise as
    one stack per block, once per distinct value, which goes with its block. A
    point whose steady state is degenerate gets its DegenerateSteadyStateError
    in place of a row. `_spectrum` adds each steady state's descending spectrum
    to its row, as the list `spectrum` (no CSV column)."""
    first, d = cfgs[0], cfgs[0]["d"]
    parts = _batch_parts(first)
    varying = {key for key in {"scenario", "d", "stage"}.union(*(part.keys for part in parts.values()))
               if any(cfg.get(key) != first.get(key) for cfg in cfgs)}
    if not varying.isdisjoint({"scenario", "d"}) or ("stage" in varying and not all("stage" in cfg for cfg in cfgs)):
        raise ValueError("a batch of configs needs one scenario and d, and a config stage in all or none")
    shared = {name: part.build([first]) for name, part in parts.items()}  # the first point's refusals come first
    n_outcomes = max(shared["ops", label].shape[1] for label in SCENARIOS[first["scenario"]].stages)
    shared = {name: stack for name, stack in shared.items() if varying.isdisjoint(parts[name].keys)}
    size = max(1, MAX_BLOCK_BYTES // (16 * n_outcomes * d ** 4))
    rows = []
    for start in range(0, len(cfgs), size):
        block = cfgs[start:start + size]
        columns, errors = _block_columns(block, {
            name: np.broadcast_to(shared[name], (len(block), *shared[name].shape[1:])) if name in shared
            else _distinct_build(part, block) for name, part in parts.items()}, _spectrum)
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
