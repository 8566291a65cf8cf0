"""The benchmark's workloads: each is a fixed mix of `qfeedback` CLI
invocations, drawn round by round from a seeded generator.

A round holds the same number of invocations of every member of the mix, in
a shuffled order, so any whole number of rounds keeps the mix exact. The seed
draws only parameter values, all inside [0.03, 0.97] (the range `validate`
uses); the program sees nothing but the generated argv.

This module imports only the standard library, so that the benchmark can time
the import of `qfeedback.cli` before numpy is loaded.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

LO, HI = 0.03, 0.97

# Sweep axis and the parameters drawn for each of the 14 scenarios. An axis
# tuple of two names is an a x b grid; every other sweep has one axis.
SWEEP_MIX: dict[str, tuple[tuple[str, ...], tuple[str, ...]]] = {
    "mf-noisy-cooling": (("tau",), ("lambda",)),
    "mf-clean-cooling": (("tau",), ("lambda",)),
    "mf-eta-cooling": (("eta0",), ("tau", "lambda")),
    "cf-noisy": (("lambda",), ("tau",)),
    "cf-clean": (("tau",), ("lambda",)),
    "cf-eta": (("eta0",), ("tau", "lambda")),
    "ad-cf": (("gamma",), ("tau",)),
    "ad-mf": (("tau",), ("gamma",)),
    "clean-cooling-compare": (("tau",), ("lambda",)),
    "eta-cooling-compare": (("eta0",), ("tau", "lambda")),
    "ad-compare": (("gamma",), ("tau",)),
    "bitflip-cf": (("tau",), ()),
    "bitflip-mf": (("tau",), ()),
    "bitflip-povm": (("a", "b"), ("tau",)),
}
STEADY_MIX = [(s, d) for s in ("mf-noisy-cooling", "cf-clean", "cf-noisy") for d in (3, 4, 8)]
TRAJ_MIX = [
    ("mf-noisy-cooling", 2, ("tau", "lambda")),
    ("mf-clean-cooling", 2, ("tau", "lambda")),
    ("mf-eta-cooling", 2, ("tau", "lambda", "eta0")),
    ("ad-mf", 2, ("tau", "gamma")),
    ("mf-noisy-cooling", 3, ("tau", "lambda")),
]

# Per-scale sizes. "full" is what the benchmark measures; "tiny" runs every
# code path of the same mix in well under a second per round (smoke test).
SCALES = {
    "full": {"points": 11, "grid": 4, "steady_d": (3, 4, 8), "ntraj": 1000, "steps": 40,
             "min_invocations": 20},
    "tiny": {"points": 3, "grid": 2, "steady_d": (3,), "ntraj": 200, "steps": 5,
             "min_invocations": 1},
}


@dataclass
class Invocation:
    """One CLI call: its argv, the work it completes, and what the checks need."""

    command: str                # "sweep" | "steady" | "trajectories"
    argv: list[str]
    work: int
    params: dict = field(default_factory=dict)   # resolved-config overrides
    out: str | None = None      # --out file name, placed in the run's temp dir
    rows: int = 0               # expected CSV data rows (sweep, trajectories)


@dataclass(frozen=True)
class Workload:
    work_unit: str
    why: str


WORKLOADS = {
    "sweep-qubit": Workload(
        "sweep-point",
        "all 14 scenarios at d=2, one protocol built per sweep point: protocol "
        "construction and small-call overhead, with Haar quadrature in the tail"),
    "steady-qudit": Workload(
        "invocation",
        "qudit steady states at d=3,4,8: the J*d^6 superoperator build and the "
        "double steady-state solve set the tail and peak memory; no ensemble or CSV"),
    "trajectories": Workload(
        "trajectory-step",
        "conditional ensembles with CSV output: branch step, RNG streams, thread pool "
        "and CSV writer; no superoperator, the control for steady-side changes"),
}


def _draw(rng: random.Random) -> float:
    return round(rng.uniform(LO, HI), 6)


def _axis(rng: random.Random, name: str, count: int) -> str:
    lo, hi = sorted((_draw(rng), _draw(rng)))
    return f"{name}={lo!r}:{hi!r}:{count}"


def _flags(params: dict) -> list[str]:
    argv = []
    for k, v in params.items():
        argv += [f"--{k}", repr(v) if isinstance(v, float) else str(v)]
    return argv


def _sweep_round(rng: random.Random, size: dict) -> list[Invocation]:
    out = []
    for scenario, (axes, drawn) in SWEEP_MIX.items():
        params = {"scenario": scenario, "d": 2} | {k: _draw(rng) for k in drawn}
        count = size["grid"] if len(axes) == 2 else size["points"]
        argv = ["sweep"] + _flags(params)
        for name in axes:
            argv += ["--sweep", _axis(rng, name, count)]
        points = count ** len(axes)
        out.append(Invocation("sweep", argv, points, params, "sweep.csv", points))
    return out


def _steady_round(rng: random.Random, size: dict) -> list[Invocation]:
    out = []
    for scenario, d in STEADY_MIX:
        if d not in size["steady_d"]:
            continue
        params = {"scenario": scenario, "d": d, "tau": _draw(rng), "lambda": _draw(rng)}
        out.append(Invocation("steady", ["steady"] + _flags(params), 1, params))
    return out


def _traj_round(rng: random.Random, size: dict) -> list[Invocation]:
    out = []
    ntraj, steps = size["ntraj"], size["steps"]
    for scenario, d, drawn in TRAJ_MIX:
        params = ({"scenario": scenario, "d": d} | {k: _draw(rng) for k in drawn}
                  | {"ntraj": ntraj, "steps": steps, "seed": rng.randrange(2**31)})
        out.append(Invocation("trajectories", ["trajectories"] + _flags(params), ntraj * steps,
                              params, "traj.csv", ntraj * steps + steps))
    return out


_ROUND = {"sweep-qubit": _sweep_round, "steady-qudit": _steady_round,
          "trajectories": _traj_round}


def rounds(workload: str, seed: int, scale: str = "full"):
    """Endless generator of shuffled rounds; the same seed gives the same rounds."""
    rng = random.Random(f"{workload}:{seed}")
    make, size = _ROUND[workload], SCALES[scale]
    while True:
        batch = make(rng, size)
        rng.shuffle(batch)
        yield batch
