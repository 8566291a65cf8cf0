"""Command-line front end.

Subcommands: `steady` (steady-state report for a named scenario),
`trajectories` (conditional trajectory ensemble as CSV), `sweep` (1- or
2-axis parameter sweep as long-format CSV) and `validate` (the full
oracle-vs-simulator check table).

Every invocation resolves flags over the JSON config over scenario defaults;
runs that write an output file also write a `<out>.meta.json` sidecar with
the fully resolved configuration, seed and package version, which is enough
to reproduce the output byte for byte.

A sweep computes all its points as one batch. Points whose steady state is
degenerate are left out of the CSV, named on stderr and listed under
`degenerate` in the sidecar, and the sweep exits 3 after writing the other
rows.

Exit codes: 0 success, 1 validation failure, 2 configuration error,
3 degenerate steady state.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import json
import math
import os
import sys

import numpy as np

from . import __version__
from .loop import DegenerateSteadyStateError, sample_ensemble, steady_state
from .quantum import maximally_mixed
from .scenarios import PARAMETERS, SCENARIOS, ConfigError, build_protocols, metric_row, metric_rows, resolve_config

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_CONFIG = 2
EXIT_DEGENERATE = 3

MAX_SWEEP_POINTS = 10 ** 6  # a sweep holds about 4.2 KB per point


def _fmt(x: float) -> str:
    return f"{x:.15g}"


def _write_csv(path: str | None, header: list[str], blocks) -> None:
    """Write the CSV to `path`, or to stdout. `blocks` holds a (row template, columns) pair per block
    of rows sharing a layout, each formatted by one `%` (`%.15g` gives the bytes of `{:.15g}`)."""
    text = ",".join(header) + "\n" + "".join(
        (template * len(columns[0])) % tuple(itertools.chain.from_iterable(zip(*columns)))
        for template, columns in blocks)
    with open(path, "w", newline="\n") if path else contextlib.nullcontext(sys.stdout) as fh:
        fh.write(text)


def _row_blocks(rows: list[list]) -> list:
    """One block per run of rows of one layout: None is an empty cell, a float `%.15g`, else `%s`."""
    runs = itertools.groupby(rows, lambda row: ",".join(
        "" if x is None else "%.15g" if isinstance(x, float) else "%s" for x in row) + "\n")
    return [(template, list(zip(*([x for x in row if x is not None] for row in run)))) for template, run in runs]


def _write_sidecar(path: str, command: str, cfg: dict, **outcome) -> None:
    meta = {"command": command, "config": cfg, "version": __version__, **outcome}
    with open(path + ".meta.json", "w", newline="\n") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True, default=str)
        fh.write("\n")


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError(f"config {path} must hold a JSON object")
    return cfg


def _resolved(args: argparse.Namespace) -> dict:
    overrides = {p.name: getattr(args, p.name) for p in PARAMETERS}
    return resolve_config(_load_config(args.config), overrides | {"scenario": args.scenario})


def _threads(cfg: dict) -> int:
    return cfg["threads"] if cfg["threads"] > 0 else (os.cpu_count() or 1)


def cmd_steady(args: argparse.Namespace) -> int:
    cfg = _resolved(args)
    if SCENARIOS[cfg["scenario"]].kind != "steady":
        raise ConfigError(f"scenario {cfg['scenario']!r} is not a single-protocol steady scenario")
    (_, p), = build_protocols(cfg).items()
    rho, gap = steady_state(p)
    spectrum = np.sort(np.linalg.eigvalsh(rho))[::-1]
    row = metric_row(cfg, solved=(rho, gap))

    print(f"scenario: {cfg['scenario']} (d={cfg['d']}, tau1={cfg['tau1']:g}, tau2={cfg['tau2']:g}, "
          f"lambda={cfg['lambda']:g}, gamma={cfg['gamma']:g})")
    print("spectrum: " + ", ".join(_fmt(float(x)) for x in spectrum))
    print(f"von Neumann entropy (normalised): {_fmt(row['entropy_vn_norm'])}")
    print(f"linear entropy: {_fmt(row['entropy_linear'])}")
    print(f"purity: {_fmt(row['purity'])}")
    print(f"rho11: {_fmt(row['rho11'])}")
    print(f"spectral gap: {_fmt(row['gap'])}")
    oracle_keys = [k for k in row if k.startswith("oracle")]
    if oracle_keys:
        for k in oracle_keys:
            print(f"{k}: {_fmt(row[k])}")
    else:
        print("oracle: none for this configuration")
    print("resolved config: " + json.dumps(cfg, sort_keys=True, default=str))

    if args.out:
        header = ["scenario"] + [f"alpha{i}" for i in range(len(spectrum))] + list(row.keys())
        values = [cfg["scenario"]] + [float(x) for x in spectrum] + [row[k] for k in row]
        _write_csv(args.out, header, _row_blocks([values]))
        _write_sidecar(args.out, "steady", cfg)
    return EXIT_OK


def cmd_trajectories(args: argparse.Namespace) -> int:
    cfg = _resolved(args)
    protos = build_protocols(cfg)
    if SCENARIOS[cfg["scenario"]].kind != "steady" or "mf" not in protos:
        raise ConfigError("trajectories need a measurement-feedback scenario (mf-*, ad-mf)")
    p = protos["mf"]
    ens = sample_ensemble(
        maximally_mixed(cfg["d"]), p, cfg["steps"], cfg["ntraj"],
        seed=cfg["seed"], threads=_threads(cfg),
    )
    header = ["trajectory_id", "step", "outcome", "probability", "entropy_normalised", "rho11"]
    n, steps = ens.outcomes.shape
    step = np.arange(1, steps + 1)
    _write_csv(args.out, header, [
        ("%d,%d,%d,%.15g,%.15g,%.15g\n",
         [np.repeat(np.arange(n), steps).tolist(), np.tile(step, n).tolist()]
         + [a.ravel().tolist() for a in (ens.outcomes, ens.probabilities, ens.entropies, ens.rho11)]),
        ("mean,%d,,,%.15g,%.15g\n",
         [step.tolist(), ens.entropies.mean(axis=0).tolist(), ens.rho11.mean(axis=0).tolist()]),
    ])
    if args.out:
        _write_sidecar(args.out, "trajectories", cfg)
        print(f"wrote {n * steps + steps} rows to {args.out}")
    return EXIT_OK


def _parse_axis(spec: str) -> tuple[str, np.ndarray]:
    try:
        name, rng = spec.split("=", 1)
        lo, hi, count = rng.split(":")
        lo, hi, count = float(lo), float(hi), int(count)
    except ValueError as exc:
        raise ConfigError(f"bad sweep axis {spec!r}; expected name=lo:hi:count") from exc
    name = name.strip()
    allowed = [p.name for p in PARAMETERS if p.type is float]
    if name not in allowed:
        raise ConfigError(f"cannot sweep {name!r}; allowed: {sorted(allowed)}")
    if count < 1:
        raise ConfigError(f"sweep axis {spec!r} needs at least one point")
    _check_sweep_size(count)
    return name, np.linspace(lo, hi, count)


def _check_sweep_size(n_points: int) -> None:
    if n_points > MAX_SWEEP_POINTS:
        raise ConfigError(f"a sweep may have at most {MAX_SWEEP_POINTS} points, got {n_points}")


def cmd_sweep(args: argparse.Namespace) -> int:
    cfg = _resolved(args)
    axes = [_parse_axis(s) for s in (args.sweep or [])]
    if not 1 <= len(axes) <= 2:
        raise ConfigError(f"need 1 or 2 --sweep axes, got {len(axes)}")
    names = [name for name, _ in axes]
    if len(set(names)) < len(names):
        raise ConfigError(f"sweep axes {', '.join(names)} set one parameter twice")
    _check_sweep_size(math.prod(len(values) for _, values in axes))
    points = list(itertools.product(*(values for _, values in axes)))

    # every point is resolved like any config, and checked before any row is computed
    point_cfgs = [resolve_config(cfg, dict(zip(names, map(float, values)))) for values in points]
    rows, degenerate = [], []
    for values, row in zip(points, metric_rows(point_cfgs)):
        if isinstance(row, DegenerateSteadyStateError):
            degenerate.append((values, row))
        else:
            rows.append((values, row))

    if rows:
        header = names + list(rows[0][1].keys())
        _write_csv(args.out, header, _row_blocks(
            [[float(v) for v in values] + [row.get(k) for k in header[len(axes):]] for values, row in rows]))
        if args.out:
            named = [dict(zip(names, map(float, values))) for values, _ in degenerate]
            _write_sidecar(args.out, "sweep", cfg | {"sweep": args.sweep}, **({"degenerate": named} if named else {}))
            print(f"wrote {len(rows)} rows to {args.out}")
    for values, exc in degenerate:
        where = ", ".join(f"{name}={_fmt(float(v))}" for name, v in zip(names, values))
        print(f"degenerate steady state at {where}, row left out: {exc}", file=sys.stderr)
    return EXIT_DEGENERATE if degenerate else EXIT_OK


def cmd_validate(args: argparse.Namespace) -> int:
    from .validate import run_all  # deferred: only this command needs the check table
    try:
        results = run_all(points=args.points, only=args.only)
    except KeyError as exc:
        raise ConfigError(str(exc)) from exc
    width = max(len(r.name) for r in results)
    failures = 0
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        failures += 0 if r.passed else 1
        print(f"{status}  {r.name:<{width}}  {r.detail}")
    print(f"{len(results) - failures}/{len(results)} checks passed")
    return EXIT_OK if failures == 0 else EXIT_VALIDATION


def _add_common(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--config", help="JSON config file")
    sp.add_argument("--scenario", help="scenario name (overrides config)")
    for p in PARAMETERS:
        sp.add_argument(f"--{p.name}", type=p.type, help=p.help)
    sp.add_argument("--out", help="output CSV path (writes a .meta.json sidecar)")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="qfeedback",
                                 description="collision-model quantum feedback simulator")
    ap.add_argument("--version", action="version", version=f"qfeedback {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("steady", help="steady-state report for a scenario")
    _add_common(sp)
    sp.set_defaults(func=cmd_steady)

    sp = sub.add_parser("trajectories", help="conditional trajectory ensemble CSV")
    _add_common(sp)
    sp.set_defaults(func=cmd_trajectories)

    sp = sub.add_parser("sweep", help="sweep 1-2 parameters, long-format CSV")
    _add_common(sp)
    sp.add_argument("--sweep", action="append", metavar="NAME=LO:HI:COUNT",
                    help="axis spec, repeatable (max twice)")
    sp.set_defaults(func=cmd_sweep)

    sp = sub.add_parser("validate", help="run the oracle and property check table")
    sp.add_argument("--points", type=int, default=100, help="points per oracle grid")
    sp.add_argument("--only", help="run only checks whose name contains this substring")
    sp.set_defaults(func=cmd_validate)
    return ap


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DegenerateSteadyStateError as exc:
        print(f"degenerate steady state: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE


if __name__ == "__main__":
    sys.exit(main())
