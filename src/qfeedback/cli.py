"""Command-line front end.

Subcommands: `steady` (steady-state report for a named scenario),
`trajectories` (conditional trajectory ensemble as CSV), `sweep` (1- or
2-axis parameter sweep as long-format CSV) and `validate` (the full
oracle-vs-simulator check table).

Every invocation resolves flags over the JSON config over scenario defaults;
runs that write an output file also write a `<out>.meta.json` sidecar with
the fully resolved configuration, seed and package version, which is enough
to reproduce the output byte for byte. An existing output file is written
over in place and cut to length; an `--out` that cannot name a new or
existing file is refused before anything is computed.

A sweep resolves its base config once, checks each axis as one array and
builds its point configs by assignment (`_sweep_configs`); it computes all its
points as one batch (`scenarios.metric_rows`), and `steady` reads the
one-point case of that batch. Points whose steady state is
degenerate are left out of the CSV, named on stderr and listed under
`degenerate` in the sidecar, and the sweep exits 3 after writing the other
rows.

`main` builds its argument parser once per process, on the first call, and
runs the command by looking up the module's `cmd_<name>` function at each
call.

Exit codes: 0 success, 1 validation failure, 2 configuration error,
3 degenerate steady state.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import itertools
import json
import math
import os
import re
import stat
import sys

import numpy as np

from . import __version__
from .loop import MAX_THREADS, DegenerateSteadyStateError, _mulhi, sample_ensemble
from .quantum import maximally_mixed
from .scenarios import PARAMETERS, SCENARIOS, ConfigError, build_protocols, metric_row, metric_rows, resolve_config

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_CONFIG = 2
EXIT_DEGENERATE = 3

MAX_SWEEP_POINTS = 10 ** 6  # beside one block, a sweep holds about 3 KB per point: its config and its row
CSV_CHUNK_ROWS = 4096
_CONVERSION = re.compile(r"%(?:\.15g|d|s)")  # the conversions of a CSV row template


def _fmt(x: float) -> str:
    return f"{x:.15g}"


@contextlib.contextmanager
def _overwritten(path: str):
    """`path` opened for text, written from its first byte over what it held and cut to length on success.
    An existing file keeps its inode, links and mode, as with `open(path, "w")`, but is not truncated to zero
    first: on ext4 that truncation waits for the writeback its previous truncation set off. Only a regular
    file is cut; a device, FIFO or tty is left be, as `O_TRUNC` leaves it."""
    with os.fdopen(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "w", newline="\n") as fh:
        yield fh
        if stat.S_ISREG(os.fstat(fh.fileno()).st_mode):
            fh.truncate()


def _write_csv(path: str | None, header: list[str], blocks) -> None:
    """Write the CSV to `path`, or to stdout. `blocks` holds a (row template, columns) pair per block
    of rows sharing a layout. Each column's cells are texts that end with the literal following the
    column in the template (the first column's also start with the template's leading literal), so a
    chunk of CSV_CHUNK_ROWS rows is its columns' texts interleaved and written by one `"".join`. The
    bytes are those of per-cell `{:.15g}` formatting (see `_column_cells`)."""
    with _overwritten(path) if path else contextlib.nullcontext(sys.stdout) as fh:
        fh.write(",".join(header) + "\n")
        for template, columns in blocks:
            literals = _CONVERSION.split(template)
            formats = [c + literal for c, literal in zip(_CONVERSION.findall(template), literals[1:])]
            formats[0] = literals[0] + formats[0]
            cells = list(map(_column_cells, formats, columns))
            for start in range(0, len(columns[0]), CSV_CHUNK_ROWS):
                chunk = [cell(slice(start, start + CSV_CHUNK_ROWS)) for cell in cells]
                texts = [None] * (len(chunk) * len(chunk[0]))
                for i, column_texts in enumerate(chunk):
                    texts[i::len(chunk)] = column_texts
                fh.write("".join(texts))


def _column_cells(fmt: str, column):
    """The cells of one CSV column, a function of a row slice giving their texts (`%.15g` gives the
    bytes of `{:.15g}`). A list whose format is a bare `%s` holds its texts ready-made; any other
    list is formatted cell by cell. A numpy column of which at most half the values are distinct has
    each distinct value formatted once, keyed on its bits (so -0.0 and 0.0 stay apart); any other is
    formatted a chunk at a time, so its texts never outlive the chunk. Either way a numpy column is
    converted by `_texts` in pieces of at most CSV_CHUNK_ROWS values."""
    if not isinstance(column, np.ndarray):
        return column.__getitem__ if fmt == "%s" else lambda rows: [fmt % x for x in column[rows]]
    bits = column.view(f"u{column.itemsize}")
    order = np.argsort(bits)  # one sort counts the distinct values and, where they are kept, gives the inverse
    ordered, first = bits[order], np.empty(len(bits), dtype=bool)
    first[:1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=first[1:])
    if 2 * np.count_nonzero(first) > len(column):
        return lambda rows: _texts(fmt, column[rows])
    keys, inverse = ordered[first], np.empty(len(bits), dtype=np.intp)
    inverse[order] = np.cumsum(first) - 1  # as np.unique(bits, return_inverse=True) makes them
    values, text = keys.view(column.dtype), np.empty(len(keys), dtype=object)
    for start in range(0, len(keys), CSV_CHUNK_ROWS):
        text[start:start + CSV_CHUNK_ROWS] = _texts(fmt, values[start:start + CSV_CHUNK_ROWS])
    return lambda rows: text[inverse[rows]].tolist()


def _texts(fmt: str, values: np.ndarray) -> list[str]:
    """`fmt % x` for each value. A `%.15g` float64 value in [1e-4, 1) that does not round up to 1 is
    written by `_fraction_texts`, in numpy; every other value (0, -0, 1 and up, below 1e-4, negative or
    not finite, and any integer) by one `%` over them all, split on a NUL, which `%.15g` and `%d` never
    write."""
    prefix, conversion, suffix = fmt.partition("%.15g")
    fraction = (values >= 1e-4) & (values < 1) if conversion and values.dtype == np.float64 else False
    if not np.any(fraction):
        return _formatted(fmt, values.tolist())
    k, digits = _decimal_digits(values[fraction])
    fraction[fraction] = k > 14  # k = 14 is a value that prints as 1
    texts = _fraction_texts(prefix, suffix, k[k > 14], digits[k > 14])
    if fraction.all():
        return texts
    out = np.empty(len(values), dtype=object)
    out[fraction] = texts
    out[~fraction] = _formatted(fmt, values[~fraction].tolist())
    return out.tolist()


def _formatted(fmt: str, values: list) -> list[str]:
    return ("\0".join([fmt] * len(values)) % tuple(values)).split("\0")


_POW5 = np.array([5 ** k for k in range(20)], dtype=np.uint64)
_POW10 = np.array([10 ** k for k in range(20)], dtype=np.uint64)


def _decimal_digits(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """For float64 values in [1e-4, 1): the number k of decimals that `%.15g` writes of each, and its 15
    significant digits, x·10^k rounded half to even exactly (a value that rounds up to 1 has k = 14)."""
    k = 14 - np.floor(np.log10(x)).astype(np.intp)
    digits = _scaled_rounded(x, k)
    missed = (digits < 10 ** 14) | (digits >= 10 ** 15)  # log10 is off by one next to a power of ten
    if missed.any():
        k[missed] += np.where(digits[missed] < 10 ** 14, 1, -1)
        digits[missed] = _scaled_rounded(x[missed], k[missed])
    return k, digits


def _scaled_rounded(x: np.ndarray, k: np.ndarray) -> np.ndarray:
    """x·10^k rounded half to even, exactly, for float64 x in [1e-4, 1) and k in 14…19: x = m·2^-e, so
    x·10^k = m·5^k / 2^(e-k), a 128-bit integer product shifted right with its remainder against the half."""
    bits = x.view(np.uint64)
    mantissa = bits & np.uint64(2 ** 52 - 1) | np.uint64(2 ** 52)
    shift = np.uint64(1075) - (bits >> np.uint64(52)) - k.astype(np.uint64)  # 37…49
    lo, hi = mantissa * _POW5[k], _mulhi(mantissa, _POW5[k])
    rounded = hi << (np.uint64(64) - shift) | lo >> shift
    rest, half = lo & ((np.uint64(1) << shift) - np.uint64(1)), np.uint64(1) << (shift - np.uint64(1))
    return rounded + ((rest > half) | ((rest == half) & (rounded & np.uint64(1) == 1)))


def _digit_words(head: bytes, width: int) -> np.ndarray:
    """4-byte words, `head` and then the `width` digits of i, for i below 10^width; at i + 10^width the
    same text with the trailing zeros of its digits turned into \\1, which `_fraction_texts` deletes."""
    digit = np.arange(ord("0"), ord("9") + 1, dtype=np.uint8)
    texts = np.stack(np.meshgrid(*[digit] * width, indexing="ij"), axis=-1).reshape(-1, width)
    stripped, zero = texts.copy(), True
    for j in range(width - 1, -1, -1):
        zero = zero & (texts[:, j] == ord("0"))
        stripped[zero, j] = 1
    texts = np.concatenate([texts, stripped])
    heads = np.tile(np.frombuffer(head, np.uint8), (len(texts), 1))
    return np.concatenate([heads, texts], axis=1).view(np.uint32).ravel()


_HEAD_WORDS, _GROUP_WORDS = _digit_words(b"0.", 2), _digit_words(b"", 4)


def _fraction_texts(prefix: str, suffix: str, k: np.ndarray, digits: np.ndarray) -> list[str]:
    """prefix + "0." + the k decimals of digits·10^-k without trailing zeros + suffix, for 15-digit
    `digits` and k in 15…18 (the `%.15g` text of a value in [1e-4, 1)). The 18 decimals, padded with
    zeros, are five words of `_digit_words`: 2 digits after "0.", then four groups of 4. Each row is
    written as words, the prefix padded in front and the suffix plus a NUL behind with \\1, and the
    whole is one byte buffer: its \\1s deleted, then split on the NULs."""
    decimals = digits * _POW10[18 - k]
    pre = np.frombuffer(prefix.encode("ascii").rjust(-(-len(prefix) // 4) * 4, b"\1"), np.uint32)
    post = np.frombuffer((suffix + "\0").encode("ascii").ljust(-(-(len(suffix) + 1) // 4) * 4, b"\1"), np.uint32)
    words = np.empty((len(decimals), len(pre) + 5 + len(post)), dtype=np.uint32)
    words[:, :len(pre)], words[:, len(pre) + 5:] = pre, post
    zero_after = np.ones(len(decimals), dtype=bool)  # every group after this one is 0000
    for j in range(4, 0, -1):
        quotient = decimals // np.uint64(10 ** 4)
        group, decimals = decimals - quotient * np.uint64(10 ** 4), quotient
        words[:, len(pre) + j] = _GROUP_WORDS[group + np.uint64(10 ** 4) * zero_after]
        zero_after &= group == 0
    words[:, len(pre)] = _HEAD_WORDS[decimals + np.uint64(100) * zero_after]
    return words.tobytes().translate(None, b"\1").decode("ascii").split("\0")[:-1]


def _row_blocks(rows: list[list]) -> list:
    """One block per run of rows of one layout: None is an empty cell, a float `%.15g`, else `%s`."""
    runs = itertools.groupby(rows, lambda row: ",".join(
        "" if x is None else "%.15g" if isinstance(x, float) else "%s" for x in row) + "\n")
    return [(template, list(zip(*([x for x in row if x is not None] for row in run)))) for template, run in runs]


def _write_sidecar(path: str, command: str, cfg: dict, **outcome) -> None:
    if not os.path.isfile(path):  # /dev/null, a FIFO or a tty keeps no output for a sidecar to describe
        return
    meta = {"command": command, "config": cfg, "version": __version__, **outcome}
    with _overwritten(path + ".meta.json") as fh:
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


def _resolved(args: argparse.Namespace, axes: tuple[str, ...] = ()) -> dict:
    overrides = {p.name: getattr(args, p.name) for p in PARAMETERS}
    return resolve_config(_load_config(args.config), overrides | {"scenario": args.scenario}, axes)


def _threads(cfg: dict) -> int:
    return cfg["threads"] if cfg["threads"] > 0 else min(os.cpu_count() or 1, MAX_THREADS)


def cmd_steady(args: argparse.Namespace) -> int:
    cfg = _resolved(args)
    if SCENARIOS[cfg["scenario"]].kind != "steady":
        raise ConfigError(f"scenario {cfg['scenario']!r} is not a single-protocol steady scenario")
    row = metric_row(cfg, _spectrum=True)
    spectrum = row.pop("spectrum")

    print(f"scenario: {cfg['scenario']} (d={cfg['d']}, tau1={cfg['tau1']:g}, tau2={cfg['tau2']:g}, "
          f"lambda={cfg['lambda']:g}, gamma={cfg['gamma']:g})")
    print("spectrum: " + ", ".join(map(_fmt, spectrum)))
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
        rest = {k: v for k, v in row.items() if k != "alpha0"}  # alpha0 heads the spectrum columns
        header = ["scenario"] + [f"alpha{i}" for i in range(len(spectrum))] + list(rest)
        values = [cfg["scenario"]] + spectrum + list(rest.values())
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
    ids, step_texts = [f"{i}," for i in range(n)], [f"{t}," for t in range(1, steps + 1)]
    _write_csv(args.out, header, [
        ("%s%s%d,%.15g,%.15g,%.15g\n",  # the id and step cells are ready-made texts, comma included
         [[text for text in ids for _ in range(steps)], step_texts * n]
         + [a.ravel() for a in (ens.outcomes, ens.probabilities, ens.entropies, ens.rho11)]),
        ("mean,%d,,,%.15g,%.15g\n", [np.arange(1, steps + 1), ens.entropies.mean(axis=0), ens.rho11.mean(axis=0)]),
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


def _sweep_configs(cfg: dict, axes: list[tuple[str, np.ndarray]]) -> list[dict]:
    """The resolved config of each point of a sweep, in the product order of
    its `axes`, (name, values) pairs of float parameters: for a config `cfg`
    resolved with these axes, what resolve_config(cfg, {name: value, ...})
    gives at each point, built by assignment. The first point is resolved,
    which refuses what does not depend on the values; each axis's values are
    then checked as one array, and the first point holding a bad value is
    resolved, which refuses it as resolve_config does."""
    names = [name for name, _ in axes]
    points = list(zip(*(grid.ravel().tolist() for grid in np.meshgrid(*(v for _, v in axes), indexing="ij"))))
    first = resolve_config(cfg, dict(zip(names, points[0])))
    ok = [(p.low <= v) & (v <= p.high) & np.isfinite(v) for name, v in axes for p in PARAMETERS if p.name == name]
    bad = np.flatnonzero(~np.logical_and.reduce(np.meshgrid(*ok, indexing="ij")).ravel())
    if bad.size:
        resolve_config(cfg, dict(zip(names, points[bad[0]])))  # raises
    configs = []
    for values in points:
        point = first | dict(zip(names, values))
        if "tau" in names:
            point["tau1"] = point["tau2"] = point["tau"]
        if "eta0" in names:
            point["eta"] = {"eta0": point["eta0"]}
        configs.append(point)
    return configs


def cmd_sweep(args: argparse.Namespace) -> int:
    axes = [_parse_axis(s) for s in (args.sweep or [])]
    if not 1 <= len(axes) <= 2:
        raise ConfigError(f"need 1 or 2 --sweep axes, got {len(axes)}")
    names = [name for name, _ in axes]
    if len(set(names)) < len(names):
        raise ConfigError(f"sweep axes {', '.join(names)} set one parameter twice")
    cfg = _resolved(args, tuple(names))
    _check_sweep_size(math.prod(len(values) for _, values in axes))

    # every point is resolved as resolve_config resolves it, and checked before any row is computed
    point_cfgs = _sweep_configs(cfg, axes)
    rows, degenerate = [], []
    for point, row in zip(point_cfgs, metric_rows(point_cfgs)):
        values = [point[name] for name in names]
        (degenerate if isinstance(row, DegenerateSteadyStateError) else rows).append((values, row))

    if rows:
        header = names + list(dict.fromkeys(k for _, row in rows for k in row))  # a column a row lacks is empty
        _write_csv(args.out, header, _row_blocks(
            [values + [row.get(k) for k in header[len(axes):]] for values, row in rows]))
        if args.out:
            named = [dict(zip(names, values)) for values, _ in degenerate]
            _write_sidecar(args.out, "sweep", cfg | {"sweep": args.sweep}, **({"degenerate": named} if named else {}))
            print(f"wrote {len(rows)} rows to {args.out}")
    for values, exc in degenerate:
        where = ", ".join(f"{name}={_fmt(v)}" for name, v in zip(names, values))
        print(f"degenerate steady state at {where}, row left out: {exc}", file=sys.stderr)
    return EXIT_DEGENERATE if degenerate else EXIT_OK


def cmd_validate(args: argparse.Namespace) -> int:
    from .validate import run_all  # deferred: only this command needs the check table
    results = run_all(points=args.points, only=args.only)
    width = max(len(r.name) for r in results)
    failures = 0
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        failures += 0 if r.passed else 1
        print(f"{status}  {r.name:<{width}}  {r.detail}")
    print(f"{len(results) - failures}/{len(results)} checks passed")
    return EXIT_OK if failures == 0 else EXIT_VALIDATION


def _output_path(path: str) -> str:
    """The `--out` path, checked as it is parsed, so that one no file can be written to (empty, a directory,
    or in a directory that does not exist) is refused before anything is computed."""
    parent = os.path.dirname(path) or "."
    if not path:
        raise argparse.ArgumentTypeError(f"{path!r} names no file")
    if os.path.isdir(path):
        raise argparse.ArgumentTypeError(f"{path!r} is a directory")
    if not os.path.isdir(parent):
        raise argparse.ArgumentTypeError(f"{path!r}: directory {parent!r} does not exist")
    return path


def _add_common(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--config", help="JSON config file")
    sp.add_argument("--scenario", help="scenario name (overrides config)")
    for p in PARAMETERS:
        sp.add_argument(f"--{p.name}", type=p.type, help=p.help)
    sp.add_argument("--out", type=_output_path, help="output CSV path (writes a .meta.json sidecar)")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="qfeedback",
                                 description="collision-model quantum feedback simulator")
    ap.add_argument("--version", action="version", version=f"qfeedback {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)

    _add_common(sub.add_parser("steady", help="steady-state report for a scenario"))
    _add_common(sub.add_parser("trajectories", help="conditional trajectory ensemble CSV"))
    sp = sub.add_parser("sweep", help="sweep 1-2 parameters, long-format CSV")
    _add_common(sp)
    sp.add_argument("--sweep", action="append", metavar="NAME=LO:HI:COUNT",
                    help="axis spec, repeatable (max twice)")

    sp = sub.add_parser("validate", help="run the oracle and property check table")
    sp.add_argument("--points", type=int, default=100, help="points per oracle grid")
    sp.add_argument("--only", help="run only checks whose name contains this substring")
    return ap


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return globals()[f"cmd_{args.command}"](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DegenerateSteadyStateError as exc:
        print(f"degenerate steady state: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE


if __name__ == "__main__":
    sys.exit(main())
