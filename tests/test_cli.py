import itertools
import json
import math
import os
import stat
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from qfeedback import cli, oracles
from qfeedback.loop import sample_ensemble, steady_state
from qfeedback.metrics import von_neumann_entropy
from qfeedback.quantum import maximally_mixed
from qfeedback.scenarios import PARAMETERS, SCENARIOS, build_protocols, metric_row, resolve_config


def run_cli(*args, cwd=None):
    return subprocess.run(
        [sys.executable, "-m", "qfeedback.cli", *args],
        capture_output=True, text=True, cwd=cwd,
    )


def test_steady_reports_oracle_deviation():
    r = run_cli("steady", "--scenario", "mf-noisy-cooling", "--tau", "0.5", "--lambda", "0.5")
    assert r.returncode == 0
    assert "0.785714285714286" in r.stdout
    assert "oracle_dev: 0" in r.stdout


def test_steady_cf_clean_is_pure():
    r = run_cli("steady", "--scenario", "cf-clean", "--tau", "0.5", "--lambda", "0.4")
    assert r.returncode == 0
    assert "purity: 1" in r.stdout


def test_steady_cf_noisy_is_maximally_mixed():
    """The text `spectrum: 0.5, 0.5` holds on the default OpenBLAS kernel and with
    OPENBLAS_CORETYPE=Haswell or Sandybridge; under Prescott one eigenvalue
    prints as 0.499999999999999."""
    # any in-loop unitary: a rotated loop still cannot beat the mixed controller
    r = run_cli("steady", "--scenario", "cf-noisy", "--tau", "0.3", "--lambda", "0.8",
                "--chi", "0.7", "--phi1", "0.4")
    assert r.returncode == 0
    assert "spectrum: 0.5, 0.5" in r.stdout


def test_config_file_and_flag_precedence(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"scenario": "mf-noisy-cooling", "tau": 0.9, "lambda": 0.5}))
    r = run_cli("steady", "--config", str(cfg), "--tau", "0.5")
    assert r.returncode == 0
    assert "tau1=0.5" in r.stdout  # the flag wins over the config value


def test_bad_scenario_exits_2():
    r = run_cli("steady", "--scenario", "not-a-scenario")
    assert r.returncode == 2
    assert "config error" in r.stderr


def test_dimension_above_limit_exits_2():
    # refused by the config check, before any protocol is built
    r = run_cli("steady", "--scenario", "mf-noisy-cooling", "--d", "17")
    assert r.returncode == 2
    assert "16" in r.stderr


def test_bad_config_file_exits_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    r = run_cli("steady", "--config", str(bad), "--scenario", "cf-clean")
    assert r.returncode == 2


def test_degenerate_steady_state_exits_3():
    # tau = 1 and lambda = 1 make the cycle the identity map
    r = run_cli("steady", "--scenario", "cf-noisy", "--tau", "1.0", "--lambda", "1.0")
    assert r.returncode == 3
    assert "degenerate" in r.stderr.lower()


def test_trajectories_deterministic_and_schema(tmp_path):
    args = ["trajectories", "--scenario", "mf-noisy-cooling", "--tau", "0.5",
            "--lambda", "0.5", "--steps", "15", "--ntraj", "8", "--seed", "21"]
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run_cli(*args, "--out", str(out1)).returncode == 0
    assert run_cli(*args, "--out", str(out2), "--threads", "3").returncode == 0
    assert out1.read_bytes() == out2.read_bytes()
    lines = out1.read_text().splitlines()
    assert lines[0] == "trajectory_id,step,outcome,probability,entropy_normalised,rho11"
    assert len(lines) == 1 + 8 * 15 + 15  # header + per-trajectory rows + mean rows
    assert "\r" not in out1.read_text()
    meta = json.loads((tmp_path / "a.csv.meta.json").read_text())
    assert meta["config"]["seed"] == 21
    assert meta["version"]


def test_trajectories_perfect_cooling_entropy_column(tmp_path):
    out = tmp_path / "cool.csv"
    r = run_cli("trajectories", "--scenario", "mf-noisy-cooling", "--tau", "0.0",
                "--lambda", "1.0", "--steps", "10", "--ntraj", "5", "--seed", "3",
                "--out", str(out))
    assert r.returncode == 0
    for line in out.read_text().splitlines()[1:]:
        fields = line.split(",")
        assert float(fields[4]) <= 1e-12  # entropy column


def test_trajectories_mean_entropy_converges(tmp_path):
    tau, lam = 0.5, 0.5
    out = tmp_path / "traj.csv"
    r = run_cli("trajectories", "--scenario", "mf-noisy-cooling", "--tau", str(tau),
                "--lambda", str(lam), "--steps", "30", "--ntraj", "400", "--seed", "11",
                "--out", str(out))
    assert r.returncode == 0
    p = build_protocols(resolve_config({"scenario": "mf-noisy-cooling", "tau": tau, "lambda": lam}))["mf"]
    s_ss = von_neumann_entropy(steady_state(p)[0], normalised=True)
    step_cut = int(np.ceil(5.0 / (1.0 - tau)))
    for line in out.read_text().splitlines()[1:]:
        fields = line.split(",")
        if fields[0] == "mean" and int(fields[1]) >= step_cut:
            assert abs(float(fields[4]) - s_ss) < 0.02


def _per_cell_csv(rows) -> bytes:
    """CSV rows written cell by cell: `{:.15g}` per float, `str` per int and empty for None."""
    def cell(x):
        return "" if x is None else f"{x:.15g}" if isinstance(x, float) else str(x)
    return "".join(",".join(cell(x) for x in row) + "\n" for row in rows).encode()


def _per_cell_trajectories_csv(overrides: dict) -> bytes:
    """The trajectories CSV written cell by cell, mean rows included."""
    cfg = resolve_config({}, overrides)
    steps, ntraj = cfg["steps"], cfg["ntraj"]
    ens = sample_ensemble(maximally_mixed(cfg["d"]), build_protocols(cfg)["mf"], steps, ntraj,
                          seed=cfg["seed"], threads=1)
    rows = [["trajectory_id", "step", "outcome", "probability", "entropy_normalised", "rho11"]]
    rows += [[i, t + 1, int(ens.outcomes[i, t]), float(ens.probabilities[i, t]),
              float(ens.entropies[i, t]), float(ens.rho11[i, t])]
             for i in range(ntraj) for t in range(steps)]
    mean_entropy, mean_rho11 = ens.entropies.mean(axis=0), ens.rho11.mean(axis=0)
    rows += [["mean", t + 1, None, None, float(mean_entropy[t]), float(mean_rho11[t])] for t in range(steps)]
    return _per_cell_csv(rows)


@pytest.mark.parametrize("scenario,d", [("mf-noisy-cooling", 2), ("ad-mf", 2), ("mf-noisy-cooling", 3)])
def test_trajectories_csv_matches_per_cell_format(tmp_path, scenario, d):
    ov = {"scenario": scenario, "d": d, "tau": 0.3, "lambda": 0.7, "gamma": 0.4,
          "steps": 12, "ntraj": 30, "seed": 5, "threads": 1}
    out = tmp_path / "t.csv"
    r = run_cli("trajectories", *(f"--{k}={v}" for k, v in ov.items()), "--out", str(out))
    assert r.returncode == 0
    assert r.stdout == f"wrote {30 * 12 + 12} rows to {out}\n"
    assert out.read_bytes() == _per_cell_trajectories_csv(ov)


def test_trajectories_csv_of_several_chunks_matches_per_cell_format(tmp_path):
    ov = {"scenario": "mf-clean-cooling", "tau": 0.4, "lambda": 0.6, "steps": 11, "ntraj": 800, "seed": 2,
          "threads": 1}
    assert 11 * 800 > 2 * cli.CSV_CHUNK_ROWS
    out = tmp_path / "t.csv"
    assert cli.main(["trajectories", *(f"--{k}={v}" for k, v in ov.items()), "--out", str(out)]) == 0
    assert out.read_bytes() == _per_cell_trajectories_csv(ov)


@pytest.mark.parametrize("n_rows", [1, 30, cli.CSV_CHUNK_ROWS - 1, cli.CSV_CHUNK_ROWS, cli.CSV_CHUNK_ROWS + 1,
                                    2 * cli.CSV_CHUNK_ROWS + 7])
def test_chunked_csv_writer_matches_per_cell_format(tmp_path, n_rows):
    """Rows below, at and above one chunk; columns of few and of many distinct
    values (formatted once per distinct value, or a chunk at a time), with -0.0,
    nan and inf cells, 4-byte ints (np.arange's int on some platforms), and a
    list of ready-made `%s` texts that carry their own comma (the trajectory id
    and step columns). Two columns of values in [0, 1), one about 40% distinct and
    one all distinct, start with the edges of the numpy conversion's domain
    [1e-4, 1): 0, -0, 1, 1e-4 and the value below it, 0.1 and its neighbours, and
    0.99999999999999994, which prints as 1."""
    rng = np.random.default_rng(n_rows)
    special = np.array([-0.0, 0.0, np.nan, np.inf, -np.inf, 0.1, 1 / 3, -2.5e-300])
    edges = np.array([0.0, -0.0, 1.0, 1e-4, np.nextafter(1e-4, 0), np.nextafter(0.1, 0), 0.1, np.nextafter(0.1, 1),
                      0.99999999999999994])
    ids = np.arange(n_rows) // 7
    repeated_ints = np.arange(n_rows, dtype=np.int32) // 3
    distinct_ints = rng.integers(-2 ** 62, 2 ** 62, n_rows)
    repeated_floats = rng.choice(special, n_rows)
    distinct_floats = np.where(rng.random(n_rows) < 0.2, rng.choice(special, n_rows), rng.normal(0, 1e3, n_rows))
    pool = np.concatenate([edges, rng.random(n_rows)])[:max(len(edges), 2 * n_rows // 5)]
    repeated_fractions = np.concatenate([pool, rng.choice(pool, n_rows)])[:n_rows]
    distinct_fractions = np.concatenate([edges, rng.random(n_rows)])[:n_rows]
    means = rng.random(n_rows // 2 + 1)
    out = tmp_path / "t.csv"
    header = ["id", "a", "b", "c", "d", "e", "f"]
    cli._write_csv(str(out), header, [
        ("%s%d,%d,%.15g,%.15g,%.15g,%.15g\n",
         [[f"{i}," for i in ids], repeated_ints, distinct_ints, repeated_floats, distinct_floats,
          repeated_fractions, distinct_fractions]),
        ("mean,,,%.15g,,,\n", [means]),
    ])
    rows = [header]
    rows += [[int(k), int(i), int(j), float(x), float(y), float(u), float(v)]
             for k, i, j, x, y, u, v in zip(ids, repeated_ints, distinct_ints, repeated_floats, distinct_floats,
                                            repeated_fractions, distinct_fractions)]
    rows += [["mean", None, None, float(x), None, None, None] for x in means]
    assert out.read_bytes() == _per_cell_csv(rows)


def test_csv_writer_memory_stays_within_a_chunk(tmp_path):
    """Columns of mostly distinct values are formatted a chunk at a time. Formatting
    every distinct value of a 40000-row block up front would hold 40000 texts per
    column at once (about 11 MB here, against about 2 MB chunk by chunk)."""
    columns = [np.random.default_rng(k).random(40000) for k in range(3)]
    tracemalloc.start()
    try:
        cli._write_csv(str(tmp_path / "t.csv"), ["a", "b", "c"], [("%.15g,%.15g,%.15g\n", columns)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4e6


def test_csv_writer_memory_of_three_quarters_distinct_columns(tmp_path):
    """Columns of 40000 values in [0, 1), 30000 of them distinct, the share of the most
    distinct trajectory columns: they are formatted a chunk at a time, as a column of
    all-distinct values is, within the same bound."""
    columns = []
    for k in range(3):
        rng = np.random.default_rng(k)
        values = rng.random(30000)
        columns.append(rng.permutation(np.concatenate([values, rng.choice(values, 10000)])))
    assert all(len(np.unique(c)) == 30000 for c in columns)
    tracemalloc.start()
    try:
        cli._write_csv(str(tmp_path / "t.csv"), ["a", "b", "c"], [("%.15g,%.15g,%.15g\n", columns)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4e6


def test_numpy_conversion_equals_percent_format():
    """The numpy `%.15g` of values in [1e-4, 1) equals Python's on uniform and
    log-uniform values, on every exact binary tie a/2^j of the domain (x·10^k is
    then a half-integer, k = j - 1 the decimals written), on values next to
    15-digit ties, and on each power of ten and its neighbours. A value that rounds
    up to 1 is left to `%`, which writes `1`."""
    rng = np.random.default_rng(2204)
    ties = []
    for j in range(16, 20):  # k = j - 1 decimals are written in [10^(15-j), 10^(16-j))
        a = np.arange(1, 2 ** j, 2)
        ties.append(a[(a >= 10.0 ** (15 - j) * 2 ** j) & (a < 10.0 ** (16 - j) * 2 ** j)] / 2 ** j)
    k = rng.integers(15, 19, 40000)
    near_ties = (rng.integers(10 ** 14, 10 ** 15, 40000) + 0.5) / 10.0 ** k
    powers = 10.0 ** np.arange(-3, 0)
    x = np.concatenate([rng.random(500000), 10 ** rng.uniform(-4, 0, 500000), *ties,
                        near_ties, np.nextafter(near_ties, 0), np.nextafter(near_ties, 1),
                        [1e-4, np.nextafter(1e-4, 1), 0.9999999999999995], powers, np.nextafter(powers, 0),
                        np.nextafter(powers, 1)])
    x = x[(x >= 1e-4) & (x < 1)]
    assert len(x) > 10 ** 6 and sum(map(len, ties)) > 36000
    k, digits = cli._decimal_digits(x)
    assert (k > 14).all()
    texts = cli._fraction_texts("", "", k, digits)
    assert texts == ["%.15g" % v for v in x.tolist()]
    up = np.array([np.nextafter(0.9999999999999995, 1), 0.99999999999999994, np.nextafter(1, 0)])
    assert (cli._decimal_digits(up)[0] == 14).all()
    assert cli._texts("%.15g,", up) == ["1,"] * 3


@pytest.mark.parametrize("argv", [
    ["--scenario", "ad-cf", "--tau", "0.3", "--sweep", f"chi=0:{math.pi / 2!r}:3"],  # oracle only at chi = 0, pi/2
    ["--scenario", "bitflip-povm", "--tau", "0.4", "--sweep", "a=0:1:4", "--sweep", "b=0:1:3"],
], ids=["row-layouts", "2axis"])
def test_sweep_csv_matches_per_cell_format(tmp_path, argv):
    out = tmp_path / "s.csv"
    assert cli.main(["sweep", *argv, "--out", str(out)]) == 0
    cfg = cli._resolved(cli.build_parser().parse_args(["sweep", *argv]))
    axes = [cli._parse_axis(spec) for flag, spec in zip(argv, argv[1:]) if flag == "--sweep"]
    points = [dict(zip([name for name, _ in axes], map(float, values)))
              for values in itertools.product(*(values for _, values in axes))]
    rows = [point | metric_row(resolve_config(cfg, point)) for point in points]
    assert out.read_bytes() == _per_cell_csv([list(rows[0])] + [[row.get(k) for k in rows[0]] for row in rows])


def test_steady_csv_matches_per_cell_format(tmp_path):
    out = tmp_path / "s.csv"
    assert cli.main(["steady", "--scenario", "mf-noisy-cooling", "--d", "3", "--tau", "0.3", "--out", str(out)]) == 0
    cfg = resolve_config({}, {"scenario": "mf-noisy-cooling", "d": 3, "tau": 0.3})
    rho, gap = steady_state(build_protocols(cfg)["mf"])
    row = metric_row(cfg, solved=(rho, gap))
    spectrum = [float(x) for x in np.sort(np.linalg.eigvalsh(rho))[::-1]]
    assert spectrum[0] == row.pop("alpha0")  # the spectrum's first column; the CSV wrote it twice
    assert out.read_bytes() == _per_cell_csv([["scenario", "alpha0", "alpha1", "alpha2", *row],
                                              ["mf-noisy-cooling", *spectrum, *row.values()]])
    header = out.read_text().splitlines()[0].split(",")
    assert len(set(header)) == len(header)


def test_trajectories_stdout_equals_file(tmp_path):
    args = [sys.executable, "-m", "qfeedback.cli", "trajectories", "--scenario", "ad-mf",
            "--steps", "9", "--ntraj", "20", "--seed", "4"]
    out = tmp_path / "t.csv"
    assert subprocess.run([*args, "--out", str(out)], capture_output=True).returncode == 0
    r = subprocess.run(args, capture_output=True)
    assert r.returncode == 0
    assert r.stdout == out.read_bytes()


SHORT_SWEEP = ["sweep", "--scenario", "mf-noisy-cooling", "--sweep", "tau=0.1:0.9:3"]


def _fresh_sweep(tmp_path) -> bytes:
    fresh = tmp_path / "fresh.csv"
    assert cli.main([*SHORT_SWEEP, "--out", str(fresh)]) == 0
    return fresh.read_bytes()


def test_an_output_over_a_longer_file_equals_one_to_a_fresh_path(capsys, tmp_path):
    # an existing output is written over in place, so the stale tail must be cut from the CSV and the sidecar
    traj = ["trajectories", "--scenario", "mf-noisy-cooling", "--d", "3", "--seed", "7"]
    out, fresh = tmp_path / "out.csv", tmp_path / "fresh.csv"
    assert cli.main([*traj, "--steps", "40", "--ntraj", "1000", "--out", str(out)]) == 0
    stale = [out.stat().st_size, Path(f"{out}.meta.json").stat().st_size]
    for path in (out, fresh):
        assert cli.main([*traj, "--steps", "3", "--ntraj", "2", "--out", str(path)]) == 0
    for suffix, stale_size in zip(["", ".meta.json"], stale):
        new, expected = Path(f"{out}{suffix}").read_bytes(), Path(f"{fresh}{suffix}").read_bytes()
        assert len(expected) < stale_size and new == expected


def test_an_output_through_a_symlink_writes_its_target(capsys, tmp_path):
    target, link = tmp_path / "target.csv", tmp_path / "link.csv"
    target.write_bytes(b"stale\n" * 10 ** 4)
    link.symlink_to(target)
    assert cli.main([*SHORT_SWEEP, "--out", str(link)]) == 0
    assert link.is_symlink() and target.read_bytes() == _fresh_sweep(tmp_path)


def test_an_output_keeps_its_inode_hard_links_and_mode(capsys, tmp_path):
    out, other = tmp_path / "out.csv", tmp_path / "other.csv"
    out.write_bytes(b"stale\n" * 10 ** 4)
    out.chmod(0o640)
    os.link(out, other)
    before = out.stat()
    assert cli.main([*SHORT_SWEEP, "--out", str(out)]) == 0
    after = out.stat()
    assert (after.st_ino, stat.S_IMODE(after.st_mode)) == (before.st_ino, 0o640)
    assert out.read_bytes() == other.read_bytes() == _fresh_sweep(tmp_path)


def test_sweep_to_dev_null_exits_0_and_writes_no_sidecar(capsys):
    sidecar = Path(os.devnull + ".meta.json")
    mtime = sidecar.stat().st_mtime_ns if sidecar.exists() else None
    assert cli.main([*SHORT_SWEEP, "--out", os.devnull]) == 0
    assert (sidecar.stat().st_mtime_ns if sidecar.exists() else None) == mtime


@pytest.mark.parametrize("out,reason", [("", "'' names no file"), ("dir", "'dir' is a directory"),
                                        ("missing/x.csv", "'missing/x.csv': directory 'missing' does not exist")],
                         ids=["empty", "directory", "no-parent"])
@pytest.mark.parametrize("command", [["steady"], ["sweep", "--sweep", "tau=0.1:0.9:3"], ["trajectories"]],
                         ids=["steady", "sweep", "trajectories"])
def test_an_unusable_out_exits_2_before_the_command_runs(monkeypatch, capsys, tmp_path, command, out, reason):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "dir").mkdir()
    monkeypatch.setattr(cli, f"cmd_{command[0]}", lambda args: pytest.fail("the command ran"))
    with pytest.raises(SystemExit) as exc:
        cli.main([*command, "--scenario", "mf-noisy-cooling", "--out", out])
    assert exc.value.code == 2
    assert f"error: argument --out: {reason}\n" in capsys.readouterr().err
    assert [p.name for p in tmp_path.rglob("*")] == ["dir"]


def test_eta0_beyond_qubit_exits_2():
    # the eta0 family diag(eta0, 1-eta0) is a qubit controller state
    r = run_cli("steady", "--scenario", "mf-noisy-cooling", "--d", "3", "--eta0", "0.8")
    assert r.returncode == 2
    assert "config error" in r.stderr and "d=2" in r.stderr


def test_eta0_out_of_range_exits_2(tmp_path):
    r = run_cli("steady", "--scenario", "mf-eta-cooling", "--eta0", "1.5")
    assert r.returncode == 2
    assert "eta0 must be in [0,1]" in r.stderr
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"scenario": "cf-eta", "eta": {"eta0": -0.2}}))
    r = run_cli("steady", "--config", str(cfg))
    assert r.returncode == 2
    assert "eta0 in [0,1]" in r.stderr


@pytest.mark.parametrize("argv,config,message", [
    (["--scenario", "cf-clean", "--chi", "nan"], None, "chi must be finite, got nan"),
    (["--scenario", "ad-cf", "--chi", "inf"], None, "chi must be finite, got inf"),
    (["--scenario", "cf-clean", "--phi1", "nan"], None, "phi1 must be finite, got nan"),
    ([], {"scenario": "cf-clean", "chi": float("nan")}, "chi must be finite, got nan"),
    ([], {"scenario": "ad-cf", "phi1": float("-inf")}, "phi1 must be finite, got -inf"),
], ids=["chi-nan-flag", "chi-inf-flag", "phi1-nan-flag", "chi-nan-config", "phi1-inf-config"])
def test_non_finite_angle_exits_2(capsys, tmp_path, argv, config, message):
    if config is not None:  # json writes NaN and -Infinity, and reads them back
        (tmp_path / "cfg.json").write_text(json.dumps(config))
        argv = ["--config", str(tmp_path / "cfg.json")]
    assert cli.main(["steady", *argv]) == 2
    assert f"config error: {message}" in capsys.readouterr().err


@pytest.mark.parametrize("key,value", [("d", 2.7), ("steps", 10.9), ("seed", 1.5), ("ntraj", 2.5), ("threads", 1.5),
                                       ("d", float("inf"))])
def test_fractional_integer_setting_exits_2(capsys, tmp_path, key, value):
    # int() would truncate: d=2.7 ran at d=2
    (tmp_path / "cfg.json").write_text(json.dumps({"scenario": "mf-noisy-cooling", key: value}))
    assert cli.main(["steady", "--config", str(tmp_path / "cfg.json")]) == 2
    assert f"config error: {key} must be an integer, got {value!r}" in capsys.readouterr().err


def test_whole_number_floats_are_integer_settings(capsys, tmp_path):
    (tmp_path / "cfg.json").write_text(json.dumps({"scenario": "mf-noisy-cooling", "d": 3.0, "steps": 10.0,
                                                   "seed": 1.0, "ntraj": 2.0, "threads": 1.0}))
    assert cli.main(["steady", "--config", str(tmp_path / "cfg.json")]) == 0
    resolved = json.loads(capsys.readouterr().out.split("resolved config: ")[1])
    assert {k: resolved[k] for k in ("d", "steps", "seed", "ntraj", "threads")} == {
        "d": 3, "steps": 10, "seed": 1, "ntraj": 2, "threads": 1}


def _inside(p):
    """A value of parameter `p` a quarter of the way into its range (from 0, or 4 wide, where it is open)."""
    low = p.low if math.isfinite(p.low) else 0
    high = p.high if math.isfinite(p.high) else low + 4
    return p.type(low + (high - low) / 4)


@pytest.mark.parametrize("p", PARAMETERS, ids=lambda p: p.name)
def test_each_flag_reaches_the_resolved_config(p):
    x = _inside(p)
    args = cli.build_parser().parse_args(["steady", "--scenario", "mf-noisy-cooling", f"--{p.name}", str(x)])
    cfg = cli._resolved(args)
    assert cfg[p.name] == x and type(cfg[p.name]) is p.type


@pytest.mark.parametrize("p", PARAMETERS, ids=lambda p: p.name)
def test_the_float_parameters_are_the_sweep_axes(capsys, p):
    argv = ["sweep", "--scenario", "mf-noisy-cooling", "--sweep", f"{p.name}=0.25:0.75:2"]
    if p.type is float:
        assert cli.main(argv) == 0
        header, *rows = capsys.readouterr().out.splitlines()
        assert header.split(",")[0] == p.name and len(rows) == 2
    else:
        assert cli.main(argv) == 2
        assert f"config error: cannot sweep {p.name!r}" in capsys.readouterr().err


_OUT_OF_RANGE = ([(p, p.low - (1 if p.type is int else 0.5)) for p in PARAMETERS if math.isfinite(p.low)]
                 + [(p, p.high + (1 if p.type is int else 0.5)) for p in PARAMETERS if math.isfinite(p.high)])


@pytest.mark.parametrize("p,value", _OUT_OF_RANGE,
                         ids=[f"{p.name}-{'below' if x < p.low else 'above'}" for p, x in _OUT_OF_RANGE])
def test_out_of_range_values_exit_2(capsys, p, value):
    assert cli.main(["steady", "--scenario", "mf-noisy-cooling", f"--{p.name}={value}"]) == 2
    assert f"config error: {p.name} must be " in capsys.readouterr().err


def _readme_range(p) -> str:
    if p.high == math.inf:
        return "finite" if p.low == -math.inf else f"≥ {p.low:g}"
    return f"[{p.low:g}, {p.high:g}]"


def test_readme_parameter_table_matches_the_parameters():
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("### Parameters\n", 1)[1].split("\n#", 1)[0]
    listed = [tuple(cell.strip() for cell in line.split("|")[1:5])
              for line in section.splitlines() if line.startswith("| `")]
    assert listed == [(f"`{p.name}`", p.type.__name__, _readme_range(p),
                       "`tau`" if p.default is None else f"{p.default:g}") for p in PARAMETERS]


@pytest.mark.parametrize("argv,message", [
    (["--seed=-1"], "seed must be at least 0, got -1"),
    (["--threads", "65"], "threads must be in [0,64], got 65"),
    (["--ntraj", "10001", "--steps", "1000"], "ntraj*steps must be at most 10000000, got 10001*1000 = 10001000"),
], ids=["negative-seed", "threads", "trajectory-steps"])
def test_trajectory_settings_are_refused_before_the_ensemble_starts(monkeypatch, capsys, argv, message):
    monkeypatch.setattr(cli, "sample_ensemble", lambda *args, **kwargs: pytest.fail("the ensemble started"))
    assert cli.main(["trajectories", "--scenario", "mf-noisy-cooling", *argv]) == 2
    assert f"config error: {message}" in capsys.readouterr().err


def test_hardware_thread_count_is_capped_at_the_library_limit(monkeypatch):
    # --threads 0 sizes the pool to the machine, which may have more cores than the limit
    seen, ensemble = [], cli.sample_ensemble

    def recording(*args, threads, **kwargs):
        seen.append(threads)
        return ensemble(*args, threads=threads, **kwargs)  # 3 rows: one chunk, one worker at most

    monkeypatch.setattr(cli.os, "cpu_count", lambda: 1000)
    monkeypatch.setattr(cli, "sample_ensemble", recording)
    assert cli.main(["trajectories", "--scenario", "mf-noisy-cooling", "--threads", "0", "--steps", "2",
                     "--ntraj", "3"]) == 0
    assert seen == [64]


@pytest.mark.parametrize("axes,count", [(["tau=0:1:1000001"], 1000001), (["tau=0:1:1001", "lambda=0:1:1000"], 1001000)],
                         ids=["one-axis", "two-axes"])
def test_sweep_above_the_point_limit_exits_2(monkeypatch, capsys, axes, count):
    # refused from the counts: no axis longer than the limit is made and no point is resolved
    linspace, resolved = np.linspace, []

    def short_linspace(lo, hi, num):
        assert num <= 10 ** 6, "an axis above the limit was made"
        return linspace(lo, hi, num)

    def base_config_only(*args):
        resolved.append(args)
        assert len(resolved) == 1, "a sweep point was resolved"
        return resolve_config(*args)

    monkeypatch.setattr(np, "linspace", short_linspace)
    monkeypatch.setattr(cli, "resolve_config", base_config_only)
    assert cli.main(["sweep", "--scenario", "mf-noisy-cooling", *itertools.chain(*(("--sweep", a) for a in axes))]) == 2
    assert f"config error: a sweep may have at most 1000000 points, got {count}" in capsys.readouterr().err


def test_integers_beyond_the_float_range(capsys, tmp_path):
    big = 10 ** 400
    assert cli.main(["steady", "--scenario", "mf-noisy-cooling", f"--seed={big}"]) == 0  # an int has no float range
    assert f'"seed": {big},' in capsys.readouterr().out
    for config in ({"scenario": "mf-noisy-cooling", "tau": big}, {"scenario": "mf-eta-cooling", "eta": {"eta0": big}}):
        (tmp_path / "cfg.json").write_text(json.dumps(config))
        assert cli.main(["steady", "--config", str(tmp_path / "cfg.json")]) == 2
        assert "config error: bad config value: int too large to convert to float" in capsys.readouterr().err


def test_tau_flag_with_tau1_or_tau2_exits_2(capsys, tmp_path):
    # --tau replaced --tau1 silently: this ran at tau1=0.5
    for argv, other in ((["--tau", "0.5", "--tau1", "0.2"], "tau1"), (["--tau2", "0.3", "--tau", "0.5"], "tau2")):
        assert cli.main(["steady", "--scenario", "mf-noisy-cooling", *argv]) == 2
        assert f"config error: cannot set tau together with {other} (tau sets tau1 and tau2)" in capsys.readouterr().err
    # a config document's tau fills in only the coupling it does not set
    (tmp_path / "cfg.json").write_text(json.dumps({"scenario": "mf-noisy-cooling", "tau": 0.5, "tau1": 0.2}))
    assert cli.main(["steady", "--config", str(tmp_path / "cfg.json")]) == 0
    assert "tau1=0.2, tau2=0.5" in capsys.readouterr().out


def test_tau_axis_with_tau1_or_tau2_set_exits_2(capsys, tmp_path):
    # a tau axis replaced --tau1 silently: this wrote the rows of the sweep without --tau1
    sweep = ["sweep", "--scenario", "clean-cooling-compare", "--sweep", "tau=0.3:0.5:2"]
    assert cli.main([*sweep, "--tau1", "0.2"]) == 2
    assert "config error: cannot sweep tau with tau1 set (tau sets tau1 and tau2)" in capsys.readouterr().err
    (tmp_path / "cfg.json").write_text(json.dumps({"tau2": 0.2}))
    assert cli.main([*sweep, "--config", str(tmp_path / "cfg.json")]) == 2
    assert "config error: cannot sweep tau with tau2 set (tau sets tau1 and tau2)" in capsys.readouterr().err
    assert cli.main([*sweep, "--config", str(tmp_path / "cfg.json"), "--tau1", "0.3"]) == 2
    assert "cannot sweep tau with tau1 and tau2 set" in capsys.readouterr().err
    # a tau1 and tau2 that follow tau, as a sweep's sidecar records them, are what each point replaces
    (tmp_path / "cfg.json").write_text(json.dumps({"tau": 0.4, "tau1": 0.4, "tau2": 0.4}))
    assert cli.main([*sweep, "--config", str(tmp_path / "cfg.json")]) == 0
    followed = capsys.readouterr().out
    assert cli.main(sweep) == 0
    assert followed == capsys.readouterr().out
    # a tau flag sets the coupling that a tau1 or tau2 axis leaves
    for axis in ("tau1", "tau2"):
        assert cli.main(["sweep", "--scenario", "clean-cooling-compare", "--tau", "0.2",
                         "--sweep", f"{axis}=0.3:0.5:2"]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 3


def _steady_with_config(capsys, tmp_path, config: dict) -> tuple[int, str, str]:
    (tmp_path / "cfg.json").write_text(json.dumps(config))
    code = cli.main(["steady", "--config", str(tmp_path / "cfg.json")])
    return (code, *capsys.readouterr())


def test_config_eta0_sets_the_eta_spec_like_the_flag(capsys, tmp_path):
    assert cli.main(["steady", "--scenario", "mf-eta-cooling", "--eta0", "0.9"]) == 0
    flag = capsys.readouterr().out
    code, out, _ = _steady_with_config(capsys, tmp_path, {"scenario": "mf-eta-cooling", "eta0": 0.9})
    assert code == 0 and out == flag and "spectrum: 0.9, 0.1" in out


def test_eta0_spec_sets_the_recorded_eta0(capsys, tmp_path):
    code, out, _ = _steady_with_config(capsys, tmp_path, {"scenario": "mf-eta-cooling", "eta": {"eta0": 0.3}})
    resolved = json.loads(out.split("resolved config: ")[1])
    assert code == 0 and resolved["eta"] == {"eta0": 0.3} and resolved["eta0"] == 0.3
    assert cli.main(["steady", "--scenario", "mf-eta-cooling", "--eta0", "0.3"]) == 0
    assert capsys.readouterr().out == out


@pytest.mark.parametrize("scenario", ["mf-eta-cooling", "eta-cooling-compare"])
@pytest.mark.parametrize("eta0", [0.2, 0.5, 0.7])
def test_matrix_eta_cools_like_the_same_eta0(scenario, eta0):
    # the MF loop re-prepared the dominant state of diag(eta0, 1-eta0) at the default eta0 = 0.5, whatever the
    # matrix: {"matrix": [[0.2, 0], [0, 0.8]]} cooled towards |0> and reached purity 0.58 instead of 0.78
    matrix = metric_row(resolve_config({"scenario": scenario, "eta": {"matrix": [[eta0, 0], [0, 1 - eta0]]}}))
    family = metric_row(resolve_config({"scenario": scenario, "eta": {"eta0": eta0}}))
    assert matrix == {key: family[key] for key in matrix}


def test_config_with_two_different_eta0_exits_2(capsys, tmp_path):
    config = {"scenario": "mf-eta-cooling", "eta0": 0.9, "eta": {"eta0": 0.3}}
    code, out, err = _steady_with_config(capsys, tmp_path, config)
    assert code == 2 and out == "" and "config error: config sets eta0 = 0.9 and the eta spec {'eta0': 0.3}" in err
    code, _, _ = _steady_with_config(capsys, tmp_path, config | {"eta0": 0.3})  # the same eta0 twice
    assert code == 0


@pytest.mark.parametrize("eta,message", [
    ({"eta0": 0.3, "preset": "clean"}, "an eta spec needs exactly one of 'preset', 'eta0', 'matrix', got "),
    ({}, "an eta spec needs exactly one of"),
    ({"preset": "clean", "colour": "red"}, "an eta spec needs exactly one of"),
    ({"presets": "clean"}, "an eta spec needs exactly one of"),
    ({"preset": "bogus"}, "bad eta spec {'preset': 'bogus'} at d=2: unknown controller preset 'bogus'"),
    ("bogus", "an eta spec needs exactly one of 'preset', 'eta0', 'matrix', got 'bogus'"),
    ({"matrix": [[1, 0], [0, 1]]}, "bad eta spec {'matrix': [[1, 0], [0, 1]]} at d=2: controller state has trace"),
    (None, "an eta spec needs exactly one of 'preset', 'eta0', 'matrix', got None"),
    ({"matrix": [[1]]}, "bad eta spec {'matrix': [[1]]} at d=2: controller state must be 2x2, got shape (1, 1)"),
    ({"preset": [[1]]}, "bad eta spec {'preset': [[1]]} at d=2: controller state must be 2x2, got shape (1, 1)"),
    ([[1]], "an eta spec needs exactly one of 'preset', 'eta0', 'matrix', got [[1]]"),
    ({"matrix": [[["nan", 0], 0], [0, 1]]}, "could not parse matrix: matrix entries must be finite, got ['nan', 0]"),
    ({"matrix": [[float("inf"), 0], [0, 1]]}, "could not parse matrix: matrix entries must be finite, got inf"),
    ({"preset": 10 ** 400}, "bad eta spec {'preset': 1"),
], ids=["two-kinds", "empty", "stray-key", "misspelt", "bad-preset", "bad-string", "bad-matrix", "null",
        "matrix-1x1", "preset-1x1", "plain-1x1", "nan-entry", "inf-entry", "huge-int"])
def test_bad_eta_spec_exits_2(capsys, tmp_path, eta, message):
    # {"eta0": 0.3, "preset": "clean"} ran the clean preset and recorded eta0 = 0.3; a bad preset raised
    code, out, err = _steady_with_config(capsys, tmp_path, {"scenario": "mf-eta-cooling", "eta": eta})
    assert code == 2 and out == "" and f"config error: {message}" in err


@pytest.mark.parametrize("command", [["steady"], ["trajectories", "--steps", "3", "--ntraj", "2"]])
def test_config_sweep_key_is_not_part_of_the_run(capsys, tmp_path, command):
    # a sweep's sidecar config holds its axes; steady and trajectories printed and recorded them
    (tmp_path / "cfg.json").write_text(json.dumps({"scenario": "mf-noisy-cooling", "sweep": ["tau=0:1:3"]}))
    out = tmp_path / "o.csv"
    assert cli.main([*command, "--config", str(tmp_path / "cfg.json"), "--out", str(out)]) == 0
    assert '"sweep"' not in capsys.readouterr().out
    assert "sweep" not in json.loads((tmp_path / "o.csv.meta.json").read_text())["config"]


def test_unknown_config_key_exits_2(capsys, tmp_path):
    code, out, err = _steady_with_config(capsys, tmp_path, {"scenario": "mf-noisy-cooling", "lamda": 0.9})
    assert code == 2 and out == ""
    assert "config error: unknown config key 'lamda'; accepted keys: [" in err and "'lambda'" in err


@pytest.mark.parametrize("argv", [["--scenario", "mf-clean-cooling", "--tau", "0", "--lambda", "1"],
                                  ["--scenario", "mf-eta-cooling", "--tau", "0", "--lambda", "1"],
                                  ["--scenario", "ad-mf", "--tau", "0", "--gamma", "0"]])
def test_steady_exits_0_where_the_oracle_of_another_protocol_is_undefined(capsys, argv):
    # the oracle also computed a protocol whose formula divides by zero here, and raised ZeroDivisionError
    assert cli.main(["steady", *argv]) == 0
    assert "\noracle_dev: 0\n" in capsys.readouterr().out


@pytest.mark.parametrize("scenario", [["mf-noisy-cooling"], {"a": 1}, 5])
def test_non_string_scenario_exits_2(capsys, tmp_path, scenario):
    # a list or an object raised TypeError: unhashable type
    code, out, err = _steady_with_config(capsys, tmp_path, {"scenario": scenario})
    assert code == 2 and out == ""
    assert err.startswith(f"config error: unknown scenario {scenario!r}; choose from ['ad-cf', ")


def _eta0_axis_sweep(capsys, tmp_path, eta) -> tuple[int, str]:
    (tmp_path / "cfg.json").write_text(json.dumps({"scenario": "eta-cooling-compare", "eta": eta}))
    out = tmp_path / "o.csv"
    code = cli.main(["sweep", "--config", str(tmp_path / "cfg.json"), "--sweep", "eta0=0:1:3", "--out", str(out)])
    assert not out.exists()
    return code, capsys.readouterr().err


@pytest.mark.parametrize("eta,message", [
    ({"matrix": [[1]]}, "controller state must be 2x2, got shape (1, 1)"),
])
def test_sweep_checks_the_eta_spec_that_an_eta0_axis_replaces(capsys, tmp_path, eta, message):
    # every point takes its eta0 from the axis, so no point built the config's own spec
    code, err = _eta0_axis_sweep(capsys, tmp_path, eta)
    assert code == 2 and f"config error: bad eta spec {eta!r} at d=2: {message}" in err


@pytest.mark.parametrize("eta", ["clean", 0.3, float("nan"), [[1]]])
def test_sweep_with_an_eta0_axis_refuses_a_bare_eta(capsys, tmp_path, eta):
    # a bare eta skipped the spec-form check; nan was caught only as an eta0 out of range
    code, err = _eta0_axis_sweep(capsys, tmp_path, eta)
    assert code == 2 and f"config error: an eta spec needs exactly one of 'preset', 'eta0', 'matrix', got {eta!r}" in err


@pytest.mark.parametrize("argv,config", [
    (["steady", "--scenario", "mf-eta-cooling", "--tau1", "0.3", "--tau2", "0.6", "--eta0", "0.2"], None),
    (["steady", "--lambda", "0.7"],
     {"scenario": "cf-clean", "tau": 0.3, "stage": {"type": "cf", "unitary": [[0, 1], [1, 0]]}}),
    (["trajectories", "--scenario", "ad-mf", "--tau", "0.4", "--gamma", "0.3", "--steps", "7", "--ntraj", "9",
      "--seed", "3"], None),
    (["sweep", "--scenario", "bitflip-povm", "--tau", "0.4", "--sweep", "a=0:1:3", "--sweep", "b=0.2:0.8:2"], None),
    (["sweep", "--sweep", "eta0=0.1:0.9:3"], {"scenario": "eta-cooling-compare", "lambda": 0.6}),
    (["sweep", "--scenario", "clean-cooling-compare", "--lambda", "0.5", "--sweep", "tau=0:1:5"], None),
    (["sweep", "--sweep", "tau=0.1:0.9:3", "--sweep", "gamma=0.2:0.4:2"], {"scenario": "ad-compare", "tau": 0.3}),
], ids=["steady", "steady-stage", "trajectories", "sweep", "sweep-eta0", "sweep-tau", "sweep-tau-config"])
def test_sidecar_config_reproduces_the_output(capsys, tmp_path, argv, config):
    if config is not None:
        (tmp_path / "first.json").write_text(json.dumps(config))
        argv = [*argv, "--config", str(tmp_path / "first.json")]
    first, again = tmp_path / "first.csv", tmp_path / "again.csv"
    assert cli.main([*argv, "--out", str(first)]) == 0
    out = capsys.readouterr().out
    sidecar = json.loads((tmp_path / "first.csv.meta.json").read_text())
    (tmp_path / "sidecar.json").write_text(json.dumps(sidecar["config"]))
    axes = [arg for flag, arg in zip(argv, argv[1:]) if flag == "--sweep"]
    assert cli.main([argv[0], "--config", str(tmp_path / "sidecar.json"),
                     *itertools.chain(*(("--sweep", axis) for axis in axes)), "--out", str(again)]) == 0
    assert capsys.readouterr().out == out.replace(str(first), str(again))
    assert again.read_bytes() == first.read_bytes()
    assert (tmp_path / "again.csv.meta.json").read_bytes() == (tmp_path / "first.csv.meta.json").read_bytes()


def test_trajectories_require_mf_scenario():
    r = run_cli("trajectories", "--scenario", "cf-clean")
    assert r.returncode == 2


def test_sweep_crossover_sign_change(tmp_path):
    out = tmp_path / "sweep.csv"
    r = run_cli("sweep", "--scenario", "clean-cooling-compare", "--lambda", "0.5",
                "--sweep", "tau=0.1:0.6:26", "--out", str(out))
    assert r.returncode == 0
    lines = out.read_text().splitlines()
    cols = lines[0].split(",")
    i_tau = cols.index("tau")
    i_diff = cols.index("s_mf_minus_s_cf")
    rows = [(float(l.split(",")[i_tau]), float(l.split(",")[i_diff])) for l in lines[1:]]
    flips = [(a, b) for (a, da), (b, db) in zip(rows, rows[1:]) if (da < 0) != (db < 0)]
    assert len(flips) == 1
    lo, hi = flips[0]
    assert lo < 1.0 / 3.0 < hi


def test_sweep_povm_argmax_on_diagonal(tmp_path):
    out = tmp_path / "ab.csv"
    r = run_cli("sweep", "--scenario", "bitflip-povm", "--tau", "0.5",
                "--sweep", "a=0:1:11", "--sweep", "b=0:1:11", "--out", str(out))
    assert r.returncode == 0
    lines = out.read_text().splitlines()
    cols = lines[0].split(",")
    ia, ib, iv = cols.index("a"), cols.index("b"), cols.index("haar_fidelity")
    best = max(lines[1:], key=lambda l: float(l.split(",")[iv]))
    fields = best.split(",")
    assert abs(float(fields[ia]) - float(fields[ib])) <= 0.1 + 1e-12


def test_sweep_gamma_monotone(tmp_path):
    out = tmp_path / "g.csv"
    r = run_cli("sweep", "--scenario", "ad-cf", "--tau", "0.25", "--chi",
                str(np.pi / 2), "--sweep", "gamma=0.05:0.95:10", "--out", str(out))
    assert r.returncode == 0
    lines = out.read_text().splitlines()
    i_r = lines[0].split(",").index("rho11")
    vals = [float(l.split(",")[i_r]) for l in lines[1:]]
    assert all(b > a for a, b in zip(vals, vals[1:]))
    # and the values match the closed form
    i_g = lines[0].split(",").index("gamma")
    for line in lines[1:]:
        fields = line.split(",")
        expect = oracles.ad_occupations(0.25, float(fields[i_g]))[1]
        assert abs(float(fields[i_r]) - expect) <= 1e-9


def test_sweep_rejects_three_axes():
    r = run_cli("sweep", "--scenario", "mf-noisy-cooling", "--sweep", "tau=0:1:3",
                "--sweep", "lambda=0:1:3", "--sweep", "gamma=0:1:3")
    assert r.returncode == 2


def test_sweep_rejects_unknown_axis():
    r = run_cli("sweep", "--scenario", "mf-noisy-cooling", "--sweep", "foo=0:1:3")
    assert r.returncode == 2


@pytest.mark.parametrize("argv,limit", [
    (["--scenario", "mf-eta-cooling", "--sweep", "eta0=0:1.5:3"], "eta0 must be in [0,1], got 1.5"),
    (["--scenario", "mf-noisy-cooling", "--sweep", "tau=0:1.5:3"], "tau must be in [0,1], got 1.5"),
    (["--scenario", "mf-noisy-cooling", "--d", "3", "--sweep", "eta0=0:1:3"], "needs d=2"),
    (["--scenario", "bitflip-povm", "--sweep", "a=0:2:3"], "a must be in [0,1], got 2.0"),
    (["--scenario", "bitflip-povm", "--sweep", "a=0:1:2", "--sweep", "b=0.5:1.5:2"], "b must be in [0,1], got 1.5"),
    (["--scenario", "mf-noisy-cooling", "--sweep", "tau=0:1:0"], "needs at least one point"),
    (["--scenario", "cf-clean", "--sweep", "chi=0:nan:3"], "chi must be finite, got nan"),
    (["--scenario", "mf-noisy-cooling", "--sweep", "tau=0.1:0.9:3", "--sweep", "tau=0.2:0.8:2"],
     "sweep axes tau, tau set one parameter twice"),
    (["--scenario", "mf-noisy-cooling", "--sweep", "tau=0.1:0.9:3", "--sweep", "tau1=0.2:0.8:2"],
     "cannot set tau together with tau1 (tau sets tau1 and tau2)"),
    (["--scenario", "mf-noisy-cooling", "--sweep", "tau2=0.1:0.9:3", "--sweep", "tau=0.2:0.8:2"],
     "cannot set tau together with tau2 (tau sets tau1 and tau2)"),
], ids=["eta0", "tau", "eta0-qudit", "a", "b", "no-points", "chi-nan", "repeated-axis", "tau-and-tau1", "tau2-and-tau"])
def test_sweep_axis_out_of_range_exits_2(monkeypatch, capsys, tmp_path, argv, limit):
    # every point is checked before the first row is computed
    monkeypatch.setattr(cli, "metric_rows", lambda cfgs: pytest.fail("a row was computed"))
    out = tmp_path / "s.csv"
    assert cli.main(["sweep", *argv, "--out", str(out)]) == 2
    assert limit in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("config,message", [
    ({"scenario": "cf-clean", "d": 3, "stage": {"type": "cf", "unitary": [[0, 1], [1, 0]]}},
     "in-loop unitary must be 3x3, got (2, 2)"),
    ({"scenario": "cf-clean", "stage": {"type": "cf", "unitary": [[1, 1], [1, 0]]}}, "in-loop unitary is not unitary"),
    ({"scenario": "cf-clean", "stage": {"type": "cf"}}, "needs the key 'unitary'"),
    ({"scenario": "mf-noisy-cooling", "stage": {"type": "mf-projective", "feedback": [[[1, 0], [0, 1]]]}},
     "need 2 feedback unitaries, got 1"),
    ({"scenario": "mf-noisy-cooling", "stage": {"type": "mf-projective", "feedback": 5}}, "not iterable"),
    ({"scenario": "cf-clean", "stage": {"type": "cf", "unitary": [[0, 1], [1, 0]], "untary": 5}},
     "stage 'cf' does not read 'untary'; it reads ['unitary']"),
    ({"scenario": "mf-noisy-cooling", "stage": {"type": "mf-povm", "kraus": [], "basis": [], "feedback": []}},
     "stage 'mf-povm' does not read 'basis', 'feedback'; it reads ['kraus']"),
    ({"scenario": "clean-cooling-compare", "stage": {"type": "cf", "unitary": [[1, 0], [0, 1]], "x": 1}},
     "stage 'cf' does not read 'x'"),
    ({"scenario": "cf-clean", "stage": {"type": "cff", "unitary": [[0, 1], [1, 0]]}},
     "a stage needs a type from ['cf', 'mf-povm', 'mf-projective'], got {'type': 'cff'"),
    ({"scenario": "cf-clean", "stage": 5}, "a stage needs a type from ['cf', 'mf-povm', 'mf-projective'], got 5"),
    ({"scenario": "cf-clean", "stage": None}, "a stage needs a type from ['cf', 'mf-povm', 'mf-projective'], got None"),
    ({"scenario": "mf-noisy-cooling", "stage": {"type": "mf-povm", "kraus": [[[["nan", 0], 0], [0, 0]], [[0, 0], [0, 1]]]}},
     "could not parse matrix: matrix entries must be finite, got ['nan', 0]"),
    ({"scenario": "mf-noisy-cooling", "stage": {"type": "mf-projective", "feedback": [[[0, 1], [1, 0]],
                                                                                       [[0, 1], [1, [0, "inf"]]]]}},
     "could not parse matrix: matrix entries must be finite, got [0, 'inf']"),
    ({"scenario": "cf-clean", "stage": {"type": "cf", "unitary": [[10 ** 400, 0], [0, 1]]}},
     "could not parse matrix: int too large to convert to float"),
], ids=["cf-wrong-d", "cf-not-unitary", "cf-no-unitary", "mf-projective-too-few", "mf-projective-not-a-list",
        "cf-stray-key", "mf-povm-stray-keys", "compare-stray-key", "unknown-type", "not-an-object", "null",
        "mf-povm-nan", "mf-projective-inf", "cf-huge-int"])
@pytest.mark.parametrize("command", [["steady"], ["sweep", "--sweep", "tau=0.1:0.9:3"],
                                     ["trajectories", "--steps", "2", "--ntraj", "2"]],
                         ids=["steady", "sweep", "trajectories"])
def test_bad_config_stage_exits_2(capsys, tmp_path, config, message, command):
    cfg, out = tmp_path / "cfg.json", tmp_path / "o.csv"
    cfg.write_text(json.dumps(config))
    assert cli.main([*command, "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and message in err
    assert not out.exists()


@pytest.mark.parametrize("scenario", [name for name, s in sorted(SCENARIOS.items()) if len(s.stages) > 1])
@pytest.mark.parametrize("command", [["steady"], ["sweep", "--sweep", "tau=0.5:0.5:1"]], ids=["steady", "sweep"])
def test_config_stage_on_a_compare_scenario_exits_2(monkeypatch, capsys, tmp_path, scenario, command):
    # a compare scenario's stages are its own: one config stage cannot replace them
    monkeypatch.setattr(cli, "build_protocols", lambda cfg: pytest.fail("a protocol was built"))
    monkeypatch.setattr(cli, "metric_rows", lambda cfgs: pytest.fail("a row was computed"))
    cfg, out = tmp_path / "cfg.json", tmp_path / "o.csv"
    cfg.write_text(json.dumps({"scenario": scenario, "stage": {"type": "cf", "unitary": [[0, 1], [1, 0]]}}))
    assert cli.main([*command, "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and repr(scenario) in err
    assert "a config stage applies only to single-protocol scenarios" in err
    assert not out.exists()


def _sweep_rows(*argv) -> list[dict]:
    r = run_cli("sweep", *argv)
    assert r.returncode == 0, r.stderr
    header, *lines = r.stdout.splitlines()
    return [dict(zip(header.split(","), line.split(","))) for line in lines]


def test_unequal_taus_drop_oracle_columns_of_every_kind():
    # the oracles hold at tau1 == tau2; the simulated comparison columns stay
    for scenario, kept in [("clean-cooling-compare", "s_mf_minus_s_cf"), ("ad-compare", "cf_beats_mf"),
                           ("mf-noisy-cooling", "alpha0"), ("bitflip-povm", "haar_fidelity")]:
        equal, = _sweep_rows("--scenario", scenario, "--tau", "0.4", "--sweep", "lambda=0.5:0.5:1")
        unequal, = _sweep_rows("--scenario", scenario, "--tau1", "0.2", "--tau2", "0.6", "--sweep", "lambda=0.5:0.5:1")
        assert any(k.startswith("oracle_") for k in equal)
        assert kept in unequal and not any(k.startswith("oracle_") for k in unequal)


def test_no_oracle_for_a_protocol_the_oracle_does_not_describe(tmp_path):
    r = run_cli("steady", "--scenario", "cf-clean", "--tau", "0.3", "--lambda", "0.7", "--eta0", "0.2")
    assert r.returncode == 0
    assert "oracle: none for this configuration" in r.stdout and "oracle_dev" not in r.stdout
    cfg = tmp_path / "clean-cf-eta.json"
    cfg.write_text(json.dumps({"scenario": "cf-eta", "eta": {"preset": "clean"}}))
    r = run_cli("steady", "--config", str(cfg))
    assert r.returncode == 0
    assert "oracle: none for this configuration" in r.stdout
    povm = tmp_path / "povm.json"
    povm.write_text(json.dumps({"scenario": "bitflip-povm", "tau": 0.4, "stage": {
        "type": "mf-povm", "kraus": [[[0, 0.6], [0.8, 0]], [[0, 0.8], [0.6, 0]]]}}))
    rows = _sweep_rows("--config", str(povm), "--sweep", "lambda=0.5:0.5:1")
    assert not any(k.startswith("oracle_") for k in rows[0])
    # the scenario's own eta spec keeps its oracle, at any eta0 of an eta0 scenario
    r = run_cli("steady", "--scenario", "cf-eta", "--eta0", "0.2")
    assert r.returncode == 0
    assert "oracle_entropy_linear" in r.stdout


# oracle column -> the simulated column it must match
ORACLE_COLUMNS = {
    "oracle_alpha0": "alpha0", "oracle_entropy_linear": "entropy_linear", "oracle_rho11": "rho11",
    "oracle_fidelity": "haar_fidelity", "oracle_s_mf": "mf_entropy_linear", "oracle_s_cf": "cf_entropy_linear",
    "oracle_rho11_chi0": "cf_chi0_rho11", "oracle_rho11_chipi2": "cf_chipi2_rho11", "oracle_rho11_mf": "mf_rho11",
}


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_every_scenario_matches_its_oracle_columns(capsys, name, d):
    scenario = SCENARIOS[name]
    if d == 3 and (scenario.qubit_only or "eta0" in scenario.defaults["eta"]):
        assert cli.main(["sweep", "--scenario", name, "--d", "3", "--sweep", "tau=0.5:0.5:1"]) == 2
        assert "d=2" in capsys.readouterr().err  # "qubit-only (d=2)", or the eta0 family "needs d=2"
        return
    cfg = resolve_config({"scenario": name, "d": d})
    row = metric_row(cfg)
    oracle_keys = [k for k in row if k.startswith("oracle_")]
    assert oracle_keys or (name, d) == ("mf-clean-cooling", 3)  # its oracle is the qubit formula
    for key in oracle_keys:
        if key == "oracle_dev":
            assert row[key] <= 1e-9
        elif key == "oracle_alpha1":
            (p,) = build_protocols(cfg).values()
            assert abs(np.linalg.eigvalsh(steady_state(p)[0])[0] - row[key]) <= 1e-9
        elif key == "oracle_cf_crossover_tau":
            # at the crossover the chi=0 coherent loop and measure-and-repump hold the same rho11
            at = metric_row(resolve_config({"scenario": name, "tau": row[key]}))
            assert abs(at["cf_chi0_rho11"] - at["mf_rho11"]) <= 1e-9
        else:
            assert abs(row[ORACLE_COLUMNS[key]] - row[key]) <= 1e-9, key


def _sweep_cases():
    """(id, config, sweep axes): every scenario along one and two axes at d=2, the
    qudit scenarios at d=3, unequal couplings, stage overrides and eta0 endpoints."""
    second_axis = {"ad-cf": "gamma=0.1:0.9:3", "ad-mf": "gamma=0.1:0.9:3", "ad-compare": "gamma=0.1:0.9:3",
                   "bitflip-povm": "a=0:1:3"}
    for name, scenario in sorted(SCENARIOS.items()):
        other = second_axis.get(name, "lambda=0.2:1:3")
        yield name, {"scenario": name}, ["tau=0:1:5"]
        yield f"{name}-2axis", {"scenario": name, "tau1": 0.3, "tau2": 0.7}, ["tau1=0.1:0.9:3", other]
        if "eta0" in scenario.defaults["eta"]:
            yield f"{name}-eta0", {"scenario": name}, ["eta0=0:1:5", "tau=0.2:0.8:2"]
        elif not scenario.qubit_only:
            yield f"{name}-d3", {"scenario": name, "d": 3}, ["tau=0:1:4", "lambda=0.3:1:2"]
    yield "cf-stage", {"scenario": "cf-clean", "stage": {"type": "cf", "unitary": [[0, 1], [1, 0]]}}, ["tau=0:1:4"]
    yield "povm-stage", {"scenario": "bitflip-povm", "stage": {
        "type": "mf-povm", "kraus": [[[0, 0.6], [0.8, 0]], [[0, 0.8], [0.6, 0]]]}}, ["tau2=0:1:4"]


@pytest.mark.parametrize("blocks", ["one-block", "many-blocks"])
@pytest.mark.parametrize("config,axes", [case[1:] for case in _sweep_cases()], ids=[case[0] for case in _sweep_cases()])
def test_sweep_rows_equal_pointwise_metric_rows(monkeypatch, config, axes, blocks):
    from qfeedback import scenarios
    from qfeedback.loop import DegenerateSteadyStateError

    if blocks == "many-blocks":  # 16·J·d⁴ bytes per point: three d=2 points per block with J = 2
        monkeypatch.setattr(scenarios, "MAX_BLOCK_BYTES", 3 * 16 * 2 * 2 ** 4)
    cfg = resolve_config(config)
    parsed = [cli._parse_axis(spec) for spec in axes]
    names = [name for name, _ in parsed]
    cfgs = [resolve_config(cfg, dict(zip(names, map(float, values))))
            for values in itertools.product(*(v for _, v in parsed))]
    rows = scenarios.metric_rows(cfgs)
    assert len(rows) == len(cfgs)
    for point_cfg, row in zip(cfgs, rows):
        if isinstance(row, DegenerateSteadyStateError):
            with pytest.raises(DegenerateSteadyStateError, match=str(row).replace(".", r"\.")):
                metric_row(point_cfg)
        else:
            assert row == metric_row(point_cfg)  # exact, cell by cell


def test_sweep_parts_are_built_once_per_value_of_the_keys_they_read(monkeypatch):
    from qfeedback import loop, scenarios

    ops_calls, noise_calls = [], []
    for stage in (loop.CoherentStage, loop.ProjectiveStage):
        monkeypatch.setattr(stage, "controller_ops", lambda self, d, build=stage.controller_ops:
                            ops_calls.append(type(self).__name__) or build(self, d))
    depolarizing = scenarios.depolarizing_channel
    monkeypatch.setattr(scenarios, "depolarizing_channel", lambda d, lam: noise_calls.append(lam) or depolarizing(d, lam))
    # the stages do not read gamma: one build per label along a gamma axis
    cfg = resolve_config({"scenario": "ad-compare"})
    scenarios.metric_rows([resolve_config(cfg, {"gamma": x}) for x in np.linspace(0.1, 0.9, 5)])
    assert sorted(ops_calls) == ["CoherentStage", "CoherentStage", "ProjectiveStage"]
    # the noise does not read eta0: one build along an eta0 axis
    cfg = resolve_config({"scenario": "eta-cooling-compare"})
    scenarios.metric_rows([resolve_config(cfg, {"eta0": x}) for x in np.linspace(0.0, 1.0, 5)])
    assert noise_calls == [cfg["lambda"]]


def test_sweep_blocks_share_the_parts_built_so_far(monkeypatch):
    from qfeedback import loop, scenarios

    cfg = resolve_config({"scenario": "cf-clean"})
    cfgs = [resolve_config(cfg, {"tau": x}) for x in np.linspace(0.0, 1.0, 6)]
    one_block = scenarios.metric_rows(cfgs)
    calls = []
    monkeypatch.setattr(loop.CoherentStage, "controller_ops", lambda self, d, build=loop.CoherentStage.controller_ops:
                        calls.append(d) or build(self, d))
    monkeypatch.setattr(scenarios, "MAX_BLOCK_BYTES", 2 * 16 * 2 ** 4)  # two d=2 points of one outcome per block
    assert scenarios.metric_rows(cfgs) == one_block  # exact, cell by cell
    assert calls == [2]  # one stage build for the three blocks


# a value of every config key, different from each scenario's own
_OTHER_VALUES = {"scenario": "cf-clean", "d": 3, "tau": 0.3, "tau1": 0.35, "tau2": 0.8, "lambda": 0.8, "gamma": 0.6,
                 "eta0": 0.2, "chi": 0.7, "phi1": 0.4, "a": 0.3, "b": 0.9, "seed": 3, "steps": 7, "ntraj": 5,
                 "threads": 2, "eta": {"matrix": [[0.3, 0], [0, 0.7]]},
                 "stage": {"type": "cf", "unitary": [[0, [0, 1]], [[0, 1], 0]]}}


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_each_sweep_part_reads_only_its_declared_keys(name):
    """A part is reused at every point that agrees on its declared keys, so a
    key that it reads but does not declare would leave a stale part: changing
    any other key must give the same part."""
    from qfeedback import scenarios

    assert _OTHER_VALUES.keys() == scenarios._CONFIG_KEYS - {"sweep"}
    cfg = resolve_config({"scenario": name})
    other = _OTHER_VALUES | ({"scenario": "mf-noisy-cooling"} if name == "cf-clean" else {})
    for part, (keys, build) in scenarios._PARTS.items():
        want = build(cfg)
        for key in sorted(other.keys() - set(keys)):
            assert cfg.get(key) != other[key], key
            got = build(cfg | {key: other[key]})
            if part == "ops":
                assert want.keys() == got.keys() and all(np.array_equal(want[k], got[k]) for k in want), key
            else:
                assert np.array_equal(want, got), (part, key)


def test_sweep_takes_one_haar_average_per_bitflip_point(monkeypatch, capsys):
    from qfeedback import scenarios

    calls = []

    def counted(p, nodes=32):
        calls.append(nodes)
        return haar_avg_bitflip_fidelity(p, nodes)

    haar_avg_bitflip_fidelity = scenarios.haar_avg_bitflip_fidelity
    monkeypatch.setattr(scenarios, "haar_avg_bitflip_fidelity", counted)
    assert cli.main(["sweep", "--scenario", "bitflip-povm", "--sweep", "a=0:1:3", "--sweep", "b=0:1:2"]) == 0
    assert calls == [32] * 6 and len(capsys.readouterr().out.splitlines()) == 1 + 6


def test_degenerate_sweep_points_are_named_and_the_other_rows_written(capsys, tmp_path):
    # lambda = 1 and tau = 1 make the cycle the identity map: the point tau=1 has no unique steady state
    argv = ["sweep", "--scenario", "mf-noisy-cooling", "--lambda", "1"]
    assert cli.main([*argv, "--sweep", "tau=0:0.5:2"]) == 0
    computed = capsys.readouterr().out
    assert cli.main([*argv, "--sweep", "tau=0:1:3"]) == 3
    out, err = capsys.readouterr()
    assert out == computed  # the rows of tau = 0 and 0.5, byte for byte
    assert "degenerate steady state at tau=1, row left out" in err
    csv = tmp_path / "s.csv"
    assert cli.main([*argv, "--sweep", "tau=0:1:3", "--out", str(csv)]) == 3
    out, err = capsys.readouterr()
    assert csv.read_text() == computed and f"wrote 2 rows to {csv}" in out
    assert "tau=1, row left out" in err
    meta = json.loads((tmp_path / "s.csv.meta.json").read_text())
    assert meta["degenerate"] == [{"tau": 1.0}]
    # a sweep with no computed row writes nothing
    assert cli.main(["sweep", "--scenario", "cf-noisy", "--tau", "1", "--lambda", "1", "--sweep", "chi=0:1:2",
                     "--out", str(tmp_path / "none.csv")]) == 3
    assert "chi=0, row left out" in capsys.readouterr().err and not (tmp_path / "none.csv").exists()


def test_validate_single_check_passes():
    r = run_cli("validate", "--only", "spot", "--points", "10")
    assert r.returncode == 0
    assert "PASS" in r.stdout
    assert "steady-spot-value" in r.stdout


@pytest.mark.parametrize("points", ["0", "-3"])
def test_validate_points_below_one_exits_2(capsys, points):
    # a grid of no points checks nothing, and would pass
    assert cli.main(["validate", "--only", "oracle", "--points", points]) == 2
    out, err = capsys.readouterr()
    assert out == "" and f"config error: points per oracle grid must be at least 1, got {points}" in err


def test_validate_unknown_filter_exits_2(capsys):
    assert cli.main(["validate", "--only", "zzz-no-such-check"]) == 2
    assert capsys.readouterr() == ("", "config error: no validation check matches 'zzz-no-such-check'\n")


GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize("name,argv,code", [("help", ["--help"], 0), ("steady_help", ["steady", "--help"], 0),
                                            ("version", ["--version"], 0), ("usage_error", ["sweep", "--d", "x"], 2)])
def test_parser_output_is_the_same_on_every_call(monkeypatch, capsys, name, argv, code):
    """`main` builds its parser once per process: the first and the second call
    print the bytes of a parser built per call (the goldens, at 80 columns)."""
    monkeypatch.setenv("COLUMNS", "80")
    cli.build_parser.cache_clear()
    golden = (GOLDEN / f"{name}.txt").read_text()
    for _ in range(2):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == code
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ((golden, "") if code == 0 else ("", golden))


def test_main_runs_the_command_bound_at_call_time(monkeypatch):
    # the benchmark's tracer rebinds cli.cmd_* after the parser has been built
    assert cli.main(["steady", "--scenario", "mf-noisy-cooling"]) == 0
    calls = []
    monkeypatch.setattr(cli, "cmd_steady", lambda args: calls.append(args.scenario) or 0)
    assert cli.main(["steady", "--scenario", "cf-clean"]) == 0
    assert calls == ["cf-clean"]


def test_in_process_sweeps_see_only_their_own_axes(tmp_path):
    for i, axes in enumerate([["tau=0:1:3"], ["lambda=0.2:1:2", "tau1=0.1:0.9:2"], ["eta0=0:1:2"]]):
        out = tmp_path / f"s{i}.csv"
        argv = ["sweep", "--scenario", "mf-noisy-cooling", *itertools.chain(*(("--sweep", a) for a in axes))]
        assert cli.main([*argv, "--out", str(out)]) == 0
        names = [axis.split("=")[0] for axis in axes]
        header, *rows = out.read_text().splitlines()
        assert header.split(",")[:len(names) + 1] == [*names, "alpha0"]
        assert len(rows) == math.prod(int(axis.rsplit(":", 1)[1]) for axis in axes)
        assert json.loads((tmp_path / f"s{i}.csv.meta.json").read_text())["config"]["sweep"] == axes
