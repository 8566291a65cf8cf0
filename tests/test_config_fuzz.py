"""Seeded fuzzing of config documents through the command line, in process.

Each case writes a config document drawn from `PARAMETERS`, the stage types
and the η spec kinds, and runs one command on it. A document takes each of
its values from the valid ones (boundary values included) or, with the
document's own probability, from the invalid ones: wrong types, non-finite
values, values just beyond a bound, and mis-shaped, ragged or non-finite
matrices. Every run must end with a defined exit code, print no traceback,
and write no non-finite number.
"""

import json
import math
import random
import re

import pytest

from qfeedback import cli
from qfeedback.scenarios import _ETA_KINDS, _STAGE_TYPES, MAX_TRAJECTORY_STEPS, PARAMETERS, SCENARIOS

CASES_PER_COMMAND = 400
DIMS = (2, 3)  # the valid dimensions drawn; larger ones only cost time
WRONG_TYPES = (None, True, "x", [], {}, [1, 2], {"a": 1}, 10 ** 400, math.nan, math.inf, -math.inf)
NON_FINITE = re.compile(r"\b(nan|inf|infinity)\b", re.IGNORECASE)
# ad-compare at gamma = 1: the chi=0 loop never overtakes measure-and-repump, and the oracle writes NaN for the
# crossover coupling it does not have
NON_FINITE_COLUMNS = {"oracle_cf_crossover_tau"}


class _Draw:
    """Draws the values of one document: an invalid one with probability `p_bad`."""

    def __init__(self, rng: random.Random, p_bad: float):
        self.rng, self.p_bad = rng, p_bad

    def pick(self, valid, invalid=WRONG_TYPES):
        return self.rng.choice(invalid if invalid and self.rng.random() < self.p_bad else valid)

    def parameter(self, p):
        if p.name == "d":
            return self.pick([*DIMS, 2.0, "3"], [p.low - 1, p.high + 1, 2.5, *WRONG_TYPES])
        if p.name in ("steps", "ntraj"):  # small runs; beyond the product limit is refused before anything starts
            return self.pick([1, 2, 3], [0, -1, MAX_TRAJECTORY_STEPS + 1, 1.5, *WRONG_TYPES])
        if p.type is int:
            high = [p.high, p.high + 1] if math.isfinite(p.high) else [2 ** 70, None]
            return self.pick([p.low, p.low + 1, 2.0, high[0]], [p.low - 1, 0.5, *high[1:], *WRONG_TYPES])
        if math.isfinite(p.high):
            return self.pick([p.low, p.high, 0.25, (p.low + p.high) / 2, str(p.high)],
                             [p.low - 1e-9, p.high + 1e-9, "0.5x", *WRONG_TYPES])
        return self.pick([0.0, math.pi / 2, -3.0, 1e300])

    def matrix(self, good):
        d = len(good)
        poisoned = [row[:] for row in good]
        poisoned[self.rng.randrange(d)][self.rng.randrange(d)] = self.rng.choice(
            [["nan", 0], ["inf", 0], [0, "-inf"], math.nan, math.inf, 10 ** 400, "x", [1], None])
        return self.pick([good], [poisoned, _eye(d + 1), _eye(d - 1), [[1]], good[:-1], [good[0], good[1][:-1]],
                                  [], [[]], 5, "x", None])

    def eta(self, d):
        kind = self.pick(_ETA_KINDS, ["two-kinds", "wrong-type", "plain"])
        if kind == "preset":
            return {"preset": self.pick(["noisy", "clean"], ["warm", [[1]], 0.3, None])}
        if kind == "eta0":
            return {"eta0": self.pick([0.0, 0.3, 1.0, "0.5"], [-0.1, 1.1, math.nan, math.inf, None])}
        if kind == "matrix":
            return {"matrix": self.matrix(_eye(d, 1.0 / d))}
        if kind == "plain":  # a bare value where an eta object belongs
            return self.rng.choice(["noisy", "clean", 0.3, _eye(d, 1.0 / d), math.nan, [[1]], "warm"])
        if kind == "two-kinds":
            return {"preset": "clean", "eta0": 0.5}
        return self.pick(WRONG_TYPES)

    def stage(self, d):
        kind = self.pick(sorted(_STAGE_TYPES), ["invalid"])
        shift = [[1 if (i + 1) % d == j else 0 for j in range(d)] for i in range(d)]  # unitary at every d
        if kind == "cf":
            stage = {"type": "cf", "unitary": self.matrix(shift)}
        elif kind == "mf-projective":
            stage = {"type": "mf-projective", "feedback": [self.matrix(shift) for _ in range(d)]}
            if self.rng.random() < 0.3:
                stage["basis"] = self.matrix(_eye(d))
        elif kind == "mf-povm":
            half = _eye(d, math.sqrt(0.5))
            stage = {"type": "mf-povm", "kraus": [self.matrix(half), half]}
        else:
            return self.rng.choice([{"type": "unknown"}, 5, None, []])
        if self.rng.random() < self.p_bad / 4:
            stage.pop(self.rng.choice(sorted(stage.keys() - {"type"})))
        if self.rng.random() < self.p_bad / 4:
            stage["stray"] = 1
        return stage


def _eye(d, scale=1.0):
    return [[scale if i == j else 0 for j in range(d)] for i in range(d)]


def _config(draw: _Draw, command: str) -> dict:
    rng = draw.rng
    if command == "trajectories":
        names = ["mf-noisy-cooling", "mf-clean-cooling", "mf-eta-cooling", "ad-mf", "cf-clean"]
    else:
        names = sorted(SCENARIOS)
    config = {"scenario": draw.pick(names, ["nope", "", ["a"], {"a": 1}, 5, None])}
    if command == "trajectories":
        config |= {"steps": 3, "ntraj": 3}
    for p in PARAMETERS:
        if rng.random() < 0.3:
            config[p.name] = draw.parameter(p)
    d = int(config["d"]) if config.get("d") in DIMS else 2
    if rng.random() < 0.3:
        config["eta"] = draw.eta(d)
    if rng.random() < 0.3:
        config["stage"] = draw.stage(d)
    if rng.random() < 0.05:
        config["sweep"] = ["tau=0:1:3"]
    return config


def _sweep_axes(draw: _Draw) -> list[str]:
    floats = [p.name for p in PARAMETERS if p.type is float]
    axes = [f"{draw.rng.choice(floats)}=0:1:3"]
    if draw.rng.random() < 0.4:
        axes.append(f"{draw.rng.choice(floats)}={draw.pick(['0.2:0.8:2', '0:0:1'], ['-1:1:2', '1:2:2'])}")
    return [arg for axis in axes for arg in ("--sweep", axis)]


def _non_finite_columns(csv: str) -> set[str]:
    header, *rows = (line.split(",") for line in csv.splitlines())
    return {column for row in rows for column, cell in zip(header, row) if NON_FINITE.fullmatch(cell.lstrip("-"))}


@pytest.mark.parametrize("command,seed", [("steady", 1), ("sweep", 2), ("trajectories", 3)])
def test_fuzzed_configs_exit_cleanly_and_write_only_finite_numbers(capsys, tmp_path, command, seed):
    rng = random.Random(seed)
    path, out, sidecar = tmp_path / "cfg.json", tmp_path / "out.csv", tmp_path / "out.csv.meta.json"
    codes = []
    for case in range(CASES_PER_COMMAND):
        draw = _Draw(rng, rng.choice([0.0, 0.02, 0.1, 0.5]))
        config = _config(draw, command)
        path.write_text(json.dumps(config))
        argv = [command, "--config", str(path), "--out", str(out)] + (_sweep_axes(draw) if command == "sweep" else [])
        out.unlink(missing_ok=True)
        sidecar.unlink(missing_ok=True)
        code = cli.main(argv)
        stdout, stderr = capsys.readouterr()
        where = f"case {case}: {command} {argv[5:]} on {json.dumps(config)}"
        assert code in (0, 2, 3), f"{where} exited {code}: {stderr}"
        assert "Traceback" not in stderr, where
        for text in (stdout, sidecar.read_text() if sidecar.exists() else ""):
            assert not NON_FINITE.search(text), f"{where} wrote {NON_FINITE.search(text).group()}"
        if out.exists():
            assert _non_finite_columns(out.read_text()) <= NON_FINITE_COLUMNS, where
        codes.append(code)
    assert codes.count(0) >= CASES_PER_COMMAND // 4 and codes.count(2) >= CASES_PER_COMMAND // 4, codes
