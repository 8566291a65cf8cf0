"""Output checks for every benchmark invocation. They run outside the timed
region; each returns a list of failure messages, empty when the output is
correct.

- sweep and steady: every `oracle_*` value matches its simulated column within
  ORACLE_TOL, the tolerance `qfeedback validate` uses.
- trajectories: the CSV has ntraj*steps + steps rows, probabilities lie in
  (1e-15, 1], the `mean` rows are the means of the trajectory rows, and the
  last-step mean rho11 lies within 5 standard errors of the unconditional
  cycle iterated from the same start (law of total probability).
- everywhere: entropies and rho11 lie in [0, 1].
"""

from __future__ import annotations

import csv
import math

from qfeedback.loop import iterate_to_fixed_point
from qfeedback.quantum import maximally_mixed
from qfeedback.scenarios import build_protocols, resolve_config

ORACLE_TOL = 1e-9
PROBABILITY_FLOOR = 1e-15
MEAN_ROW_TOL = 1e-12   # the CSV holds 15 significant digits
TOTAL_PROBABILITY_SE = 5.0

# oracle column -> simulated column it must match
ORACLE_PAIRS = {
    "oracle_alpha0": "alpha0",
    "oracle_entropy_linear": "entropy_linear",
    "oracle_rho11": "rho11",
    "oracle_fidelity": "haar_fidelity",
    "oracle_s_mf": "mf_entropy_linear",
    "oracle_s_cf": "cf_entropy_linear",
    "oracle_rho11_chi0": "cf_chi0_rho11",
    "oracle_rho11_chipi2": "cf_chipi2_rho11",
    "oracle_rho11_mf": "mf_rho11",
}


def _unit_interval(name: str, x: float) -> list[str]:
    return [] if 0.0 <= x <= 1.0 else [f"{name} = {x!r} outside [0, 1]"]


def _bounded(name: str) -> bool:
    return "entropy" in name or name.endswith("rho11")


def _check_oracle_row(row: dict[str, float], lowest: float | None) -> list[str]:
    """Compare one row's oracle columns with the simulated ones.

    `lowest` is the smallest steady eigenvalue, which `oracle_alpha1` names.
    """
    errors = []
    oracle_keys = [k for k in row if k.startswith("oracle_")]
    if not oracle_keys:
        return ["row has no oracle column"]
    for key in oracle_keys:
        if key == "oracle_dev":
            if not row[key] <= ORACLE_TOL:
                errors.append(f"oracle_dev = {row[key]!r}")
            continue
        if key == "oracle_cf_crossover_tau":
            # no simulated column: check the CF-vs-MF verdict it implies instead
            best_cf = max(row["oracle_rho11_chi0"], row["oracle_rho11_chipi2"])
            margin = best_cf - row["oracle_rho11_mf"]
            if abs(margin) > ORACLE_TOL and row["cf_beats_mf"] != float(margin > 0):
                errors.append(f"cf_beats_mf = {row['cf_beats_mf']!r} disagrees with the oracles")
            continue
        if key == "oracle_alpha1":
            simulated, sim_name = lowest, "lowest eigenvalue"
        elif key in ORACLE_PAIRS:
            sim_name = ORACLE_PAIRS[key]
            simulated = row.get(sim_name)
        else:
            errors.append(f"unchecked oracle column {key}")
            continue
        if simulated is None or not abs(simulated - row[key]) <= ORACLE_TOL:
            errors.append(f"{key} = {row[key]!r} but {sim_name} = {simulated!r}")
    for key, value in row.items():
        if _bounded(key) and not key.startswith("oracle_"):
            errors += _unit_interval(key, value)
    return errors


def check_sweep(path: str, inv) -> list[str]:
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    errors = []
    if len(rows) != inv.rows:
        errors.append(f"{len(rows)} sweep rows, expected {inv.rows}")
    for i, raw in enumerate(rows):
        row = {k: float(v) for k, v in raw.items()}
        # the sweeps run at d=2, so the lowest eigenvalue is 1 - alpha0
        lowest = 1.0 - row["alpha0"] if "alpha0" in row else None
        errors += [f"row {i}: {e}" for e in _check_oracle_row(row, lowest)]
    return errors


def check_steady(stdout: str, inv) -> list[str]:
    fields = {}
    for line in stdout.splitlines():
        key, sep, value = line.partition(": ")
        if sep:
            fields[key] = value
    try:
        spectrum = [float(x) for x in fields["spectrum"].split(", ")]
        row = {k: float(v) for k, v in fields.items() if k.startswith("oracle_")}
        row["alpha0"] = spectrum[0]
        row["entropy_vn_norm"] = float(fields["von Neumann entropy (normalised)"])
        row["entropy_linear"] = float(fields["linear entropy"])
        row["rho11"] = float(fields["rho11"])
    except (KeyError, ValueError) as exc:
        return [f"unreadable steady report: {exc!r}"]
    errors = []
    if len(spectrum) != inv.params["d"]:
        errors.append(f"spectrum has {len(spectrum)} values, expected d = {inv.params['d']}")
    return errors + _check_oracle_row(row, spectrum[-1])


def check_trajectories(path: str, inv) -> list[str]:
    cfg = resolve_config({}, inv.params)
    ntraj, steps = cfg["ntraj"], cfg["steps"]
    sum_entropy, sum_rho11 = [0.0] * steps, [0.0] * steps
    last = []                                  # rho11 of every trajectory at the last step
    errors: list[str] = []
    n_rows = n_traj_rows = 0
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        expected = ["trajectory_id", "step", "outcome", "probability", "entropy_normalised", "rho11"]
        if header != expected:
            return [f"unexpected header {header}"]
        for rec in reader:
            n_rows += 1
            t = int(rec[1]) - 1
            entropy, rho11 = float(rec[4]), float(rec[5])
            errors += _unit_interval("entropy", entropy) + _unit_interval("rho11", rho11)
            if rec[0] == "mean":
                if not (abs(entropy - sum_entropy[t] / ntraj) <= MEAN_ROW_TOL
                        and abs(rho11 - sum_rho11[t] / ntraj) <= MEAN_ROW_TOL):
                    errors.append(f"mean row of step {t + 1} is not the trajectory mean")
                continue
            n_traj_rows += 1
            prob = float(rec[3])
            if not PROBABILITY_FLOOR < prob <= 1.0:
                errors.append(f"probability {prob!r} outside (1e-15, 1]")
            sum_entropy[t] += entropy
            sum_rho11[t] += rho11
            if t == steps - 1:
                last.append(rho11)
            if len(errors) > 10:
                return errors
    if n_rows != inv.rows or n_traj_rows != ntraj * steps:
        return errors + [f"{n_rows} rows ({n_traj_rows} trajectory rows), expected {inv.rows}"]
    p = build_protocols(cfg)["mf"]
    reference = float(iterate_to_fixed_point(maximally_mixed(cfg["d"]), p, steps)[1, 1].real)
    mean = sum(last) / ntraj
    se = math.sqrt(sum((x - mean) ** 2 for x in last) / (ntraj - 1) / ntraj) if ntraj > 1 else 0.0
    if not abs(mean - reference) <= TOTAL_PROBABILITY_SE * se + MEAN_ROW_TOL:
        errors.append(f"last-step mean rho11 {mean!r} is {abs(mean - reference):.3e} from the "
                      f"unconditional {reference!r} (standard error {se:.3e})")
    return errors
