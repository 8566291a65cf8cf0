"""`validate`'s scenario checks read their simulated and oracle values from the
scenario table's metric rows, so a fault in the table fails them. The checks
that solve many protocols as one batch match their per-protocol loops, kept in
tests/reference.py."""

import numpy as np
import pytest

from qfeedback import oracles, validate
from qfeedback.loop import DegenerateSteadyStateError
from qfeedback.scenarios import SCENARIOS

import reference

AD_CHECKS = [lambda: validate.check_oracle_ad(points=10), lambda: validate.check_ad_grid(grid=5)]


def _worst(result) -> float:
    return float(result.detail.split("worst |sim-oracle| = ")[1].split()[0].rstrip(","))


@pytest.mark.parametrize("check", AD_CHECKS, ids=["oracle-grid", "ad-grid"])
def test_ad_checks_fail_on_a_miswired_oracle_column(monkeypatch, check):
    assert check().passed
    oracle = SCENARIOS["ad-compare"].oracle

    def swapped(cfg):
        row = oracle(cfg)
        row["oracle_rho11_chi0"], row["oracle_rho11_chipi2"] = row["oracle_rho11_chipi2"], row["oracle_rho11_chi0"]
        return row

    monkeypatch.setitem(SCENARIOS, "ad-compare", SCENARIOS["ad-compare"]._replace(oracle=swapped))
    result = check()
    assert not result.passed and _worst(result) > 1e-3


def test_ad_checks_fail_on_a_missing_oracle_column(monkeypatch):
    oracle = SCENARIOS["ad-compare"].oracle
    monkeypatch.setitem(SCENARIOS, "ad-compare", SCENARIOS["ad-compare"]._replace(
        oracle=lambda cfg: {k: v for k, v in oracle(cfg).items() if k != "oracle_rho11_mf"}))
    results = {r.name: r for r in validate.run_all(points=3, only="oracle-grid")}
    results.update((r.name, r) for r in validate.run_all(only="ad-occupations-grid"))
    for name in ("oracle-grid[ad_occupations]", "ad-occupations-grid"):
        r = results[name]
        assert not r.passed and r.detail.startswith("raised KeyError") and "oracle_rho11_mf" in r.detail


def test_a_degenerate_point_fails_its_check(monkeypatch):
    rows, solve = validate.metric_rows, validate.steady_states

    def first_degenerate(cfgs, **kwargs):
        return [DegenerateSteadyStateError("second eigenvalue magnitude 1")] + rows(cfgs, **kwargs)[1:]

    def first_state_degenerate(sops, d):  # as steady_states leaves a degenerate point: its state NaN
        states, second, degenerate = solve(sops, d)
        states[0], second[0], degenerate[0] = np.nan, 1.0, True
        return states, second, degenerate

    monkeypatch.setattr(validate, "metric_rows", first_degenerate)
    monkeypatch.setattr(validate, "steady_states", first_state_degenerate)
    results = {r.name: r for r in validate.run_all(points=3, only="oracle-grid")}
    for name in ("mf_noisy_steady", "cf_clean_steady", "clean_qubit_entropies", "eta_entropies", "ad_occupations",
                 "bitflip_fidelity"):
        r = results[f"oracle-grid[{name}]"]
        assert not r.passed and r.detail == "raised DegenerateSteadyStateError: second eigenvalue magnitude 1"
    for name in ("ad-occupations-grid", "bitflip-fidelities", "cf-no-cooling"):
        r, = validate.run_all(only=name)
        assert not r.passed and r.detail.startswith("raised DegenerateSteadyStateError")


# the spectrum grids of `oracle-grid`: scenario, protocol label, oracle and seed
SPECTRUM_GRIDS = [("mf-noisy-cooling", "mf", oracles.mf_noisy_steady, 100),
                  ("cf-clean", "cf", oracles.cf_clean_steady, 101)]


def test_spectrum_grids_match_the_per_protocol_reference():
    details = {r.name: r.detail for r in validate.check_oracle_grids()}
    for scenario, label, oracle, seed in SPECTRUM_GRIDS:
        worst = reference.spectrum_grid_worst(scenario, label, oracle, 100, seed)
        assert abs(validate._spectrum_worst(scenario, oracle, 100, seed) - worst) <= 1e-12
        assert details[f"oracle-grid[{oracle.__name__}]"] == f"worst |sim-oracle| = {worst:.2e}"


def test_cf_no_cooling_matches_the_per_protocol_reference():
    drop, ss = reference.cf_no_cooling_worst(500, 300)
    batched = validate._cf_no_cooling_worst(500, 300)
    assert abs(batched[0] - drop) <= 1e-12 and abs(batched[1] - ss) <= 1e-12
    detail = f"worst entropy drop {drop:.2e} (tol 1e-10), worst |ss - 1/d| {ss:.2e}"
    assert validate.check_cf_no_cooling().detail == detail
