"""`validate`'s scenario checks read their simulated and oracle values from the
scenario table's metric rows, so a fault in the table fails them."""

import pytest

from qfeedback import validate
from qfeedback.loop import DegenerateSteadyStateError
from qfeedback.scenarios import SCENARIOS

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
    rows = validate.metric_rows

    def first_degenerate(cfgs):
        return [DegenerateSteadyStateError("second eigenvalue magnitude 1")] + rows(cfgs)[1:]

    monkeypatch.setattr(validate, "metric_rows", first_degenerate)
    results = {r.name: r for r in validate.run_all(points=3, only="oracle-grid")}
    for name in ("clean_qubit_entropies", "eta_entropies", "ad_occupations", "bitflip_fidelity"):
        r = results[f"oracle-grid[{name}]"]
        assert not r.passed and r.detail == "raised DegenerateSteadyStateError: second eigenvalue magnitude 1"
    for name in ("ad-occupations-grid", "bitflip-fidelities"):
        r, = validate.run_all(only=name)
        assert not r.passed and r.detail.startswith("raised DegenerateSteadyStateError")
