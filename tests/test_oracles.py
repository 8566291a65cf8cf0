import re

import numpy as np
import pytest

from qfeedback import oracles


def test_mf_noisy_limits():
    assert oracles.mf_noisy_steady(3, 0.0, 0.5) == [1.0, 0.0, 0.0]
    assert np.allclose(oracles.mf_noisy_steady(4, 1.0, 0.5), [0.25] * 4)


def test_mf_noisy_spot_value():
    spectrum = oracles.mf_noisy_steady(2, 0.5, 0.5)
    assert abs(spectrum[0] - 0.7857142857) <= 1e-10
    assert abs(spectrum[1] - 0.2142857143) <= 1e-10


def test_mf_noisy_normalised():
    rng = np.random.default_rng(0)
    for _ in range(50):
        d = int(rng.integers(2, 6))
        spectrum = oracles.mf_noisy_steady(d, rng.uniform(0, 1), rng.uniform(0, 0.99))
        assert abs(sum(spectrum) - 1.0) <= 1e-12
        assert spectrum[0] >= spectrum[1]


def test_cf_clean_limits():
    assert np.allclose(oracles.cf_clean_steady(3, 0.5, 0.4), [1.0, 0.0, 0.0], atol=1e-12)
    for tau in (0.0, 1.0):
        assert np.allclose(oracles.cf_clean_steady(3, tau, 0.7), [1 / 3] * 3, atol=1e-12)


def test_cf_clean_normalised():
    rng = np.random.default_rng(1)
    for _ in range(50):
        d = int(rng.integers(2, 6))
        spectrum = oracles.cf_clean_steady(d, rng.uniform(0, 1), rng.uniform(0, 0.99))
        assert abs(sum(spectrum) - 1.0) <= 1e-12


def test_clean_entropies_crossover_and_limits():
    for lam in (0.1, 0.5, 0.9):
        s_mf, s_cf = oracles.clean_qubit_entropies(1.0 / 3.0, lam)
        assert abs(s_mf - s_cf) <= 1e-12
    s_mf, _ = oracles.clean_qubit_entropies(0.0, 0.8)
    assert abs(s_mf) <= 1e-12
    _, s_cf = oracles.clean_qubit_entropies(0.5, 0.8)
    assert abs(s_cf) <= 1e-12


def test_clean_entropies_regime_split():
    for lam in (0.2, 0.7):
        s_mf, s_cf = oracles.clean_qubit_entropies(0.2, lam)
        assert s_mf < s_cf  # MF wins below tau = 1/3
        s_mf, s_cf = oracles.clean_qubit_entropies(0.45, lam)
        assert s_mf > s_cf


def test_eta_entropies_reductions():
    tau, lam = 0.6, 0.3
    s_mf_half, s_cf_half = oracles.eta_entropies(tau, lam, 0.5)
    # eta0 = 1/2 reduces the MF formula to the maximally mixed controller value
    spectrum = oracles.mf_noisy_steady(2, tau, lam)
    assert abs(s_mf_half - (1.0 - spectrum[0] ** 2 - spectrum[1] ** 2)) <= 1e-12
    assert abs(s_cf_half - 0.5) <= 1e-12  # CF is useless with a mixed controller
    # eta0 = 1 reduces to the clean-controller expressions
    s_mf_one, s_cf_one = oracles.eta_entropies(tau, lam, 1.0)
    clean_mf, clean_cf = oracles.clean_qubit_entropies(tau, lam)
    assert abs(s_mf_one - clean_mf) <= 1e-12
    assert abs(s_cf_one - clean_cf) <= 1e-12


def test_eta_entropies_symmetric_in_relabeling():
    s_a = oracles.eta_entropies(0.7, 0.4, 0.2)
    s_b = oracles.eta_entropies(0.7, 0.4, 0.8)
    assert abs(s_a[0] - s_b[0]) <= 1e-12
    assert abs(s_a[1] - s_b[1]) <= 1e-12


def test_eta_entropies_comparison_regimes():
    # strong coupling: MF wins at every controller temperature
    for eta0 in np.linspace(0.1, 0.9, 9):
        s_mf, s_cf = oracles.eta_entropies(0.25, 0.25, eta0)
        assert s_mf < s_cf
    # weak coupling, lam = 0.5: MF wins at high temperature only
    s_mf, s_cf = oracles.eta_entropies(0.81, 0.5, 0.5)
    assert s_mf < s_cf
    s_mf, s_cf = oracles.eta_entropies(0.81, 0.5, 0.2)
    assert s_cf < s_mf


def test_cf_general_reduces_to_identity_case():
    for tau, lam in ((0.3, 0.6), (0.7, 0.2)):
        e1 = oracles.cf_clean_general_qubit(tau, lam, 0.0, 0.0)
        assert abs(e1 - oracles.cf_clean_steady(2, tau, lam)[0]) <= 1e-12
    assert abs(oracles.cf_clean_general_qubit(0.5, 0.8, 0.0, 0.0) - 1.0) <= 1e-12


def test_cf_general_entropy_minimised_at_multiples_of_pi():
    tau, lam = 0.45, 0.6
    best = oracles.cf_clean_general_qubit(tau, lam, 0.0, 0.0)
    s_best = 2.0 * best * (1.0 - best)
    for chi in np.linspace(0.0, np.pi, 21):
        for phi1 in np.linspace(0.0, np.pi, 21):
            e1 = oracles.cf_clean_general_qubit(tau, lam, chi, phi1)
            assert 2.0 * e1 * (1.0 - e1) >= s_best - 1e-12


def test_ad_occupations_values():
    assert abs(oracles.ad_occupations(0.0, 0.5)[2] - 1.0) <= 1e-12
    chi0, chipi2, _, _, _ = oracles.ad_occupations(0.5, 0.37)
    assert abs(chi0 - 0.5) <= 1e-12
    assert abs(chipi2 - 0.5) <= 1e-12


def test_a_side_without_a_unique_steady_state_is_nan():
    # the formula divides by zero there; the other side keeps its value
    s_mf, s_cf = oracles.eta_entropies(0.0, 1.0, 0.3)
    assert s_mf == 0.0 and np.isnan(s_cf)
    assert all(np.isnan(oracles.eta_entropies(1.0, 1.0, 0.3)))
    chi0, chipi2, mf, _, _ = oracles.ad_occupations(0.0, 0.0)
    assert np.isnan(chi0) and (chipi2, mf) == (0.5, 1.0)
    assert all(np.isnan(oracles.ad_occupations(1.0, 0.0)[:3]))


def test_ad_mf_beats_chipi2_everywhere():
    for tau in np.linspace(0.03, 0.97, 20):
        for gamma in np.linspace(0.03, 0.97, 20):
            _, chipi2, mf, _, _ = oracles.ad_occupations(tau, gamma)
            assert mf >= chipi2 - 1e-12


def test_ad_monotonicities():
    # chi=0 occupation decreases with damping for tau > 1/2;
    # chi=pi/2 occupation increases with damping for tau < 1/2
    gammas = np.linspace(0.05, 0.95, 19)
    for tau in (0.6, 0.8):
        vals = [oracles.ad_occupations(tau, g)[0] for g in gammas]
        assert np.all(np.diff(vals) < 1e-12)
    for tau in (0.2, 0.4):
        vals = [oracles.ad_occupations(tau, g)[1] for g in gammas]
        assert np.all(np.diff(vals) > -1e-12)


def test_ad_crossover_separates_regimes():
    for gamma in (0.3, 0.6, 0.9):
        tstar = oracles.ad_occupations(0.5, gamma)[3]
        if 0.0 < tstar < 1.0:
            below = oracles.ad_occupations(tstar - 1e-4, gamma)
            above = oracles.ad_occupations(tstar + 1e-4, gamma)
            assert below[0] - below[2] < 0.0
            assert above[0] - above[2] > 0.0


def test_bitflip_reductions():
    assert abs(oracles.bitflip_fidelity(0.3, 0.5, 0.5) - 0.8) <= 1e-12
    assert abs(oracles.bitflip_fidelity(0.3, 1.0, 0.0) - (2.0 / 3.0 - 0.1)) <= 1e-12
    for tau in np.linspace(0, 1, 11):
        for a in (0.0, 0.3, 1.0):
            assert abs(oracles.bitflip_fidelity(tau, a, a) - (1.0 - 2.0 * tau / 3.0)) <= 1e-12


def test_bitflip_maximised_on_diagonal():
    tau = 0.5
    grid = np.linspace(0.0, 1.0, 21)
    diag_max = max(oracles.bitflip_fidelity(tau, a, a) for a in grid)
    for a in grid:
        for b in grid:
            if a != b:
                assert oracles.bitflip_fidelity(tau, a, b) < diag_max + 1e-12


def test_conditional_cooling_limits():
    # full swap: the re-prepared pure controller lands on the system exactly
    p0, a00, a01 = oracles.conditional_cooling(2, 0.0, 0.5, 0.7)
    alpha_lam = 0.5 * 0.7 + 0.25
    assert abs(p0 - alpha_lam) <= 1e-12
    assert abs(a00 - 1.0) <= 1e-12
    assert abs(a01 - 1.0) <= 1e-12
    # no interaction: outcomes are uniform and the state keeps its noisy value
    p0, a00, a01 = oracles.conditional_cooling(2, 1.0, 0.5, 0.7)
    assert abs(p0 - 0.5) <= 1e-12
    assert abs(a00 - alpha_lam) <= 1e-12
    assert abs(a01 - alpha_lam) <= 1e-12


def test_conditional_cooling_mixture_identity():
    rng = np.random.default_rng(2)
    for _ in range(100):
        d = int(rng.integers(2, 6))
        tau, lam = rng.uniform(0.02, 0.98, 2)
        alpha_in = rng.uniform(1.0 / d + 1e-3, 0.999)
        p0, a00, a01 = oracles.conditional_cooling(d, tau, lam, alpha_in)
        alpha_lam = lam * alpha_in + (1.0 - lam) / d
        uncond = tau * tau * alpha_lam + tau * (1.0 - tau) / d + (1.0 - tau)
        assert abs(p0 * a00 + (1.0 - p0) * a01 - uncond) <= 1e-12


def test_range_checks():
    with pytest.raises(ValueError):
        oracles.mf_noisy_steady(2, 1.2, 0.5)
    with pytest.raises(ValueError):
        oracles.bitflip_fidelity(0.5, 1.1, 0.0)
    with pytest.raises(ValueError):
        oracles.conditional_cooling(2, 0.5, 0.5, 0.3)  # below 1/d


def test_oracles_refuse_points_with_no_unique_answer():
    for call, message in [(lambda: oracles.mf_noisy_steady(2, 1.0, 1.0), "tau = lam = 1 leaves every state steady"),
                          (lambda: oracles.cf_clean_steady(2, 0.0, 1.0), "degenerate parameters: (1-2*tau)**2 * lam = 1"),
                          (lambda: oracles.conditional_cooling(2, 0.0, 1.0, 1.0),
                           "outcome 0 is certain; no other branch exists")]:
        with pytest.raises(ValueError, match=re.escape(message)):
            call()
