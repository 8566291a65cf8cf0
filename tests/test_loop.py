import dataclasses
import itertools
import re
import sys
import tracemalloc

import numpy as np
import pytest

from qfeedback import loop, oracles
from qfeedback.loop import (
    MAX_DIM,
    MAX_THREADS,
    CoherentStage,
    DegenerateSteadyStateError,
    EnsembleResult,
    FeedbackProtocol,
    PovmStage,
    ProjectiveStage,
    _branch_liouvillians,
    _entropy_batch,
    _hygiene_batch,
    _traces,
    all_to_target_stage,
    branch_liouvillians,
    build_superoperator,
    conditional_branches,
    cycle_unconditional,
    iterate_to_fixed_point,
    noise_liouville,
    sample_ensemble,
    stack,
    steady_state,
    steady_states,
    unstack,
)
from qfeedback.metrics import purity, von_neumann_entropy
from qfeedback.quantum import (
    amplitude_damping_channel,
    depolarizing_channel,
    dm,
    identity_channel,
    ket,
    max_abs,
    maximally_mixed,
    partial_swap,
    random_density_matrix,
    random_kraus_channel,
    random_unitary,
)
from qfeedback.scenarios import build_protocols, metric_rows, resolve_config

import reference
from reference import partial_trace


def mf_cooling(d, tau, lam, eta=None):
    return FeedbackProtocol(
        d=d, noise=depolarizing_channel(d, lam), tau1=tau, tau2=tau,
        eta=maximally_mixed(d) if eta is None else eta, stage=all_to_target_stage(d, 0),
    )


def cf(d, tau, lam, eta, v=None):
    return FeedbackProtocol(
        d=d, noise=depolarizing_channel(d, lam), tau1=tau, tau2=tau,
        eta=eta, stage=CoherentStage(np.eye(d, dtype=complex) if v is None else v),
    )


def random_protocol(d, rng):
    """Random MF protocol: projective or POVM stage, random couplings and noise."""
    if rng.random() < 0.5:
        stage = ProjectiveStage(feedback=tuple(random_unitary(d, rng) for _ in range(d)))
    else:
        stage = PovmStage(kraus=random_kraus_channel(d, 3, rng).kraus)
    return FeedbackProtocol(
        d=d, noise=depolarizing_channel(d, rng.uniform(0.1, 1.0)),
        tau1=rng.uniform(0, 1), tau2=rng.uniform(0, 1),
        eta=random_density_matrix(d, rng), stage=stage,
    )


def test_no_interaction_cycle_is_identity():
    rng = np.random.default_rng(0)
    p = cf(2, 1.0, 1.0, maximally_mixed(2))
    rho = random_density_matrix(2, rng)
    assert max_abs(cycle_unconditional(rho, p) - rho) <= 1e-12


def test_perfect_cooling_cycle():
    # full swap, no depolarising: one cycle lands exactly on |0><0|
    rng = np.random.default_rng(1)
    p = mf_cooling(2, 0.0, 1.0)
    for _ in range(5):
        out = cycle_unconditional(random_density_matrix(2, rng), p)
        assert max_abs(out - dm(ket(2, 0))) <= 1e-12


def test_cf_noisy_controller_never_lowers_entropy():
    rng = np.random.default_rng(2)
    for _ in range(100):
        d = int(rng.integers(2, 4))
        p = FeedbackProtocol(
            d=d, noise=depolarizing_channel(d, rng.uniform(0, 0.98)),
            tau1=rng.uniform(0, 1), tau2=rng.uniform(0, 1),
            eta=maximally_mixed(d), stage=CoherentStage(random_unitary(d, rng)),
        )
        rho = random_density_matrix(d, rng)
        assert von_neumann_entropy(cycle_unconditional(rho, p)) >= von_neumann_entropy(rho) - 1e-10


def test_superoperator_identity_cycle():
    p = cf(2, 1.0, 1.0, maximally_mixed(2))
    s = build_superoperator(p)
    assert max_abs(s.matrix - np.eye(4)) <= 1e-12


def test_superoperator_depolarize_only_spectrum():
    p = cf(2, 1.0, 1.0, maximally_mixed(2), v=None)
    p = FeedbackProtocol(d=2, noise=depolarizing_channel(2, 0.35), tau1=1.0, tau2=1.0,
                         eta=maximally_mixed(2), stage=CoherentStage(np.eye(2)))
    s = build_superoperator(p)
    evals = np.sort(np.abs(np.linalg.eigvals(s.matrix)))[::-1]
    assert np.allclose(evals, [1.0, 0.35, 0.35, 0.35], atol=1e-10)


def test_superoperator_matches_cycle_on_random_states():
    rng = np.random.default_rng(3)
    for _ in range(10):
        d = int(rng.integers(2, 4))
        p = random_protocol(d, rng)
        s = build_superoperator(p)
        rho = random_density_matrix(d, rng)
        assert max_abs(s.apply(rho) - cycle_unconditional(rho, p)) <= 1e-10


def test_superoperator_unit_spectral_radius():
    rng = np.random.default_rng(4)
    for _ in range(10):
        p = random_protocol(2, rng)
        s = build_superoperator(p)
        lead = np.max(np.abs(np.linalg.eigvals(s.matrix)))
        assert abs(lead - 1.0) <= 1e-9


def test_superoperator_trace_preservation_vector():
    rng = np.random.default_rng(5)
    p = random_protocol(3, rng)
    s = build_superoperator(p)
    left = stack(np.eye(3)) @ s.matrix
    assert max_abs(left - stack(np.eye(3))) <= 1e-10


def test_steady_state_cf_noisy_is_maximally_mixed():
    rng = np.random.default_rng(6)
    p = cf(2, 0.4, 0.7, maximally_mixed(2), v=random_unitary(2, rng))
    rho, gap = steady_state(p)
    assert max_abs(rho - maximally_mixed(2)) <= 1e-9
    assert gap > 1e-6


def test_steady_state_spot_value_both_paths():
    p = mf_cooling(2, 0.5, 0.5)
    rho, gap = steady_state(p)
    spectrum = np.sort(np.linalg.eigvalsh(rho))[::-1]
    assert np.allclose(spectrum, [0.7857142857, 0.2142857143], atol=1e-9)
    rho_iter = iterate_to_fixed_point(maximally_mixed(2), p, 1000)
    assert max_abs(rho - rho_iter) <= 1e-9
    assert gap > 1e-6


def test_steady_state_cf_clean_half_tau_is_pure():
    rho, gap = steady_state(cf(2, 0.5, 0.3, dm(ket(2, 0))))
    assert purity(rho) >= 1.0 - 1e-9
    assert gap > 1e-6


def test_steady_state_degenerate_raises():
    p = cf(2, 1.0, 1.0, maximally_mixed(2))
    with pytest.raises(DegenerateSteadyStateError):
        steady_state(p)


def test_gap_positive_for_preset_scenarios():
    scenarios = [
        mf_cooling(2, 0.5, 0.5),
        mf_cooling(3, 0.75, 0.9),
        cf(2, 0.5, 0.3, dm(ket(2, 0))),
        cf(2, 0.3, 0.7, maximally_mixed(2)),
        mf_cooling(2, 0.5, 0.5, eta=dm(ket(2, 0))),
    ]
    for p in scenarios:
        _, gap = steady_state(p)
        assert gap > 1e-6


def test_unconditional_equals_branch_average():
    rng = np.random.default_rng(7)
    for _ in range(20):
        d = int(rng.integers(2, 4))
        p = random_protocol(d, rng)
        rho = random_density_matrix(d, rng)
        branches = conditional_branches(rho, p)
        mix = sum(prob * state for prob, state in branches)
        assert max_abs(mix - cycle_unconditional(rho, p)) <= 1e-12


def test_measurement_basis_irrelevant_for_unconditional_cooling():
    # with a maximally mixed controller and every outcome mapped to the same
    # target, the averaged cycle does not depend on the measurement basis
    rng = np.random.default_rng(12)
    from qfeedback.quantum import unitary_mapping

    for _ in range(10):
        tau, lam = rng.uniform(0.1, 0.9, 2)
        b = random_unitary(2, rng)
        fb = tuple(unitary_mapping(b[:, j], ket(2, 0)) for j in range(2))
        rotated = FeedbackProtocol(2, depolarizing_channel(2, lam), tau, tau,
                                   maximally_mixed(2), ProjectiveStage(feedback=fb, basis=b))
        reference = mf_cooling(2, tau, lam)
        rho = random_density_matrix(2, rng)
        assert max_abs(cycle_unconditional(rho, rotated) - cycle_unconditional(rho, reference)) <= 1e-12


def test_cf_equals_infinitely_weak_povm():
    rng = np.random.default_rng(8)
    for _ in range(10):
        v = random_unitary(2, rng)
        eta = random_density_matrix(2, rng)
        tau1, tau2 = rng.uniform(0, 1, 2)
        p_cf = FeedbackProtocol(2, depolarizing_channel(2, 0.6), tau1, tau2, eta, CoherentStage(v))
        p_povm = FeedbackProtocol(2, depolarizing_channel(2, 0.6), tau1, tau2, eta,
                                  PovmStage(kraus=(v / np.sqrt(2), v / np.sqrt(2))))
        rho = random_density_matrix(2, rng)
        assert max_abs(cycle_unconditional(rho, p_cf) - cycle_unconditional(rho, p_povm)) <= 1e-12


def test_perfect_cooling_trajectory():
    # the state after step k depends only on the first k draws of the (seed, i)
    # stream, so the k-step run ends in the state at step k
    p = mf_cooling(2, 0.0, 1.0)
    for k in range(1, 11):
        ens = sample_ensemble(maximally_mixed(2), p, k, n_traj=1, seed=0)
        assert max_abs(ens.final_states[0] - dm(ket(2, 0))) <= 1e-12
        assert ens.entropies[0, -1] <= 1e-12


def test_trajectory_seed_reproducibility():
    p = mf_cooling(2, 0.5, 0.5)
    a = sample_ensemble(maximally_mixed(2), p, 30, n_traj=1, seed=13)
    b = sample_ensemble(maximally_mixed(2), p, 30, n_traj=1, seed=13)
    assert np.array_equal(a.outcomes, b.outcomes)
    assert max_abs(a.final_states - b.final_states) == 0.0


def test_trajectory_arrays_hold_one_column_per_step():
    p = mf_cooling(2, 0.5, 0.5)
    ens = sample_ensemble(maximally_mixed(2), p, 5, n_traj=1, seed=3)
    for a in (ens.outcomes, ens.probabilities, ens.entropies, ens.rho11):
        assert a.shape == (1, 5)
    assert np.all((ens.probabilities >= 0.0) & (ens.probabilities <= 1.0))


def test_cf_trajectory_is_deterministic():
    p = cf(2, 0.3, 0.8, maximally_mixed(2))
    ens = sample_ensemble(maximally_mixed(2), p, 5, n_traj=1, seed=1)
    assert np.all(ens.outcomes == 0)
    assert np.all(np.abs(ens.probabilities - 1.0) <= 1e-12)


def _reference_trajectory(rho0, p, steps, seed, i):
    """Trajectory i, one state at a time: inverse CDF over conditional_branches
    with the uniforms of the (seed, i) stream."""
    rho, outcomes, probs, entropies = rho0, [], [], []
    for u in np.random.default_rng((seed, i)).random(steps):
        branches = conditional_branches(rho, p)
        cum = np.cumsum([q for q, _ in branches])
        j = min(int(np.sum(u * cum[-1] >= cum)), len(branches) - 1)
        q, rho = branches[j]
        outcomes.append(j)
        probs.append(q)
        entropies.append(von_neumann_entropy(rho, normalised=True))
    return outcomes, probs, entropies, rho


def test_ensemble_matches_single_trajectories():
    p = mf_cooling(2, 0.6, 0.4)
    rho0 = maximally_mixed(2)
    ens = sample_ensemble(rho0, p, 25, n_traj=4, seed=99)
    for i in range(4):
        outcomes, probs, entropies, final = _reference_trajectory(rho0, p, 25, 99, i)
        assert np.array_equal(ens.outcomes[i], outcomes)
        assert np.allclose(ens.probabilities[i], probs, atol=1e-13)
        assert np.allclose(ens.entropies[i], entropies, atol=1e-12)
        assert max_abs(ens.final_states[i] - final) <= 1e-13


def _ensemble_row_by_row(rho0, p, steps, n_traj, seed, check_majorization=False):
    """sample_ensemble without the distinct-value step: every step contracts,
    cleans and checks each row on its own, with the library's own batch
    helpers."""
    d, n_out = p.d, len(p.L)
    uniforms = np.stack([np.random.default_rng((seed, i)).random(steps) for i in range(n_traj)])
    idx = np.arange(n_traj)
    vecs = np.broadcast_to(stack(rho0), (n_traj, d * d))
    mids = _branch_liouvillians(p, 1.0)
    out = EnsembleResult(*(np.empty((n_traj, steps), dtype) for dtype in (np.int64, float, float, float)),
                         final_states=None)
    worst = -np.inf
    for t in range(steps):
        outs = np.einsum("jab,nb->jna", p.L, vecs)
        probs = _traces(outs, d).T
        cum = np.cumsum(probs, axis=1)
        u = uniforms[:, t] * cum[:, -1]
        chosen = np.clip((u[:, None] >= cum).sum(axis=1), 0, n_out - 1)
        pj = probs[idx, chosen]
        states, spectra = _hygiene_batch(unstack(outs[chosen, idx] / pj[:, None], d))
        rho_j = unstack(np.einsum("nab,nb->na", mids[chosen], vecs) / pj[:, None], d)
        w_mid = np.sort(np.linalg.eigvalsh(0.5 * (rho_j + np.conj(np.swapaxes(rho_j, 1, 2)))), axis=1)[:, ::-1]
        bound = p.tau2 * w_mid
        bound[:, 0] += 1.0 - p.tau2
        viol = np.cumsum(np.sort(spectra, axis=1)[:, ::-1], axis=1) - np.cumsum(bound, axis=1)
        worst = max(worst, float(viol.max()))
        out.outcomes[:, t], out.probabilities[:, t] = chosen, pj
        out.entropies[:, t], out.rho11[:, t] = _entropy_batch(spectra, d), states[:, 1, 1].real
        vecs = stack(states)
    out.final_states = states
    out.majorization_violation = worst if check_majorization else None
    return out


def _assert_same_ensemble(a, b):
    for f in dataclasses.fields(EnsembleResult):
        x, y = getattr(a, f.name), getattr(b, f.name)
        assert np.array_equal(x, y) and np.asarray(x).dtype == np.asarray(y).dtype, f.name


def test_ensemble_thread_invariance():
    p = mf_cooling(2, 0.5, 0.5)
    a = sample_ensemble(maximally_mixed(2), p, 15, 31, seed=5, threads=1)
    _assert_same_ensemble(a, _ensemble_row_by_row(maximally_mixed(2), p, 15, 31, seed=5))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # the workers fill disjoint rows of shared arrays: switch threads often
    try:
        b = sample_ensemble(maximally_mixed(2), p, 15, 31, seed=5, threads=4)
    finally:
        sys.setswitchinterval(interval)
    assert np.array_equal(a.outcomes, b.outcomes)
    assert np.array_equal(a.probabilities, b.probabilities)
    assert np.array_equal(a.final_states, b.final_states)
    for k in (1, 7, 16):
        c = sample_ensemble(maximally_mixed(2), p, 15, k, seed=5, threads=4)
        assert np.array_equal(a.outcomes[:k], c.outcomes)
        assert np.array_equal(a.probabilities[:k], c.probabilities)
        assert np.array_equal(a.final_states[:k], c.final_states)


@pytest.mark.parametrize("check_majorization", [False, True], ids=["plain", "majorization"])
@pytest.mark.parametrize("n_traj", [1, 7, 31])
@pytest.mark.parametrize("scenario, d, merges", [("mf-clean-cooling", 2, True), ("ad-mf", 2, False),
                                                 ("mf-noisy-cooling", 3, False)])
def test_distinct_value_step_equals_a_step_per_row(monkeypatch, scenario, d, merges, n_traj, check_majorization):
    """The ensemble steps each distinct state and (state, outcome) pair once:
    its arrays are bit for bit those of a step per row. mf-clean-cooling
    merges states at every step; at d=3 more than half the states soon differ
    and the step goes back to one row at a time for good."""
    calls, distinct = [], loop._distinct_rows

    def distinct_rows(x):
        rows, inverse = distinct(x)
        calls.append((len(x), len(rows)))
        return rows, inverse

    monkeypatch.setattr(loop, "_distinct_rows", distinct_rows)
    p = build_protocols(resolve_config({}, {"scenario": scenario, "d": d, "tau": 0.3, "lambda": 0.7, "gamma": 0.4}))
    rho0, steps = maximally_mixed(d), 15
    reference = _ensemble_row_by_row(rho0, p["mf"], steps, n_traj, seed=5, check_majorization=check_majorization)
    for threads in (3, 1):
        calls.clear()
        ens = sample_ensemble(rho0, p["mf"], steps, n_traj, seed=5, threads=threads,
                              check_majorization=check_majorization)
        _assert_same_ensemble(ens, reference)
        if n_traj == 31:  # one pass over the whole ensemble, whatever the number of workers
            assert (len(calls) == steps and any(m < k for k, m in calls)) if merges else len(calls) < steps


@pytest.mark.parametrize("scenario, d, pooled", [("mf-clean-cooling", 2, False), ("mf-noisy-cooling", 3, True)])
def test_the_pool_starts_only_after_the_distinct_value_steps(monkeypatch, scenario, d, pooled):
    """mf-clean-cooling stays on distinct values to the last step and starts no
    pool; at d=3 more than half the states soon differ and the rest of the run
    is chunked across the workers."""
    started = []

    class Pool(loop.ThreadPoolExecutor):
        def __init__(self, max_workers):
            started.append(max_workers)
            super().__init__(max_workers)

    p = build_protocols(resolve_config({}, {"scenario": scenario, "d": d, "tau": 0.3, "lambda": 0.7}))["mf"]
    reference = sample_ensemble(maximally_mixed(d), p, 15, 31, seed=5, threads=1)
    monkeypatch.setattr(loop, "ThreadPoolExecutor", Pool)
    ens = sample_ensemble(maximally_mixed(d), p, 15, 31, seed=5, threads=3)
    assert started == ([3] if pooled else [])
    _assert_same_ensemble(ens, reference)


def test_more_threads_than_the_limit_are_refused(monkeypatch):
    monkeypatch.setattr(loop, "ThreadPoolExecutor", lambda *args, **kwargs: pytest.fail("a pool started"))
    with pytest.raises(ValueError, match=f"threads must be at most {MAX_THREADS}, got {MAX_THREADS + 1}"):
        sample_ensemble(maximally_mixed(2), mf_cooling(2, 0.5, 0.5), 3, 4, seed=0, threads=MAX_THREADS + 1)


@pytest.mark.parametrize("start", [0, 990, 10 ** 7 - 3])
@pytest.mark.parametrize("seed", [0, 1, 7, 12345, 2 ** 31 - 1, 2 ** 32 - 1, 2 ** 32, 2 ** 40 + 3, 2 ** 70 + 5,
                                  2 ** 130 + 9])
def test_streams_are_the_ones_numpy_draws(seed, start):
    """The trajectory streams are computed in closed form: if numpy's SeedSequence
    or PCG64 changes, this fails rather than the ensembles changing silently.
    2**130 + 9 has five 32-bit words and runs SeedSequence's remaining-entropy loop."""
    n, steps = 12, 9
    streams = loop._streams(seed, start, start + n)
    drawn = np.stack([loop._uniforms(streams) for _ in range(steps)], axis=1)
    expected = np.stack([np.random.default_rng((seed, i)).random(steps) for i in range(start, start + n)])
    assert np.array_equal(drawn, expected)


@pytest.mark.parametrize("seed, start, message", [(-1, 0, "seed must be non-negative, got -1"),
                                                  (0, 2 ** 32, r"trajectory index must be below 2\*\*32, got 4294967296")])
def test_streams_refuse_a_negative_seed_and_an_index_beyond_one_word(seed, start, message):
    with pytest.raises(ValueError, match=message):
        loop._streams(seed, start, start + 1)


def test_ensemble_refuses_a_negative_seed():
    with pytest.raises(ValueError, match="seed must be non-negative, got -1"):
        sample_ensemble(maximally_mixed(2), mf_cooling(2, 0.5, 0.5), 3, 4, seed=-1)


# the contraction order numpy's optimize=True picks for the hygiene einsum at every n and d
HYGIENE_PATH = ["einsum_path", (0, 1), (0, 1)]


@pytest.mark.parametrize("d", [2, 3, 4, 8, 16])
@pytest.mark.parametrize("n", [1, 7, 1000])
def test_hygiene_path_is_the_one_numpy_chooses(n, d):
    """Hygiene rebuilds each state as V diag(w) V^H by one batched matmul, which
    gives the bits of the einsum "nij,nj,nkj->nik" on the path numpy's
    optimize=True picks. If numpy would now choose another path, or hygiene
    stops matching that einsum bit for bit (-0.0 included), this fails rather
    than the ensemble's bits changing silently."""
    rng = np.random.default_rng(n * d)
    v = rng.normal(size=(n, d, d)) + 1j * rng.normal(size=(n, d, d))
    w = rng.random((n, d))
    operands = ("nij,nj,nkj->nik", v, w, v.conj())
    assert np.einsum_path(*operands, optimize=True)[0] == HYGIENE_PATH
    states = np.einsum(*operands, optimize=HYGIENE_PATH)
    assert np.array_equal(states, np.einsum(*operands, optimize=True))
    states /= np.trace(states, axis1=1, axis2=2)[:, None, None]
    w, v = np.linalg.eigh(0.5 * (states + np.conj(np.swapaxes(states, -1, -2))))
    w = np.clip(w, 0.0, None)
    w /= w.sum(axis=-1, keepdims=True)
    cleaned, spectra = _hygiene_batch(states)
    assert np.array_equal(spectra, w)
    expected = np.einsum("nij,nj,nkj->nik", v, w, v.conj(), optimize=HYGIENE_PATH)
    assert np.array_equal(cleaned.view(np.uint64), expected.view(np.uint64))


@pytest.mark.parametrize("steps, n_traj", [(0, 5), (5, 0), (-1, 5)])
def test_empty_ensemble_is_refused(steps, n_traj):
    with pytest.raises(ValueError, match="at least 1"):
        sample_ensemble(maximally_mixed(2), mf_cooling(2, 0.5, 0.5), steps, n_traj, seed=0)


@pytest.mark.parametrize("run", [lambda rho, p: conditional_branches(rho, p),
                                 lambda rho, p: sample_ensemble(rho, p, 3, 4, seed=0)],
                         ids=["conditional_branches", "sample_ensemble"])
def test_initial_state_of_the_wrong_dimension_is_refused(run):
    with pytest.raises(ValueError, match=r"state shape \(3, 3\) does not match protocol d=2"):
        run(maximally_mixed(3), mf_cooling(2, 0.5, 0.5))


def test_batched_build_matches_one_protocol_at_a_time():
    rng = np.random.default_rng(12)
    for d in (2, 3):
        protocols = [random_protocol(d, rng) for _ in range(4)]
        # a pure reset state needs fewer Kraus terms: the batch splits by the support of η
        protocols += [FeedbackProtocol(d, depolarizing_channel(d, 0.4), 0.3, 0.8, dm(ket(d, 1)), protocols[0].stage)]
        protocols = [p for p in protocols if p.n_outcomes == protocols[0].n_outcomes]
        batch = branch_liouvillians([p.tau1 for p in protocols], [p.tau2 for p in protocols],
                                    np.stack([p.eta for p in protocols]),
                                    np.stack([np.stack(p.stage.controller_ops(d)) for p in protocols]),
                                    np.stack([noise_liouville(p.noise) for p in protocols]))
        for p, L in zip(protocols, batch):
            assert np.array_equal(L, p.L)


def test_batched_build_checks_every_point():
    p = mf_cooling(2, 0.5, 0.5)
    ops, noise = np.stack(p.stage.controller_ops(2))[None], noise_liouville(p.noise)[None]
    eta = np.stack([maximally_mixed(2)] * 2)
    with pytest.raises(ValueError, match=r"tau2 must be in \[0,1\], got 1.5"):
        branch_liouvillians([0.5, 0.5], [0.5, 1.5], eta, ops.repeat(2, 0), noise.repeat(2, 0))
    with pytest.raises(ValueError, match="controller reset state has trace"):
        branch_liouvillians([0.5, 0.5], [0.5, 0.5], eta * [[[1.0]], [[2.0]]], ops.repeat(2, 0), noise.repeat(2, 0))



def _bits(a):
    """The raw words of a complex array, so that -0.0 and +0.0 differ."""
    return np.ascontiguousarray(a).view(np.uint64)


def _reset_states(d, rng):
    """η pure (one exact nonzero eigenvalue), maximally mixed, random mixed and,
    for d > 2, rank-deficient but not pure."""
    etas = {"pure": dm(ket(d, 1)), "maximally-mixed": maximally_mixed(d), "mixed": random_density_matrix(d, rng)}
    if d > 2:
        etas["rank-deficient"] = np.diag([0.6, 0.4] + [0.0] * (d - 2)).astype(complex)
    return etas


@pytest.mark.parametrize("d", [2, 3, 4, 8, 16])
def test_blocked_build_is_bitwise_the_four_outer_products(d):
    """The blocked kernel writes L with the bits of the former whole-stack
    expression (`reference.branch_liouvillians`), signed zeros included, for J = 1
    (a coherent stage) and J = d (a projective stage, whose operators hold exact
    zeros, and a POVM), every kind of η and τ₁, τ₂ in {0, 1/2, 1, random}: the 16
    pairs are the points of one batch, or at d = 16 four single-point builds in
    which each value appears once as τ₁ and once as τ₂."""
    rng = np.random.default_rng(220 + d)
    stages = {"coherent": CoherentStage(random_unitary(d, rng)), "projective": all_to_target_stage(d, 1)}
    if d < 16:
        stages["povm"] = PovmStage(kraus=random_kraus_channel(d, d, rng).kraus)
    noise = noise_liouville(depolarizing_channel(d, rng.uniform(0.1, 1.0)))
    values = [0.0, 0.5, 1.0, rng.uniform(0.0, 1.0)]
    taus = list(itertools.product(values, values))
    for (sn, stage), (en, eta) in itertools.product(stages.items(), _reset_states(d, rng).items()):
        ops = np.stack(stage.controller_ops(d))
        calls = [taus] if d < 16 else [[(values[i], values[(i + 1) % 4])] for i in range(4)]
        for points in calls:
            args = ([t1 for t1, _ in points], [t2 for _, t2 in points], np.stack([eta] * len(points)),
                    np.stack([ops] * len(points)), np.stack([noise] * len(points)))
            got = branch_liouvillians(*args)
            assert np.array_equal(_bits(got), _bits(reference.branch_liouvillians(*args))), f"{sn}/{en}/{points}"


@pytest.mark.parametrize("pairs_per_block", [None, 1, 2, 7])
def test_blocked_build_is_bitwise_the_reference_in_any_block(monkeypatch, pairs_per_block):
    """One batch whose points interleave four η supports, built with blocks of one
    pair, two pairs (an outcome of each d = 3 point left over) and seven pairs (two
    whole points; the five full-support points leave one over) as well as the
    shipped budget, is bit for bit the reference."""
    d, rng = 3, np.random.default_rng(2208)
    if pairs_per_block is not None:  # the temporaries of one pair at full support, as the kernel counts them
        monkeypatch.setattr(loop, "BUILD_BLOCK_BYTES", pairs_per_block * 16 * (4 * d ** 3 * d + 3 * d ** 4))
    etas = _reset_states(d, rng)
    kinds = ["maximally-mixed", "pure", "mixed", "rank-deficient", "maximally-mixed", "pure", "mixed", "mixed"]
    eta = np.stack([etas[k] for k in kinds])
    ops = np.stack([np.stack(random_kraus_channel(d, d, rng).kraus) for _ in kinds])
    noise = np.stack([noise_liouville(depolarizing_channel(d, lam)) for lam in rng.uniform(0.1, 1.0, len(kinds))])
    args = (rng.uniform(0, 1, len(kinds)), rng.uniform(0, 1, len(kinds)), eta, ops, noise)
    assert np.array_equal(_bits(branch_liouvillians(*args)), _bits(reference.branch_liouvillians(*args)))


def _traced_peak(build):
    """What `build()` returns and the peak of the memory traced while it ran."""
    tracemalloc.start()
    try:
        return build(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_build_memory_stays_near_the_stack():
    """The blocked build holds its temporaries to one block: a d = 16
    `mf-noisy-cooling` protocol peaks below twice its L (16.8 MB), and a 21-point
    d = 8 sweep block below 1.5 times its stacks (11.0 MB). The whole-stack
    build peaked at 71.7 and 47.6 MB."""
    cfg = resolve_config({"scenario": "mf-noisy-cooling", "d": 16, "tau": 0.3, "lambda": 0.5})
    p, peak = _traced_peak(lambda: build_protocols(cfg)["mf"])
    assert peak < 2 * p.L.nbytes
    cfgs = [resolve_config({"scenario": "mf-noisy-cooling", "d": 8, "tau": t, "lambda": 0.5})
            for t in np.linspace(0.1, 0.9, 21).tolist()]
    rows, peak = _traced_peak(lambda: metric_rows(cfgs))
    assert len(rows) == 21 and peak < 1.5 * 21 * 8 * 16 * 8 ** 4  # 21 stacks of eight 64 x 64 complex matrices


def test_projective_stage_names_the_first_failing_feedback_unitary():
    """The feedback unitaries are checked as one stack; a refusal names the first that fails."""
    eye = np.eye(3)
    with pytest.raises(ValueError, match=re.escape("feedback unitary 1 is not unitary: max|U†U - 1| = 2.100e-01")):
        ProjectiveStage((eye, 1.1 * eye, np.full((3, 3), np.nan))).controller_ops(3)
    with pytest.raises(ValueError, match=re.escape("feedback unitary 2 is not unitary: max|U†U - 1| = nan")):
        ProjectiveStage((eye, eye, np.diag([np.nan, 1.0, 1.0]))).controller_ops(3)
    with pytest.raises(ValueError, match=re.escape("feedback unitary 1 must be 3x3, got (2, 2)")):
        ProjectiveStage((eye, np.eye(2), 1.1 * eye)).controller_ops(3)
    with pytest.raises(ValueError, match=re.escape("feedback unitary 1 is not unitary: max|U†U - 1| = 2.100e-01")):
        ProjectiveStage((eye, 1.1 * eye, np.eye(2))).controller_ops(3)
    with pytest.raises(ValueError, match=re.escape("feedback unitary 0 must be 3x3, got (3,)")):
        ProjectiveStage((np.ones(3), 1.1 * eye, eye)).controller_ops(3)


def test_protocol_refuses_a_nan_unitary_and_a_reset_state_of_another_size():
    with pytest.raises(ValueError, match=re.escape("in-loop unitary is not unitary: max|U†U - 1| = nan")):
        cf(2, 0.5, 0.5, maximally_mixed(2), v=np.diag([np.nan, 1.0]))
    with pytest.raises(ValueError, match=re.escape("controller reset state shape (3, 3) != (2,2)")):
        cf(2, 0.5, 0.5, maximally_mixed(3))


def test_batched_steady_states_flag_each_degenerate_point():
    points = [cf(2, 1.0, 1.0, maximally_mixed(2)), mf_cooling(2, 0.5, 0.5), cf(2, 0.4, 0.7, dm(ket(2, 0)))]
    states, second, degenerate = steady_states(np.stack([build_superoperator(p).matrix for p in points]), 2)
    assert degenerate.tolist() == [True, False, False]
    assert np.isnan(states[0]).all()
    for p, rho, lam2 in zip(points[1:], states[1:], second[1:]):
        rho_1, gap = steady_state(p)
        assert np.array_equal(rho, rho_1) and gap == 1.0 - lam2
    with pytest.raises(DegenerateSteadyStateError, match="second eigenvalue magnitude 1.000000000000"):
        steady_state(points[0])


def test_conditional_branch_eigenvalues_match_formulas():
    rng = np.random.default_rng(9)
    for _ in range(20):
        d = int(rng.integers(2, 4))
        tau, lam = rng.uniform(0.1, 0.9, 2)
        alpha_in = rng.uniform(1.0 / d + 0.01, 0.98)
        rho = np.diag([alpha_in] + [(1 - alpha_in) / (d - 1)] * (d - 1)).astype(complex)
        branches = conditional_branches(rho, mf_cooling(d, tau, lam))
        p0, a00, a01 = oracles.conditional_cooling(d, tau, lam, alpha_in)
        assert abs(branches[0][0] - p0) <= 1e-10
        assert abs(np.linalg.eigvalsh(branches[0][1])[-1] - a00) <= 1e-10
        assert abs(np.linalg.eigvalsh(branches[1][1])[-1] - a01) <= 1e-10


def test_ensemble_majorization_check_holds_for_cooling():
    p = mf_cooling(2, 0.5, 0.5)
    ens = sample_ensemble(maximally_mixed(2), p, 50, 100, seed=2, check_majorization=True)
    assert ens.majorization_violation <= 1e-9


def test_protocol_validation():
    with pytest.raises(ValueError):
        FeedbackProtocol(2, depolarizing_channel(2, 0.5), 1.2, 0.5,
                         maximally_mixed(2), CoherentStage(np.eye(2)))
    with pytest.raises(ValueError):
        FeedbackProtocol(2, depolarizing_channel(2, 0.5), 0.5, 0.5,
                         maximally_mixed(2), CoherentStage(np.diag([1.0, 2.0])))
    with pytest.raises(ValueError):
        FeedbackProtocol(3, depolarizing_channel(2, 0.5), 0.5, 0.5,
                         maximally_mixed(3), CoherentStage(np.eye(3)))


@pytest.mark.parametrize("tau1,tau2,message", [(1.2, 0.5, "tau1 must be in [0,1], got 1.2"),
                                                (0.5, -0.1, "tau2 must be in [0,1], got -0.1")],
                         ids=["tau1", "tau2"])
def test_protocol_names_the_coupling_outside_the_unit_interval(tau1, tau2, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        FeedbackProtocol(2, depolarizing_channel(2, 0.5), tau1, tau2, maximally_mixed(2), CoherentStage(np.eye(2)))


def test_one_dimensional_protocol_has_a_unique_steady_state():
    # d = 1: the cycle superoperator is the 1x1 identity, its only eigenvalue is 1 and the gap is 1
    p = FeedbackProtocol(1, identity_channel(1), 0.5, 0.5, np.eye(1), CoherentStage(np.eye(1)))
    rho, gap = steady_state(p)
    assert rho.shape == (1, 1) and rho[0, 0] == 1.0 and gap == 1.0


def reference_branch_maps(p, tau2):
    """Slow joint-space reference for the per-outcome Liouville matrices: column
    a + d*b of L_j is the image of |a><b| under the noise, the product with η,
    U₁, 1⊗M_j, U₂ (transmissivity tau2) and the controller trace."""
    d = p.d
    eye = np.eye(d)
    maps = []
    for m in p.stage.controller_ops(d):
        g = partial_swap(d, tau2) @ np.kron(eye, m) @ partial_swap(d, p.tau1)
        cols = []
        for b in range(d):
            for a in range(d):
                unit = np.zeros((d, d), dtype=complex)
                unit[a, b] = 1.0
                noisy = sum(k @ unit @ k.conj().T for k in p.noise.kraus)
                joint = g @ np.kron(noisy, p.eta) @ g.conj().T
                cols.append(stack(partial_trace(joint, d, d, keep="A")))
        maps.append(np.column_stack(cols))
    return np.array(maps)


def reference_cases(d, rng):
    """Every stage type, η pure, mixed and rank-deficient, depolarising and
    (for qubits) amplitude-damping noise."""
    stages = {
        "coherent": CoherentStage(random_unitary(d, rng)),
        "projective": ProjectiveStage(feedback=tuple(random_unitary(d, rng) for _ in range(d)),
                                      basis=random_unitary(d, rng)),
        "povm": PovmStage(kraus=random_kraus_channel(d, 3, rng).kraus),
    }
    etas = {
        "pure": dm(random_unitary(d, rng)[:, 0]),
        "mixed": random_density_matrix(d, rng),
        "rank-deficient": np.diag([0.6, 0.4] + [0.0] * (d - 2)).astype(complex) if d > 2 else dm(ket(2, 1)),
    }
    noises = {"depolarising": depolarizing_channel(d, rng.uniform(0.1, 1.0))}
    if d == 2:
        noises["amplitude-damping"] = amplitude_damping_channel(rng.uniform(0.0, 1.0))
    for (sn, stage), (en, eta), (nn, noise) in itertools.product(stages.items(), etas.items(), noises.items()):
        tau1, tau2 = rng.uniform(0, 1, 2)
        yield f"{sn}/{en}/{nn}", FeedbackProtocol(d, noise, tau1, tau2, eta, stage)


@pytest.mark.parametrize("d", [2, 3, 4])
def test_liouville_core_matches_joint_space_reference(d):
    rng = np.random.default_rng(40 + d)
    for name, p in reference_cases(d, rng):
        ref = reference_branch_maps(p, p.tau2)
        assert p.L.shape == ref.shape == (p.n_outcomes, d * d, d * d), name
        assert max_abs(p.L - ref) <= 1e-12, name
        # the pre-U₂ maps behind the majorisation check: no second coupling
        assert max_abs(_branch_liouvillians(p, 1.0) - reference_branch_maps(p, 1.0)) <= 1e-12, name
        left = stack(np.eye(d)) @ p.L.sum(axis=0)
        assert max_abs(left - stack(np.eye(d))) <= 1e-12, name
        probs = [prob for prob, _ in conditional_branches(random_density_matrix(d, rng), p)]
        assert abs(sum(probs) - 1.0) <= 1e-12, name


def test_dimension_above_limit_is_refused():
    d = MAX_DIM + 1
    with pytest.raises(ValueError, match=str(MAX_DIM)):
        FeedbackProtocol(d, identity_channel(d), 0.5, 0.5, maximally_mixed(d),
                         CoherentStage(np.eye(d)))
