import math

import numpy as np
import pytest

from rsp_sim import (
    ALICE_H,
    ALICE_V,
    BOB_H,
    BOB_V,
    CountTable,
    DensityOperator,
    GridSpec,
    ModeMismatchError,
    ScenarioConfig,
    alice_projector,
    chsh_value,
    closed_form_bob_ket,
    component_populations,
    correlation,
    count_table,
    expectation,
    fit_fringe,
    fringe_scan,
    make_fock,
    outcome_kets,
    purity_and_fidelity,
    rsp_mixed,
    rsp_pure,
    sample_count_table,
    sample_counts,
    sample_fringe_scan,
    shared_state,
    tensor,
    to_density,
    white_noise_shared_state,
)
from rsp_sim import PRESETS, analysis, measurement, protocol, scenarios
from rsp_sim.config import EXPERIMENTS
from rsp_sim.analysis import CHSH_SETTINGS
from helpers import angdiff

RNG = np.random.default_rng(271828)

QUBIT_MODES = (ALICE_H, ALICE_V, BOB_H, BOB_V)
SQRT2 = math.sqrt(2.0)
KETS = outcome_kets(2)


def _bob_state(gamma, theta, p=1.0):
    # Bob's n = 2 state after Alice's partial polarizer of strength p
    return rsp_mixed(shared_state(2)[1], alice_projector(gamma, theta), p)[1]


def _qubit_occs(n=2):
    return [
        (1, 0, n, n - 1),
        (1, 0, n - 1, n),
        (0, 1, n, n - 1),
        (0, 1, n - 1, n),
    ]


def _random_qubit_density(rng) -> DensityOperator:
    g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    m = g @ g.conj().T
    m /= np.trace(m).real
    basis = tuple(sorted(_qubit_occs()))
    order = [sorted(_qubit_occs()).index(o) for o in _qubit_occs()]
    permuted = np.zeros_like(m)
    for i, oi in enumerate(order):
        for j, oj in enumerate(order):
            permuted[oi, oj] = m[i, j]
    return DensityOperator(QUBIT_MODES, basis, permuted)


def test_observable_matrices_have_unit_eigenvalues():
    kinds = {**analysis.ALICE_KINDS, **analysis.BOB_KINDS}
    assert sorted(kinds) == ["mu_s", "mu_t", "pi_s", "pi_t"]
    for matrix, _ in kinds.values():
        assert np.allclose(matrix, matrix.conj().T)
        assert np.allclose(np.sort(np.linalg.eigvalsh(matrix)), [-1.0, 1.0])
    _, state = shared_state(2)
    for pair in (("sigma_y", "mu_t"), ("mu_s", "sigma_y"), ("mu_t", "mu_s")):
        with pytest.raises(ValueError):
            correlation(state, *pair, KETS)
        with pytest.raises(ValueError):
            count_table(state, *pair, KETS)


def test_sigma_zz_is_perfectly_anticorrelated():
    # the branches pair Alice-H with the V-heavy Bob component, so the
    # z-type observables anti-correlate on the shared state; sigma_z on Alice
    # is (mu_s - pi_s)/sqrt(2) and sigma_z on Bob is mu_t
    _, state = shared_state(2)
    e_mu, _ = correlation(state, "mu_s", "mu_t", KETS)
    e_pi, _ = correlation(state, "pi_s", "mu_t", KETS)
    assert abs((e_mu - e_pi) / SQRT2 + 1.0) < 1e-12


def test_correlation_on_maximally_mixed_state_vanishes():
    basis = tuple(sorted(_qubit_occs()))
    rho = DensityOperator(QUBIT_MODES, basis, np.eye(4, dtype=complex) / 4.0)
    for pair in (("mu_s", "mu_t"), ("pi_s", "pi_t"), ("mu_s", "pi_t")):
        value, table = correlation(rho, *pair, KETS)
        assert abs(value) < 1e-12
        assert abs(table.correlation()) < 1e-12


def test_diagonal_correlation_value():
    _, state = shared_state(2)
    value, table = correlation(state, "mu_s", "mu_t", KETS)
    assert abs(value + 1.0 / SQRT2) < 1e-12
    assert table == count_table(state, "mu_s", "mu_t", KETS)


def test_correlation_rejects_leaky_states():
    basis = tuple(sorted(_qubit_occs())) + ((1, 0, 3, 0),)
    m = np.zeros((5, 5), dtype=complex)
    for i in range(4):
        m[i, i] = (1.0 - 1e-6) / 4.0
    m[4, 4] = 1e-6
    rho = DensityOperator(QUBIT_MODES, basis, m)
    with pytest.raises(ValueError, match="leak"):
        correlation(rho, "mu_s", "mu_t", KETS)


def test_chsh_reaches_tsirelson_on_shared_state():
    _, state = shared_state(2)
    s_value = chsh_value([correlation(state, s, t, KETS)[0] for s, t in CHSH_SETTINGS])
    assert abs(s_value - 2.0 * SQRT2) < 1e-9


def test_chsh_on_product_state_respects_classical_bound():
    product = tensor(
        make_fock([(ALICE_H, 1), (ALICE_V, 0)]),
        make_fock([(BOB_H, 2), (BOB_V, 1)]),
    )
    product_chsh = chsh_value([correlation(product, s, t, KETS)[0] for s, t in CHSH_SETTINGS])
    assert product_chsh <= 2.0 + 1e-9
    for _ in range(20):
        g = RNG.normal(size=(2, 2)) + 1j * RNG.normal(size=(2, 2))
        a = g @ g.conj().T
        a /= np.trace(a).real
        g = RNG.normal(size=(2, 2)) + 1j * RNG.normal(size=(2, 2))
        b = g @ g.conj().T
        b /= np.trace(b).real
        joint = np.kron(a, b)
        basis = tuple(sorted(_qubit_occs()))
        order = [sorted(_qubit_occs()).index(o) for o in _qubit_occs()]
        permuted = np.zeros_like(joint)
        for i, oi in enumerate(order):
            for j, oj in enumerate(order):
                permuted[oi, oj] = joint[i, j]
        rho = DensityOperator(QUBIT_MODES, basis, permuted)
        rho_chsh = chsh_value([correlation(rho, s, t, KETS)[0] for s, t in CHSH_SETTINGS])
        assert rho_chsh <= 2.0 + 1e-9


def test_chsh_with_white_noise_hits_published_value():
    noisy = white_noise_shared_state(shared_state(2)[1], 0.958)
    s = chsh_value([correlation(noisy, s_kind, t, KETS)[0] for s_kind, t in CHSH_SETTINGS])
    assert abs(s - 0.958 * 2.0 * SQRT2) < 1e-12
    assert abs(s - 2.71) <= 0.09


def test_count_route_equals_operator_route_on_random_states():
    kinds_s = ("mu_s", "pi_s")
    kinds_t = ("mu_t", "pi_t")
    for _ in range(100):
        rho = _random_qubit_density(RNG)
        s_kind = kinds_s[int(RNG.integers(0, 2))]
        t_kind = kinds_t[int(RNG.integers(0, 2))]
        by_counts = count_table(rho, s_kind, t_kind, KETS).correlation()
        by_trace, _ = correlation(rho, s_kind, t_kind, KETS)  # internally cross-checked
        assert abs(by_counts - by_trace) < 1e-12


def test_chsh_via_instrument_angles_only():
    _, state = shared_state(2)
    rho = to_density(state)
    values = []
    for pair in (("mu_s", "mu_t"), ("mu_s", "pi_t"), ("pi_s", "mu_t"), ("pi_s", "pi_t")):
        values.append(count_table(rho, *pair, KETS).correlation())
    s = abs(-values[0] + values[1] + values[2] + values[3])
    assert abs(s - 2.0 * SQRT2) < 1e-9


def test_chsh_scenario_builds_one_count_table_per_setting(monkeypatch):
    calls = []
    original = analysis.count_table

    def counting(*args, **kwargs):
        calls.append(args[1:3])
        return original(*args, **kwargs)

    monkeypatch.setattr(analysis, "count_table", counting)
    record = scenarios.run_scenario(ScenarioConfig(experiment="chsh", shots=100, seed=1))
    assert calls == list(analysis.CHSH_SETTINGS)
    assert record["summary"]["chsh"] == analysis.chsh_value(
        [point["correlation"] for point in record["points"]]
    )


@pytest.mark.parametrize(
    "config,kets",
    [
        (
            ScenarioConfig(
                experiment="mixed_state", gamma=0.3, theta=1.1,
                grid=GridSpec(0.0, 1.0, 41), seed=1,
            ),
            1,
        ),
        (PRESETS["eq10_general_n"], 48),
        (PRESETS["table1_chsh"], 4),
    ],
    ids=["mixed_state-41-points", "eq10_general_n", "table1_chsh"],
)
def test_runners_build_each_alice_setting_once(config, kets, monkeypatch):
    # once per run for a p sweep, once per (gamma, theta) trial, and once
    # per CHSH outcome of Alice's two kinds
    calls = []
    original = protocol.alice_measurement_ket

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(protocol, "alice_measurement_ket", counting)
    scenarios.run_scenario(config)
    assert len(calls) == kets
    assert len(set(calls)) == kets


RUNNER_CONFIGS = {
    "chsh": PRESETS["table1_chsh"],
    "phase_fringe": PRESETS["fig2a"],
    "amplitude_fringe": PRESETS["fig2d"],
    "mixed_state": PRESETS["eq7_mixed_sweep"],
    "populations": PRESETS["fig3_populations"],
    "general_n": PRESETS["eq10_general_n"],
    "distinguishability_demo": ScenarioConfig(
        experiment="distinguishability_demo", n_pairs=3, distinguishability=0.37, seed=1
    ),
}


@pytest.fixture
def shared_state_calls(monkeypatch):
    """Each n that ``protocol.shared_state`` is called with, counted from a
    cold scenario memo."""
    scenarios._shared_state.cache_clear()
    calls = []
    original = protocol.shared_state

    def counting(n):
        calls.append(n)
        return original(n)

    monkeypatch.setattr(protocol, "shared_state", counting)
    return calls


@pytest.mark.parametrize("experiment", EXPERIMENTS)
def test_each_runner_builds_one_shared_state_per_n(experiment, shared_state_calls):
    # the shared state depends only on n, so a process builds it once per n
    config = RUNNER_CONFIGS[experiment]
    scenarios.run_scenario(config)
    if experiment == "general_n":
        sizes = {int(round(v)) for v in config.grid.values()}
    else:
        sizes = {config.n_pairs}
    assert sorted(shared_state_calls) == sorted(sizes)
    # a second run at the same sizes reuses the memo and builds none
    scenarios.run_scenario(config)
    assert sorted(shared_state_calls) == sorted(sizes)


@pytest.mark.parametrize("preset, applies", [("eq10_general_n", 4), ("table1_chsh", 1)])
def test_only_the_splitter_runs_through_apply(preset, applies, shared_state_calls, monkeypatch):
    # Alice's instrument and Bob's analyzer are their Jones columns, so the
    # only evolution a run computes is one split per shared state
    calls = []
    original = protocol.apply

    def counting(u, state):
        calls.append(u.modes)
        return original(u, state)

    monkeypatch.setattr(protocol, "apply", counting)
    scenarios.run_scenario(PRESETS[preset])
    assert len(calls) == applies
    assert set(calls) == {protocol.splitting_unitary().modes}
    # a warm memo leaves no split to compute
    built = len(shared_state_calls)
    scenarios.run_scenario(PRESETS[preset])
    assert (len(calls), len(shared_state_calls)) == (applies, built)


def _count_splits(monkeypatch):
    # (photons in the split basis, measurement) of each on (x) rest split made
    calls = []
    original = measurement._split_on_rest

    def counting(modes, basis, on, what):
        calls.append((sum(basis[0]), what))
        return original(modes, basis, on, what)

    monkeypatch.setattr(measurement, "_split_on_rest", counting)
    return calls


def test_mixed_state_splits_its_shared_state_once(monkeypatch):
    calls = _count_splits(monkeypatch)
    scenarios.run_scenario(
        ScenarioConfig(
            experiment="mixed_state", gamma=0.3, theta=1.1,
            grid=GridSpec(0.0, 1.0, 41), seed=1,
        )
    )
    assert calls == [(4, "POVM")]


def test_general_n_splits_once_per_source_size_and_route(shared_state_calls, monkeypatch):
    # the ket for the sharp projection, its density for the partial polarizer
    calls = _count_splits(monkeypatch)
    config = PRESETS["eq10_general_n"]
    scenarios.run_scenario(config)
    sizes = {int(round(v)) for v in config.grid.values()}
    assert len(calls) == 8
    assert sorted(calls) == sorted(
        (2 * n, what) for n in sizes for what in ("projector", "POVM")
    )
    # a warm run builds no shared state; the memoized ket keeps its
    # projector splits, and only the run's fresh densities are split
    del calls[:], shared_state_calls[:]
    scenarios.run_scenario(config)
    assert shared_state_calls == []
    assert sorted(calls) == sorted((2 * n, "POVM") for n in sizes)


def test_purity_and_fidelity_reject_a_target_of_another_photon_number():
    rho = _bob_state(math.pi / 8, 0.0, 0.9)
    with pytest.raises(ModeMismatchError, match="5 photons"):
        purity_and_fidelity(rho, closed_form_bob_ket(3, math.pi / 8, 0.0))
    purity, fidelity = purity_and_fidelity(rho, closed_form_bob_ket(2, math.pi / 8, 0.0))
    assert abs(fidelity - 0.95) < 1e-12


def test_phase_fringe_zero_offset():
    grid = np.linspace(0.0, 2 * math.pi, 24)
    scan = fringe_scan(_bob_state(math.pi / 8, 0.0), "phase_phi", grid)
    assert abs(scan.fitted_visibility - 1.0) < 1e-9
    assert angdiff(scan.fitted_offset, 0.0) < 1e-9
    for x, prob in zip(scan.grid, scan.probabilities):
        assert abs(prob - 0.5 * (1 + math.cos(x))) < 1e-12


def test_phase_fringe_offset_recovers_theta():
    grid = np.linspace(0.0, 2 * math.pi, 24)
    scan = fringe_scan(_bob_state(math.pi / 8, math.pi / 2), "phase_phi", grid)
    assert angdiff(scan.fitted_offset, math.pi / 2) < 1e-9


@pytest.mark.parametrize("p", [0.0, 0.25, 0.5, 0.938, 1.0])
def test_phase_fringe_visibility_equals_noise_weight(p):
    grid = np.linspace(0.0, 2 * math.pi, 24)
    scan = fringe_scan(_bob_state(math.pi / 8, 0.0, p), "phase_phi", grid)
    assert abs(scan.fitted_visibility - p) < 1e-9
    assert (scan.fitted_offset is None) == (p == 0.0)


def test_amplitude_fringe_peak_location():
    for _ in range(20):
        gamma = float(RNG.uniform(0.0, math.pi / 4))
        grid = np.linspace(0.0, math.pi / 2, 25)
        scan = fringe_scan(_bob_state(gamma, 0.0), "angle_delta", grid)
        peak = (scan.fitted_offset / 4.0) % (math.pi / 2)
        assert angdiff(peak, (math.pi / 4 - gamma) % (math.pi / 2), period=math.pi / 2) < 1e-9
        for x, prob in zip(scan.grid, scan.probabilities):
            assert abs(prob - 0.5 * (1 - math.cos(4 * (x + gamma)))) < 1e-12


def test_fringe_scan_rejects_unknown_axis_and_empty_grid():
    rho = _bob_state(math.pi / 8, 0.0)
    with pytest.raises(ValueError):
        fringe_scan(rho, "nope", [0.0, 1.0, 2.0])
    with pytest.raises(ValueError):
        fringe_scan(rho, "phase_phi", [])


def test_fit_fringe_recovers_synthetic_parameters():
    grid = np.linspace(0.0, 2 * math.pi, 40)
    for _ in range(50):
        vis = float(RNG.uniform(0.05, 1.0))
        offset = float(RNG.uniform(0.0, 2 * math.pi))
        values = 0.5 * (1 + vis * np.cos(grid - offset))
        mean, amplitude, psi = fit_fringe(grid, values, 1.0)
        assert abs(mean - 0.5) < 1e-9
        assert abs(amplitude / mean - vis) < 1e-9
        assert angdiff(psi, offset) < 1e-9


def test_fit_fringe_flat_data_is_reported_not_fit():
    grid = np.linspace(0.0, 2 * math.pi, 24)
    mean, amplitude, psi = fit_fringe(grid, np.full(24, 0.5), 1.0)
    assert psi is None
    assert amplitude < 1e-12
    with pytest.raises(ValueError):
        fit_fringe([0.0, 1.0], [0.5, 0.6], 1.0)


def test_component_populations_of_balanced_state():
    _, bob = rsp_pure(shared_state(2)[1], alice_projector(math.pi / 8, 0.0))
    pops = component_populations(to_density(bob))
    assert abs(pops[(2, 1)] - 0.5) < 1e-12
    assert abs(pops[(1, 2)] - 0.5) < 1e-12
    assert pops.get((3, 0), 0.0) == 0.0
    assert pops.get((0, 3), 0.0) == 0.0
    assert abs(sum(pops.values()) - 1.0) < 1e-12


def test_component_populations_single_ket():
    pops = component_populations(make_fock([(BOB_H, 2), (BOB_V, 1)]))
    assert pops == {(2, 1): 1.0}


def test_purity_and_fidelity_formulas():
    target = closed_form_bob_ket(2, math.pi / 8, 0.0)
    for p in (0.0, 0.3, 0.6, 1.0):
        rho_b = _bob_state(math.pi / 8, 0.0, p)
        purity, fidelity = purity_and_fidelity(rho_b, target)
        # independent matrix-arithmetic check
        v = np.array([target.amps.get(occ, 0j) for occ in rho_b.basis])
        rho = p * np.outer(v, v.conj()) + (1 - p) / 2.0 * np.eye(2)
        assert abs(purity - np.trace(rho @ rho).real) < 1e-12
        assert abs(fidelity - (v.conj() @ rho @ v).real) < 1e-12
        assert abs(purity - (1 + p * p) / 2.0) < 1e-12
        assert abs(fidelity - (1 + p) / 2.0) < 1e-12
    _, pure = rsp_pure(shared_state(2)[1], alice_projector(math.pi / 8, 0.0))
    purity, fidelity = purity_and_fidelity(to_density(pure), target)
    assert abs(purity - 1.0) < 1e-12
    assert abs(fidelity - 1.0) < 1e-12


def test_sample_counts_deterministic_and_concentrated():
    counts = sample_counts([1.0, 0.0, 0.0, 0.0], shots=5000, seed=3)
    assert counts.tolist() == [5000, 0, 0, 0]
    again = sample_counts([0.4, 0.3, 0.2, 0.1], shots=1000, seed=11)
    third = sample_counts([0.4, 0.3, 0.2, 0.1], shots=1000, seed=11)
    assert again.tolist() == third.tolist()
    assert int(again.sum()) == 1000
    with pytest.raises(ValueError):
        sample_counts([0.5, 0.5], shots=0, seed=1)


def test_sample_count_table_round_trip():
    table = CountTable(0.25, 0.25, 0.25, 0.25)
    sampled = sample_count_table(table, shots=9999, seed=5)
    assert sampled.total() == 9999
    assert abs(sampled.correlation()) < 0.1


def test_sampled_fringe_visibility_converges():
    grid = np.linspace(0.0, 2 * math.pi, 24)
    scan = fringe_scan(_bob_state(math.pi / 8, 0.0), "phase_phi", grid)
    sampled = sample_fringe_scan(scan, shots=10 ** 6, seed=99)
    assert sampled.counts is not None
    assert abs(sampled.fitted_visibility - 1.0) < 0.01
    replay = sample_fringe_scan(scan, shots=10 ** 6, seed=99)
    assert replay.counts == sampled.counts


def test_count_table_requires_events():
    with pytest.raises(ValueError):
        CountTable(0.0, 0.0, 0.0, 0.0).correlation()


@pytest.mark.parametrize("n", [1, 3])
def test_fringe_scan_reads_n_from_bobs_state(n):
    p, theta = 0.8, 2.0
    _, rho = rsp_mixed(shared_state(n)[1], alice_projector(math.pi / 8, theta), p)
    scan = fringe_scan(rho, "phase_phi", np.linspace(0.0, 2 * math.pi, 24))
    assert abs(scan.fitted_visibility - p) < 1e-9
    assert angdiff(scan.fitted_offset, theta) < 1e-9


def test_fringe_scan_rejects_a_bob_state_with_an_even_photon_number():
    even = to_density(make_fock([(BOB_H, 2), (BOB_V, 2)]))
    with pytest.raises(ModeMismatchError):
        fringe_scan(even, "phase_phi", np.linspace(0.0, 2 * math.pi, 24))


def test_fringe_scan_rejects_a_state_off_bobs_modes():
    # the shared state holds 2n photons on Alice's and Bob's modes
    shared = to_density(shared_state(2)[1])
    with pytest.raises(ModeMismatchError, match="Bob's H and V modes"):
        fringe_scan(shared, "phase_phi", np.linspace(0.0, 2 * math.pi, 24))


@pytest.mark.parametrize("n", [1, 2, 5])
def test_fringe_scan_matches_the_analyzer_ket_route_bit_for_bit(n):
    # each point's probability is expectation(rho, bob_measurement_ket(...))
    _, rho = rsp_mixed(shared_state(n)[1], alice_projector(0.3, 1.1), 0.7)
    grid = np.linspace(-1.0, 7.0, 33)
    for axis in ("phase_phi", "angle_delta"):
        scan = fringe_scan(rho, axis, grid)
        kets = [
            protocol.bob_measurement_ket(n, math.pi / 8, phi=float(x)) if axis == "phase_phi"
            else protocol.bob_measurement_ket(n, float(x), phi=0.0)
            for x in grid
        ]
        assert scan.probabilities == tuple(expectation(rho, ket) for ket in kets)


def test_correlation_rejects_outcome_kets_built_for_another_n():
    _, state = shared_state(2)
    with pytest.raises(ModeMismatchError, match="5 photons at Bob, the state 3"):
        correlation(state, "mu_s", "mu_t", outcome_kets(3))
    with pytest.raises(ModeMismatchError, match="3 photons at Bob, the state 5"):
        count_table(shared_state(3)[1], "mu_s", "mu_t", KETS)


def test_white_noise_shared_state_reads_n_from_the_shared_ket():
    noisy = white_noise_shared_state(shared_state(3)[1], 0.9)
    kets = outcome_kets(3)
    s = chsh_value([correlation(noisy, s_kind, t, kets)[0] for s_kind, t in CHSH_SETTINGS])
    assert abs(s - 0.9 * 2.0 * SQRT2) < 1e-12
