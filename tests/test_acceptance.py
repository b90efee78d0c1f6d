"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import json
import math
import time

import numpy as np

import rsp_sim.cli as cli
from rsp_sim import (
    alice_projector,
    chsh_value,
    closed_form_bob_density,
    closed_form_bob_ket,
    component_populations,
    correlation,
    count_table,
    distinguishability_demo,
    fringe_scan,
    inner_product,
    operator_distance,
    outcome_kets,
    purity_and_fidelity,
    rsp_mixed,
    rsp_pure,
    shared_state,
    to_density,
    white_noise_shared_state,
)
from rsp_sim.analysis import CHSH_SETTINGS
from helpers import angdiff, reference_shared_ket, tagged_population
from oracles import splitter_herald_amplitudes

SQRT2 = math.sqrt(2.0)
PRESET_NAMES = (
    "table1_chsh", "fig2a", "fig2b", "fig2c", "fig2d", "fig2e", "fig2f",
    "fig3_populations", "eq7_mixed_sweep", "eq10_general_n",
)


def _report(n, text):
    print(f"ACCEPTANCE {n} PASS: {text}")


def test_criterion_1_shared_state_derivation():
    start = time.perf_counter()
    probability, state = shared_state(2)
    oracle = splitter_herald_amplitudes(2)
    oracle_probability = sum(abs(a) ** 2 for a in oracle.values())
    assert abs(probability - 0.25) < 1e-12
    assert abs(probability - oracle_probability) < 1e-12
    overlap = abs(inner_product(reference_shared_ket(2), state))
    assert abs(overlap - 1.0) < 1e-10
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _report(1, f"herald probability 1/4, overlap {overlap:.15f}, {elapsed * 1e3:.0f} ms")


def test_criterion_2_chsh_both_routes_and_noise_band():
    start = time.perf_counter()
    _, state = shared_state(2)
    kets = outcome_kets(2)
    s_operator = chsh_value([correlation(state, s, t, kets)[0] for s, t in CHSH_SETTINGS])
    assert abs(s_operator - 2.0 * SQRT2) < 1e-9
    rho = to_density(state)
    counted = [
        count_table(rho, s, t, kets).correlation()
        for s, t in (("mu_s", "mu_t"), ("mu_s", "pi_t"), ("pi_s", "mu_t"), ("pi_s", "pi_t"))
    ]
    s_counts = abs(-counted[0] + counted[1] + counted[2] + counted[3])
    assert abs(s_counts - 2.0 * SQRT2) < 1e-9
    noisy = white_noise_shared_state(state, 0.958)
    s_noisy = chsh_value([correlation(noisy, s, t, kets)[0] for s, t in CHSH_SETTINGS])
    assert abs(s_noisy - 2.71) <= 0.09
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _report(
        2,
        f"S_operator {s_operator:.9f}, S_counts {s_counts:.9f}, "
        f"S(p=0.958) {s_noisy:.4f} in 2.71 +/- 0.09, {elapsed * 1e3:.0f} ms",
    )


def test_criterion_3_phase_fringes():
    grid = np.linspace(0.0, 2.0 * math.pi, 24)
    thetas = (0.0, 2.0 * math.pi / 3.0, 4.0 * math.pi / 3.0)
    visibilities = (0.938, 0.978, 0.974)
    _, shared = shared_state(2)
    for theta in thetas:
        _, rho = rsp_mixed(shared, alice_projector(math.pi / 8, theta), 1.0)
        scan = fringe_scan(rho, "phase_phi", grid)
        for phi, prob in zip(scan.grid, scan.probabilities):
            assert abs(prob - 0.5 * (1.0 + math.cos(phi - theta))) < 1e-12
        assert angdiff(scan.fitted_offset, theta) < 1e-9
    for theta, p in zip(thetas, visibilities):
        _, rho = rsp_mixed(shared, alice_projector(math.pi / 8, theta), p)
        noisy = fringe_scan(rho, "phase_phi", grid)
        assert abs(noisy.fitted_visibility - p) < 1e-9
        assert angdiff(noisy.fitted_offset, theta) < 1e-9
    _report(3, f"offsets recover theta for {thetas}, visibilities match {visibilities}")


def test_criterion_4_amplitude_fringes():
    rng = np.random.default_rng(44)
    grid = np.linspace(0.0, math.pi / 2.0, 25)
    checked = []
    _, shared = shared_state(2)
    for _ in range(20):
        gamma = float(rng.uniform(0.0, math.pi / 4.0))
        _, rho = rsp_mixed(shared, alice_projector(gamma, 0.0), 1.0)
        scan = fringe_scan(rho, "angle_delta", grid)
        for delta, prob in zip(scan.grid, scan.probabilities):
            assert abs(prob - 0.5 * (1.0 - math.cos(4.0 * (delta + gamma)))) < 1e-12
        peak = (scan.fitted_offset / 4.0) % (math.pi / 2.0)
        expected = (math.pi / 4.0 - gamma) % (math.pi / 2.0)
        assert angdiff(peak, expected, period=math.pi / 2.0) < 1e-9
        checked.append(gamma)
    _report(4, f"cos4(delta+gamma) law and peak at pi/4-gamma for {len(checked)} random gammas")


def test_criterion_5_component_populations():
    _, bob = rsp_pure(shared_state(2)[1], alice_projector(math.pi / 8, 0.0))
    pops = component_populations(to_density(bob))
    extreme_high = pops.get((3, 0), 0.0)
    extreme_low = pops.get((0, 3), 0.0)
    assert extreme_high < 1e-12
    assert extreme_low < 1e-12
    assert abs(sum(pops.values()) - 1.0) < 1e-12
    _report(
        5,
        f"all-H/all-V populations exactly {extreme_high}/{extreme_low} "
        f"(consistent with the < 0.03 bound), sum {sum(pops.values()):.15f}",
    )


def test_criterion_6_mixed_state_preparation():
    target = closed_form_bob_ket(2, math.pi / 8, 0.0)
    _, shared = shared_state(2)
    for p in (0.0, 0.25, 0.5, 0.75, 1.0):
        _, bob_state = rsp_mixed(shared, alice_projector(math.pi / 8, 0.0), p)
        assert operator_distance(
            bob_state, closed_form_bob_density(closed_form_bob_ket(2, math.pi / 8, 0.0), p)
        ) < 1e-12
        purity, fidelity = purity_and_fidelity(bob_state, target)
        # independent matrix-arithmetic oracle for both figures of merit
        v = np.array([target.amps.get(occ, 0j) for occ in bob_state.basis])
        rho = p * np.outer(v, v.conj()) + (1.0 - p) / 2.0 * np.eye(2)
        assert abs(purity - float(np.trace(rho @ rho).real)) < 1e-12
        assert abs(fidelity - float((v.conj() @ rho @ v).real)) < 1e-12
        assert abs(purity - (1.0 + p * p) / 2.0) < 1e-12
        assert abs(fidelity - (1.0 + p) / 2.0) < 1e-12
    _report(6, "rho_B matches p|psi><psi| + (1-p)I/2, purity (1+p^2)/2, fidelity (1+p)/2")


def test_criterion_7_general_source_sizes():
    start = time.perf_counter()
    rng = np.random.default_rng(77)
    worst_pure = worst_mixed = 0.0
    for n in (1, 2, 3, 4):
        _, shared = shared_state(n)
        for _ in range(50):
            gamma = float(rng.uniform(0.0, math.pi / 4.0))
            theta = float(rng.uniform(0.0, 2.0 * math.pi))
            p = float(rng.uniform(0.0, 1.0))
            _, bob_ket = rsp_pure(shared, alice_projector(gamma, theta))
            overlap = abs(inner_product(closed_form_bob_ket(n, gamma, theta), bob_ket))
            worst_pure = max(worst_pure, abs(1.0 - overlap))
            _, bob_state = rsp_mixed(shared, alice_projector(gamma, theta), p)
            worst_mixed = max(
                worst_mixed,
                operator_distance(
                    bob_state, closed_form_bob_density(closed_form_bob_ket(n, gamma, theta), p)
                ),
            )
    assert worst_pure < 1e-10
    assert worst_mixed < 1e-10
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    _report(
        7,
        f"n in 1..4, 50 random settings each: overlap defect {worst_pure:.2e}, "
        f"entry defect {worst_mixed:.2e}, {elapsed:.1f} s",
    )


def test_criterion_8_distinguishability_contrast():
    _, shared = shared_state(2)
    _, bob_ket = rsp_pure(shared, alice_projector(math.pi / 8, 0.0))
    tagged_total = tagged_population(distinguishability_demo(bob_ket, 0.5))
    assert tagged_total > 0.05
    for p in (0.0, 0.3, 0.7, 1.0):
        _, bob_state = rsp_mixed(shared, alice_projector(math.pi / 8, 0.0), p)
        assert set(bob_state.basis) == {(2, 1), (1, 2)}
        assert all(mode.tag == 0 for mode in bob_state.modes)
    _report(
        8,
        f"tagged-mode population {tagged_total:.3f} at d=0.5; partial "
        "polarizer stays on the two-branch basis for all p",
    )


def test_criterion_9_preset_determinism(tmp_path):
    for name in PRESET_NAMES:
        for fmt in ("json", "csv"):
            first = tmp_path / f"{name}_1.{fmt}"
            second = tmp_path / f"{name}_2.{fmt}"
            assert cli.main(["preset", name, "--out", str(first), "--format", fmt]) == 0
            assert cli.main(["preset", name, "--out", str(second), "--format", fmt]) == 0
            assert first.read_bytes() == second.read_bytes(), (name, fmt)
    record = json.loads((tmp_path / "table1_chsh_1.json").read_text())
    assert record["timestamp"] is None
    _report(9, f"{len(PRESET_NAMES)} presets byte-identical across repeated runs (json and csv)")
