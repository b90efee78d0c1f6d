import math

import numpy as np
import pytest

from rsp_sim import (
    BOB_H,
    BOB_V,
    RspSettings,
    bob_measurement_ket,
    build_source,
    closed_form_bob_density,
    closed_form_bob_ket,
    component_populations,
    distinguishability_demo,
    inner_product,
    make_fock,
    operator_distance,
    rsp_mixed,
    rsp_pure,
    shared_state,
    superpose,
)
from rsp_sim.protocol import alice_measurement_ket
from helpers import reference_shared_ket
from oracles import splitter_herald_amplitudes

RNG = np.random.default_rng(31415)

HERALD_PROBABILITIES = {1: 0.5, 2: 0.25, 3: 0.09375, 4: 0.03125}


def test_build_source():
    assert build_source(2).amplitude((2, 2)) == 1.0
    assert build_source(1).amplitude((1, 1)) == 1.0
    three = build_source(3)
    assert three.amplitude((3, 3)) == 1.0
    assert abs(three.norm() - 1.0) < 1e-15
    with pytest.raises(ValueError):
        build_source(0)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_shared_state_herald_probability(n):
    prob, state = shared_state(n)
    assert abs(prob - HERALD_PROBABILITIES[n]) < 1e-12
    reference = reference_shared_ket(n)
    assert abs(abs(inner_product(reference, state)) - 1.0) < 1e-12
    # both branches carry equal weight
    amps = sorted(abs(a) for a in state.amps.values())
    assert len(amps) == 2
    assert abs(amps[0] - amps[1]) < 1e-12


@pytest.mark.parametrize("n", [1, 2, 3])
def test_shared_state_matches_permanent_oracle(n):
    prob, state = shared_state(n)
    oracle = splitter_herald_amplitudes(n)
    oracle_prob = sum(abs(a) ** 2 for a in oracle.values())
    assert abs(prob - oracle_prob) < 1e-12
    scale = 1.0 / math.sqrt(oracle_prob)
    for occ, amp in oracle.items():
        conditioned = tuple(occ[2:])  # drop the (empty) source slots
        assert abs(state.amplitude(conditioned) - amp * scale) < 1e-12


def test_shared_state_n4_amplitudes_match_oracle():
    _, state = shared_state(4)
    oracle = splitter_herald_amplitudes(4)
    norm = math.sqrt(sum(abs(a) ** 2 for a in oracle.values()))
    for occ, amp in oracle.items():
        assert abs(state.amplitude(tuple(occ[2:])) - amp / norm) < 1e-12


def test_alice_measurement_ket_matches_instrument_form():
    for _ in range(25):
        gamma = float(RNG.uniform(0, math.pi / 2))
        theta = float(RNG.uniform(0, 2 * math.pi))
        ket = alice_measurement_ket(gamma, theta)
        assert abs(ket.amplitude((1, 0)) - math.cos(2 * gamma)) < 1e-12
        assert abs(
            ket.amplitude((0, 1)) - np.exp(1j * theta) * math.sin(2 * gamma)
        ) < 1e-12


def test_rsp_pure_balanced_preparation():
    out = rsp_pure(RspSettings(n_pairs=2, gamma=math.pi / 8, theta=0.0))
    inv = 1.0 / math.sqrt(2.0)
    target = superpose([
        (inv, make_fock([(BOB_H, 2), (BOB_V, 1)])),
        (inv, make_fock([(BOB_H, 1), (BOB_V, 2)])),
    ])
    assert abs(abs(inner_product(target, out.bob_ket)) - 1.0) < 1e-12
    assert abs(out.alice_probability - 0.5) < 1e-12
    assert abs(out.herald_probability - 0.25) < 1e-12


def test_rsp_pure_endpoint_prepares_single_component():
    out = rsp_pure(RspSettings(n_pairs=2, gamma=math.pi / 4, theta=0.0))
    assert abs(abs(out.bob_ket.amplitude((2, 1))) - 1.0) < 1e-12
    assert out.bob_ket.amplitude((1, 2)) == 0j


def test_rsp_pure_three_pair_with_phase():
    out = rsp_pure(RspSettings(n_pairs=3, gamma=math.pi / 8, theta=math.pi / 2))
    inv = 1.0 / math.sqrt(2.0)
    target = superpose([
        (inv, make_fock([(BOB_H, 3), (BOB_V, 2)])),
        (1j * inv, make_fock([(BOB_H, 2), (BOB_V, 3)])),
    ])
    assert abs(abs(inner_product(target, out.bob_ket)) - 1.0) < 1e-12


def test_rsp_pure_rejects_partial_strength():
    with pytest.raises(ValueError):
        rsp_pure(RspSettings(n_pairs=2, p_strength=0.5))


def test_rsp_mixed_limits():
    pure = rsp_pure(RspSettings(n_pairs=2, gamma=0.2, theta=0.8))
    sharp = rsp_mixed(RspSettings(n_pairs=2, gamma=0.2, theta=0.8, p_strength=1.0))
    assert operator_distance(sharp.bob_state, pure.bob_state) < 1e-12
    flat = rsp_mixed(RspSettings(n_pairs=2, gamma=0.2, theta=0.8, p_strength=0.0))
    assert abs(flat.bob_state.entry((2, 1), (2, 1)) - 0.5) < 1e-12
    assert abs(flat.bob_state.entry((1, 2), (1, 2)) - 0.5) < 1e-12
    assert abs(flat.bob_state.entry((2, 1), (1, 2))) < 1e-12


def test_rsp_mixed_purity_at_point_six():
    out = rsp_mixed(RspSettings(n_pairs=2, gamma=math.pi / 8, p_strength=0.6))
    purity = float(np.trace(out.bob_state.matrix @ out.bob_state.matrix).real)
    assert abs(purity - 0.68) < 1e-12


def test_pipeline_matches_closed_form_across_sources():
    for n in (1, 2, 3, 4):
        for _ in range(50):
            gamma = float(RNG.uniform(0, math.pi / 4))
            theta = float(RNG.uniform(0, 2 * math.pi))
            out = rsp_pure(RspSettings(n_pairs=n, gamma=gamma, theta=theta))
            target = closed_form_bob_ket(n, gamma, theta)
            assert abs(abs(inner_product(target, out.bob_ket)) - 1.0) < 1e-10


def test_mixed_pipeline_matches_closed_form():
    for n in (1, 2, 3):
        for _ in range(20):
            gamma = float(RNG.uniform(0, math.pi / 4))
            theta = float(RNG.uniform(0, 2 * math.pi))
            p = float(RNG.uniform(0, 1))
            out = rsp_mixed(RspSettings(n_pairs=n, gamma=gamma, theta=theta, p_strength=p))
            target = closed_form_bob_density(n, gamma, theta, p)
            assert operator_distance(out.bob_state, target) < 1e-10


def test_phase_fringe_law_pointwise():
    out = rsp_pure(RspSettings(n_pairs=2, gamma=math.pi / 8, theta=1.3))
    rho = out.bob_state
    from rsp_sim import expectation

    for phi in np.linspace(0, 2 * math.pi, 24):
        ket = bob_measurement_ket(2, math.pi / 8, phi)
        expected = 0.5 * (1 + math.cos(phi - 1.3))
        assert abs(expectation(rho, ket) - expected) < 1e-12


def test_amplitude_fringe_law_pointwise():
    gamma = 0.22
    out = rsp_pure(RspSettings(n_pairs=2, gamma=gamma, theta=0.0))
    from rsp_sim import expectation

    for delta in np.linspace(0, math.pi / 2, 25):
        ket = bob_measurement_ket(2, delta, 0.0)
        expected = 0.5 * (1 - math.cos(4 * (delta + gamma)))
        assert abs(expectation(out.bob_state, ket) - expected) < 1e-12


def test_extreme_components_never_appear():
    # for n >= 2 the all-H / all-V kets lie outside the two-branch basis
    for _ in range(20):
        n = int(RNG.integers(2, 5))
        gamma = float(RNG.uniform(0, math.pi / 4))
        theta = float(RNG.uniform(0, 2 * math.pi))
        out = rsp_pure(RspSettings(n_pairs=n, gamma=gamma, theta=theta))
        pops = component_populations(out.bob_state)
        total = 2 * n - 1
        assert pops.get((total, 0), 0.0) == 0.0
        assert pops.get((0, total), 0.0) == 0.0
        assert abs(sum(pops.values()) - 1.0) < 1e-12


def test_distinguishability_limits_and_contrast():
    clean = distinguishability_demo(RspSettings(n_pairs=2, distinguishability=1.0))
    assert clean.tagged_total == 0.0
    blurred = distinguishability_demo(RspSettings(n_pairs=2, distinguishability=0.5))
    # per-branch tagged weight: 1/2 * (1 - d) + 1/2 * (1 - d^2) = 0.625 at d = 0.5
    assert abs(blurred.tagged_total - 0.625) < 1e-12
    assert blurred.tagged_total > 0.1
    # the partial-polarizer route never leaves the two-branch basis
    for p in (0.0, 0.5, 1.0):
        out = rsp_mixed(RspSettings(n_pairs=2, gamma=math.pi / 8, p_strength=p))
        assert set(out.bob_state.basis) == {(2, 1), (1, 2)}
        assert all(m.tag == 0 for m in out.bob_state.modes)


def test_settings_validation():
    with pytest.raises(ValueError):
        RspSettings(n_pairs=0)
    with pytest.raises(ValueError):
        RspSettings(p_strength=1.5)
    with pytest.raises(ValueError):
        RspSettings(distinguishability=-0.2)


def test_closed_form_density_keeps_both_branches_when_one_amplitude_vanishes():
    # at gamma = 0 the |n_H,(n-1)_V> amplitude is cos(pi/2), pruned as a zero
    rho = closed_form_bob_density(2, 0.0, 0.0, 0.5)
    assert rho.basis == ((1, 2), (2, 1))
    assert np.allclose(rho.matrix, np.diag([0.75, 0.25]), atol=1e-15)
