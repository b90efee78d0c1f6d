import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rsp_sim import (
    ALICE_H,
    ALICE_V,
    BOB_H,
    BOB_V,
    ModeMismatchError,
    alice_projector,
    bob_measurement_ket,
    build_source,
    closed_form_bob_density,
    closed_form_bob_ket,
    component_populations,
    distinguishability_demo,
    extend_modes,
    heralded_n,
    inner_product,
    make_fock,
    operator_distance,
    rsp_mixed,
    rsp_pure,
    shared_state,
    superpose,
    to_density,
)
from rsp_sim.protocol import alice_measurement_ket
from helpers import reference_shared_ket, tagged_population
from oracles import (
    alice_measurement_ket_by_elements,
    bob_measurement_ket_by_superposition,
    splitter_herald_amplitudes,
)

RNG = np.random.default_rng(31415)

HERALD_PROBABILITIES = {1: 0.5, 2: 0.25, 3: 0.09375, 4: 0.03125}


def test_build_source():
    assert build_source(2).amps.get((2, 2), 0j) == 1.0
    assert build_source(1).amps.get((1, 1), 0j) == 1.0
    three = build_source(3)
    assert three.amps.get((3, 3), 0j) == 1.0
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
        assert abs(state.amps.get(conditioned, 0j) - amp * scale) < 1e-12


def test_shared_state_n4_amplitudes_match_oracle():
    _, state = shared_state(4)
    oracle = splitter_herald_amplitudes(4)
    norm = math.sqrt(sum(abs(a) ** 2 for a in oracle.values()))
    for occ, amp in oracle.items():
        assert abs(state.amps.get(tuple(occ[2:]), 0j) - amp / norm) < 1e-12


def test_alice_measurement_ket_matches_instrument_form():
    for _ in range(25):
        gamma = float(RNG.uniform(0, math.pi / 2))
        theta = float(RNG.uniform(0, 2 * math.pi))
        ket = alice_measurement_ket(gamma, theta)
        assert abs(ket.amps.get((1, 0), 0j) - math.cos(2 * gamma)) < 1e-12
        assert abs(
            ket.amps.get((0, 1), 0j) - np.exp(1j * theta) * math.sin(2 * gamma)
        ) < 1e-12


def test_rsp_pure_balanced_preparation():
    herald_probability, shared = shared_state(2)
    alice_probability, bob = rsp_pure(shared, alice_projector(math.pi / 8, 0.0))
    inv = 1.0 / math.sqrt(2.0)
    target = superpose([
        (inv, make_fock([(BOB_H, 2), (BOB_V, 1)])),
        (inv, make_fock([(BOB_H, 1), (BOB_V, 2)])),
    ])
    assert abs(abs(inner_product(target, bob)) - 1.0) < 1e-12
    assert abs(alice_probability - 0.5) < 1e-12
    assert abs(herald_probability - 0.25) < 1e-12


def test_rsp_pure_endpoint_prepares_single_component():
    _, bob = rsp_pure(shared_state(2)[1], alice_projector(math.pi / 4, 0.0))
    assert abs(abs(bob.amps.get((2, 1), 0j)) - 1.0) < 1e-12
    assert bob.amps.get((1, 2), 0j) == 0j


def test_rsp_pure_three_pair_with_phase():
    _, bob = rsp_pure(shared_state(3)[1], alice_projector(math.pi / 8, math.pi / 2))
    inv = 1.0 / math.sqrt(2.0)
    target = superpose([
        (inv, make_fock([(BOB_H, 3), (BOB_V, 2)])),
        (1j * inv, make_fock([(BOB_H, 2), (BOB_V, 3)])),
    ])
    assert abs(abs(inner_product(target, bob)) - 1.0) < 1e-12


def test_rsp_mixed_limits():
    _, shared = shared_state(2)
    _, pure = rsp_pure(shared, alice_projector(0.2, 0.8))
    _, sharp = rsp_mixed(shared, alice_projector(0.2, 0.8), 1.0)
    assert operator_distance(sharp, to_density(pure)) < 1e-12
    _, flat = rsp_mixed(shared, alice_projector(0.2, 0.8), 0.0)
    assert abs(flat.entry((2, 1), (2, 1)) - 0.5) < 1e-12
    assert abs(flat.entry((1, 2), (1, 2)) - 0.5) < 1e-12
    assert abs(flat.entry((2, 1), (1, 2))) < 1e-12


def test_rsp_mixed_purity_at_point_six():
    _, rho = rsp_mixed(shared_state(2)[1], alice_projector(math.pi / 8, 0.0), 0.6)
    purity = float(np.trace(rho.matrix @ rho.matrix).real)
    assert abs(purity - 0.68) < 1e-12


def test_pipeline_matches_closed_form_across_sources():
    for n in (1, 2, 3, 4):
        _, shared = shared_state(n)
        for _ in range(50):
            gamma = float(RNG.uniform(0, math.pi / 4))
            theta = float(RNG.uniform(0, 2 * math.pi))
            _, bob = rsp_pure(shared, alice_projector(gamma, theta))
            target = closed_form_bob_ket(n, gamma, theta)
            assert abs(abs(inner_product(target, bob)) - 1.0) < 1e-10


def test_mixed_pipeline_matches_closed_form():
    for n in (1, 2, 3):
        _, shared = shared_state(n)
        for _ in range(20):
            gamma = float(RNG.uniform(0, math.pi / 4))
            theta = float(RNG.uniform(0, 2 * math.pi))
            p = float(RNG.uniform(0, 1))
            _, rho = rsp_mixed(shared, alice_projector(gamma, theta), p)
            target = closed_form_bob_density(closed_form_bob_ket(n, gamma, theta), p)
            assert operator_distance(rho, target) < 1e-10


def test_phase_fringe_law_pointwise():
    _, bob = rsp_pure(shared_state(2)[1], alice_projector(math.pi / 8, 1.3))
    rho = to_density(bob)
    from rsp_sim import expectation

    for phi in np.linspace(0, 2 * math.pi, 24):
        ket = bob_measurement_ket(2, math.pi / 8, phi)
        expected = 0.5 * (1 + math.cos(phi - 1.3))
        assert abs(expectation(rho, ket) - expected) < 1e-12


def test_amplitude_fringe_law_pointwise():
    gamma = 0.22
    _, bob = rsp_pure(shared_state(2)[1], alice_projector(gamma, 0.0))
    rho = to_density(bob)
    from rsp_sim import expectation

    for delta in np.linspace(0, math.pi / 2, 25):
        ket = bob_measurement_ket(2, delta, 0.0)
        expected = 0.5 * (1 - math.cos(4 * (delta + gamma)))
        assert abs(expectation(rho, ket) - expected) < 1e-12


def test_extreme_components_never_appear():
    # for n >= 2 the all-H / all-V kets lie outside the two-branch basis
    for _ in range(20):
        n = int(RNG.integers(2, 5))
        gamma = float(RNG.uniform(0, math.pi / 4))
        theta = float(RNG.uniform(0, 2 * math.pi))
        _, bob = rsp_pure(shared_state(n)[1], alice_projector(gamma, theta))
        pops = component_populations(to_density(bob))
        total = 2 * n - 1
        assert pops.get((total, 0), 0.0) == 0.0
        assert pops.get((0, total), 0.0) == 0.0
        assert abs(sum(pops.values()) - 1.0) < 1e-12


def test_distinguishability_limits_and_contrast():
    _, shared = shared_state(2)
    _, bob = rsp_pure(shared, alice_projector(math.pi / 8, 0.0))
    clean = tagged_population(distinguishability_demo(bob, 1.0))
    assert clean == 0.0
    blurred = tagged_population(distinguishability_demo(bob, 0.5))
    # per-branch tagged weight: 1/2 * (1 - d) + 1/2 * (1 - d^2) = 0.625 at d = 0.5
    assert abs(blurred - 0.625) < 1e-12
    assert blurred > 0.1
    # the partial-polarizer route never leaves the two-branch basis
    for p in (0.0, 0.5, 1.0):
        _, rho = rsp_mixed(shared, alice_projector(math.pi / 8, 0.0), p)
        assert set(rho.basis) == {(2, 1), (1, 2)}
        assert all(m.tag == 0 for m in rho.modes)


def test_settings_validation():
    # each setting is checked where it is used
    with pytest.raises(ValueError):
        build_source(0)
    _, shared = shared_state(2)
    with pytest.raises(ValueError):
        rsp_mixed(shared, alice_projector(math.pi / 8, 0.0), 1.5)
    _, bob = rsp_pure(shared, alice_projector(math.pi / 8, 0.0))
    for d in (-0.2, 1.5):
        with pytest.raises(ValueError):
            distinguishability_demo(bob, d)


def test_closed_form_density_keeps_both_branches_when_one_amplitude_vanishes():
    # at gamma = 0 the |n_H,(n-1)_V> amplitude is cos(pi/2), pruned as a zero
    rho = closed_form_bob_density(closed_form_bob_ket(2, 0.0, 0.0), 0.5)
    assert rho.basis == ((1, 2), (2, 1))
    assert np.allclose(rho.matrix, np.diag([0.75, 0.25]), atol=1e-15)


def test_closed_form_density_rejects_a_ket_off_bobs_two_branch_basis():
    with pytest.raises(ModeMismatchError):
        closed_form_bob_density(shared_state(2)[1], 0.5)
    even = make_fock([(BOB_H, 2), (BOB_V, 2)])
    with pytest.raises(ValueError, match="two-branch"):
        closed_form_bob_density(even, 0.5)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_heralded_n_reads_the_source_size_from_the_state(n):
    _, shared = shared_state(n)
    _, bob = rsp_pure(shared, alice_projector(math.pi / 8, 0.0))
    assert heralded_n(shared) == heralded_n(to_density(shared)) == n
    assert heralded_n(bob) == heralded_n(to_density(bob)) == n


@pytest.mark.parametrize("state", [
    make_fock([(BOB_H, 2), (BOB_V, 2)]),  # an even photon number at Bob
    extend_modes(make_fock([(ALICE_H, 1), (BOB_H, 2)]), (ALICE_V, BOB_V)),  # odd in all
    make_fock([(ALICE_H, 1), (BOB_H, 2), (BOB_V, 1)]),  # not Alice's and Bob's modes
    build_source(2),
])
def test_heralded_n_rejects_a_state_no_herald_leaves(state):
    with pytest.raises(ModeMismatchError, match="two-branch"):
        heralded_n(state)


# angles where cos or sin of 2x is exactly 0 or 1, or rounds to a pruned
# residue, next to arbitrary finite ones far outside one period
_ANALYZER_ANGLES = st.sampled_from(
    [0.0, -0.0, math.pi / 8, math.pi / 4, -math.pi / 4, math.pi / 2, 3 * math.pi / 8]
) | st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(n=st.integers(1, 40), delta=_ANALYZER_ANGLES, phi=_ANALYZER_ANGLES)
def test_bob_measurement_ket_matches_the_make_fock_route(n, delta, phi):
    direct = bob_measurement_ket(n, delta, phi)
    route = bob_measurement_ket_by_superposition(n, delta, phi)
    assert direct.modes == route.modes == (BOB_H, BOB_V)
    assert direct.total_photons == route.total_photons == 2 * n - 1
    assert list(direct.amps.items()) == list(route.amps.items())
    # repr tells a -0.0 part from +0.0, which == does not
    assert repr(list(direct.amps.items())) == repr(list(route.amps.items()))
    assert all(type(a) is complex for a in direct.amps.values())


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(gamma=_ANALYZER_ANGLES, theta=_ANALYZER_ANGLES)
def test_alice_measurement_ket_matches_the_element_chain(gamma, theta):
    direct = alice_measurement_ket(gamma, theta)
    chain = alice_measurement_ket_by_elements(gamma, theta)
    assert direct.modes == chain.modes == (ALICE_H, ALICE_V)
    assert direct.total_photons == chain.total_photons == 1
    # the chain inserts (0, 1) first, so compare the items in key order
    assert set(direct.amps) == set(chain.amps)
    assert direct.items() == chain.items()
    # repr tells a -0.0 part from +0.0, which == does not
    assert repr(direct.items()) == repr(chain.items())
    assert all(type(a) is complex for a in direct.amps.values())


_INV = 1.0 / math.sqrt(2.0)
_ALICE_LANDMARKS = {
    "zero_angle_fixes_h": (0.0, 0.0, {(1, 0): 1.0}),
    "quarter_turn_swaps_polarizations": (math.pi / 4, 0.0, {(0, 1): 1.0}),
    "eighth_turn_balances": (math.pi / 8, 0.0, {(1, 0): _INV, (0, 1): _INV}),
    "half_turn_flips_sign": (
        0.3 + math.pi / 2, 0.0, {(1, 0): -math.cos(0.6), (0, 1): -math.sin(0.6)}
    ),
    "full_phase_turn_is_identity": (math.pi / 8, 2 * math.pi, {(1, 0): _INV, (0, 1): _INV}),
    "phase_pi_flips_v_sign": (math.pi / 8, math.pi, {(1, 0): _INV, (0, 1): -_INV}),
    "phase_quarter_turn_on_v": (math.pi / 4, math.pi / 2, {(0, 1): 1j}),
}


@pytest.mark.parametrize(
    "gamma, theta, expected", _ALICE_LANDMARKS.values(), ids=list(_ALICE_LANDMARKS)
)
def test_alice_measurement_ket_at_landmark_settings(gamma, theta, expected):
    ket = alice_measurement_ket(gamma, theta)
    assert ket.modes == (ALICE_H, ALICE_V)
    assert set(ket.amps) == set(expected)
    for occ, amp in expected.items():
        assert abs(ket.amps[occ] - amp) < 1e-12


@pytest.mark.parametrize("n", [2.5, 1.5, 0.5, math.inf, math.nan])
def test_bob_measurement_ket_rejects_fractional_pairs(n):
    # a fractional n used to be truncated to the ket of a smaller source
    with pytest.raises(ValueError, match="whole number"):
        bob_measurement_ket(n, 0.1, 0.2)
    with pytest.raises(ValueError):
        bob_measurement_ket_by_superposition(n, 0.1, 0.2)


@pytest.mark.parametrize("n", [0, -1, -7])
def test_bob_measurement_ket_rejects_fewer_than_one_pair(n):
    with pytest.raises(ValueError):
        bob_measurement_ket(n, 0.1, 0.2)
    with pytest.raises(ValueError):
        bob_measurement_ket_by_superposition(n, 0.1, 0.2)


@pytest.mark.parametrize(
    "delta, phi", [(0.1, math.inf), (math.nan, 0.0)], ids=["inf-phase", "nan-angle"],
)
def test_bob_measurement_ket_rejects_a_non_finite_setting(delta, phi):
    # e^{i inf} is NaN: it used to be pruned, leaving {(2, 1): 1}
    with np.errstate(invalid="ignore"), pytest.raises(ValueError, match="not finite"):
        bob_measurement_ket(2, delta, phi)
