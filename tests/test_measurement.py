import math

import numpy as np
import pytest

from rsp_sim import (
    ALICE_H,
    ALICE_V,
    BOB_H,
    BOB_V,
    SOURCE_H,
    SOURCE_V,
    FockState,
    HeraldPattern,
    ImpossibleHeraldError,
    ModeMismatchError,
    PovmElement,
    Projector,
    ZeroProbabilityError,
    apply,
    condition_on_povm,
    extend_modes,
    herald,
    inner_product,
    make_fock,
    operator_distance,
    partial_polarizer_povm,
    project,
    superpose,
    tensor,
    to_density,
)
from rsp_sim.protocol import alice_measurement_ket, shared_state, splitting_unitary
from helpers import ALL_MODES, random_state, reference_shared_ket
from oracles import weak_compositions

RNG = np.random.default_rng(91525)


def _split_source():
    source = extend_modes(make_fock([(SOURCE_H, 2), (SOURCE_V, 2)]), ALL_MODES)
    return apply(splitting_unitary(), source)


def test_herald_one_alice_three_bob():
    out = _split_source()
    prob, conditional = herald(
        out, HeraldPattern([((ALICE_H, ALICE_V), 1), ((BOB_H, BOB_V), 3)])
    )
    assert abs(prob - 0.25) < 1e-12
    reference = extend_modes(reference_shared_ket(2), ALL_MODES)
    assert abs(abs(inner_product(reference, conditional)) - 1.0) < 1e-12


def test_herald_trivial_pattern_keeps_state():
    state = make_fock([(ALICE_H, 1)])
    prob, conditional = herald(state, HeraldPattern([((ALICE_H,), 1)]))
    assert prob == 1.0
    assert conditional.amps.get((1,), 0j) == 1.0


def test_herald_all_four_at_alice():
    out = _split_source()
    prob, conditional = herald(out, HeraldPattern([((ALICE_H, ALICE_V), 4)]))
    assert abs(prob - 1.0 / 16.0) < 1e-12
    assert abs(abs(conditional.amps.get((0, 0, 2, 2, 0, 0), 0j)) - 1.0) < 1e-12


def test_herald_impossible_pattern_is_flagged():
    state = extend_modes(make_fock([(SOURCE_H, 2), (SOURCE_V, 2)]), ALL_MODES)
    with pytest.raises(ImpossibleHeraldError):
        herald(state, HeraldPattern([((ALICE_H, ALICE_V), 1), ((BOB_H, BOB_V), 3)]))


def test_herald_keeps_tiny_but_possible_outcomes():
    # the matching ket carries probability 1e-18, far below any absolute
    # floor; it is still a possible outcome and must herald and renormalize
    tiny = 1e-9
    state = FockState((ALICE_H, ALICE_V), {(1, 0): tiny, (0, 1): math.sqrt(1.0 - tiny**2)})
    prob, conditional = herald(state, HeraldPattern([((ALICE_H,), 1)]))
    assert abs(prob - 1e-18) < 1e-30
    assert abs(conditional.amps.get((1, 0), 0j) - 1.0) < 1e-12
    assert set(conditional.amps) == {(1, 0)}


def test_herald_validates_pattern():
    state = make_fock([(ALICE_H, 1)])
    with pytest.raises(ValueError):
        HeraldPattern([((ALICE_H,), 1), ((ALICE_H, ALICE_V), 1)])  # overlap
    with pytest.raises(ValueError):
        herald(state, HeraldPattern([((ALICE_H,), 2)]))  # more than present
    with pytest.raises(ModeMismatchError):
        herald(state, HeraldPattern([((BOB_H,), 1)]))


def test_project_balanced_measurement_prepares_balanced_remote():
    _, shared = shared_state(2)
    phi = Projector(alice_measurement_ket(math.pi / 8, 0.0))
    prob, remote = project(shared, phi)
    assert abs(prob - 0.5) < 1e-12
    inv = 1.0 / math.sqrt(2.0)
    target = superpose([
        (inv, make_fock([(BOB_H, 2), (BOB_V, 1)])),
        (inv, make_fock([(BOB_H, 1), (BOB_V, 2)])),
    ])
    assert abs(abs(inner_product(target, remote)) - 1.0) < 1e-12


def test_project_h_outcome_reads_off_other_branch():
    _, shared = shared_state(2)
    phi = Projector(make_fock([(ALICE_H, 1), (ALICE_V, 0)]))
    prob, remote = project(shared, phi)
    assert abs(prob - 0.5) < 1e-12
    assert abs(abs(remote.amps.get((1, 2), 0j)) - 1.0) < 1e-12


def test_project_orthogonal_state_has_zero_probability():
    gamma, theta = 0.3, 1.1
    phi = alice_measurement_ket(gamma, theta)
    phi_perp = superpose([
        (-np.exp(-1j * theta) * math.sin(2 * gamma),
         make_fock([(ALICE_H, 1), (ALICE_V, 0)])),
        (math.cos(2 * gamma), make_fock([(ALICE_H, 0), (ALICE_V, 1)])),
    ]).normalized()
    assert abs(inner_product(phi, phi_perp)) < 1e-12
    joint = tensor(phi, make_fock([(BOB_H, 2), (BOB_V, 1)]))
    with pytest.raises(ZeroProbabilityError):
        project(joint, Projector(phi_perp))


def test_projection_outcomes_are_complete():
    _, shared = shared_state(2)
    for _ in range(50):
        gamma = float(RNG.uniform(0, math.pi / 4))
        theta = float(RNG.uniform(0, 2 * math.pi))
        phi = alice_measurement_ket(gamma, theta)
        phi_perp = superpose([
            (-np.exp(-1j * theta) * math.sin(2 * gamma),
             make_fock([(ALICE_H, 1), (ALICE_V, 0)])),
            (math.cos(2 * gamma), make_fock([(ALICE_H, 0), (ALICE_V, 1)])),
        ]).normalized()
        p1, _ = project(shared, Projector(phi))
        p2, _ = project(shared, Projector(phi_perp))
        assert abs(p1 + p2 - 1.0) < 1e-12


def test_remote_state_carries_alice_settings():
    # measuring (cos2g, e^{i t} sin2g) at Alice leaves Bob in
    # sin2g |2,1> + e^{i t} cos2g |1,2>, as a density-matrix identity
    from rsp_sim.protocol import closed_form_bob_ket

    _, shared = shared_state(2)
    for _ in range(50):
        gamma = float(RNG.uniform(0, math.pi / 4))
        theta = float(RNG.uniform(0, 2 * math.pi))
        _, remote = project(shared, Projector(alice_measurement_ket(gamma, theta)))
        target = closed_form_bob_ket(2, gamma, theta)
        assert operator_distance(to_density(remote), to_density(target)) < 1e-12


def test_partial_polarizer_limits():
    phi = Projector(make_fock([(ALICE_H, 1), (ALICE_V, 0)]))
    sharp = partial_polarizer_povm(phi, 1.0)
    # basis is ((0,1), (1,0)): the H ket sits at index 1
    assert np.allclose(sharp.operator, [[0.0, 0.0], [0.0, 1.0]], atol=1e-15)
    flat = partial_polarizer_povm(phi, 0.0)
    assert np.allclose(flat.operator, 0.5 * np.eye(2), atol=1e-15)


def test_partial_polarizer_half_strength_on_h():
    phi = Projector(make_fock([(ALICE_H, 1), (ALICE_V, 0)]))
    element = partial_polarizer_povm(phi, 0.5)
    # basis is ((0,1), (1,0)): V first, H second
    assert abs(element.operator[1, 1] - 0.75) < 1e-15
    assert abs(element.operator[0, 0] - 0.25) < 1e-15


def test_partial_polarizer_rejects_bad_strength():
    phi = Projector(make_fock([(ALICE_H, 1), (ALICE_V, 0)]))
    with pytest.raises(ValueError):
        partial_polarizer_povm(phi, 1.2)
    with pytest.raises(ValueError):
        partial_polarizer_povm(phi, -0.1)


@pytest.mark.parametrize(
    "modes,basis,error",
    [
        ((ALICE_V, ALICE_H), [(1, 0), (0, 1)], ModeMismatchError),  # not canonical
        ((ALICE_H, ALICE_H), [(1, 0), (0, 1)], ModeMismatchError),  # duplicate mode
        ((ALICE_H, ALICE_V), [(1,), (0, 1)], ModeMismatchError),  # wrong length
        ((ALICE_H, ALICE_V), [(2, -1), (0, 1)], ValueError),  # negative count
        ((ALICE_H, ALICE_V), [(0, 1), (0, 1)], ValueError),  # duplicate entry
    ],
    ids=["unsorted-modes", "duplicate-modes", "entry-length", "negative-count", "duplicate-entry"],
)
def test_povm_element_validates_its_basis(modes, basis, error):
    with pytest.raises(ValueError) as excinfo:
        PovmElement(modes, basis, np.diag([1.0, 0.0]))
    assert excinfo.type is error


def test_povm_at_full_strength_matches_projection():
    _, shared = shared_state(2)
    phi = Projector(alice_measurement_ket(0.27, 0.9))
    p_proj, remote = project(shared, phi)
    p_povm, rho = condition_on_povm(shared, partial_polarizer_povm(phi, 1.0))
    assert abs(p_proj - p_povm) < 1e-12
    assert operator_distance(rho, to_density(remote)) < 1e-12


def test_povm_at_zero_strength_leaves_maximal_mixture():
    _, shared = shared_state(2)
    phi = Projector(alice_measurement_ket(0.27, 0.9))
    _, rho = condition_on_povm(shared, partial_polarizer_povm(phi, 0.0))
    assert abs(rho.entry((2, 1), (2, 1)) - 0.5) < 1e-12
    assert abs(rho.entry((1, 2), (1, 2)) - 0.5) < 1e-12
    assert abs(rho.entry((2, 1), (1, 2))) < 1e-12


def test_povm_intermediate_strength_purity():
    _, shared = shared_state(2)
    phi = Projector(alice_measurement_ket(math.pi / 8, 0.0))
    _, rho = condition_on_povm(shared, partial_polarizer_povm(phi, 0.6))
    purity = float(np.trace(rho.matrix @ rho.matrix).real)
    assert abs(purity - 0.68) < 1e-12


def test_povm_output_is_physical():
    _, shared = shared_state(2)
    for p in (0.0, 0.3, 0.6, 1.0):
        phi = Projector(alice_measurement_ket(0.19, 2.3))
        prob, rho = condition_on_povm(shared, partial_polarizer_povm(phi, p))
        assert 0.0 < prob <= 1.0
        assert np.max(np.abs(rho.matrix - rho.matrix.conj().T)) < 1e-12
        assert abs(rho.trace() - 1.0) < 1e-12
        assert np.linalg.eigvalsh(rho.matrix).min() > -1e-10


def test_projector_requires_normalized_target():
    with pytest.raises(ValueError):
        Projector(superpose([
            (0.9, make_fock([(ALICE_H, 1), (ALICE_V, 0)])),
            (0.9, make_fock([(ALICE_H, 0), (ALICE_V, 1)])),
        ]))


def _loop_split(modes, on):
    on_idx = [i for i, m in enumerate(modes) if m in on]
    rest_idx = [i for i, m in enumerate(modes) if m not in on]

    def on_key(occ):
        return tuple(occ[i] for i in on_idx)

    def rest_key(occ):
        return tuple(occ[i] for i in rest_idx)

    return on_key, rest_key


def _random_case(rng):
    # a random state on 2-4 modes, a random strict subset of them to measure,
    # and a photon count for the measured subsystem
    n_modes = int(rng.integers(2, 5))
    picked = rng.choice(len(ALL_MODES), n_modes, replace=False)
    modes = tuple(sorted(ALL_MODES[i] for i in picked))
    photons = int(rng.integers(1, 5))
    state = random_state(rng, modes, photons)
    picked = rng.choice(n_modes, int(rng.integers(1, n_modes)), replace=False)
    on = tuple(sorted(modes[i] for i in picked))
    return state, on, int(rng.integers(0, photons + 1))


def test_project_matches_scalar_loop_exactly():
    # the vectorized contraction must reproduce the per-ket scalar loop bit
    # for bit: same products, accumulated in the same order
    for _ in range(200):
        state, on, q = _random_case(RNG)
        if max(q, 1) >= state.total_photons:
            continue  # nothing would be left on the rest modes
        target = random_state(RNG, on, max(q, 1))
        on_key, rest_key = _loop_split(state.modes, set(on))
        residual = {}
        for occ, amp in state.items():
            phi = target.amps.get(on_key(occ))
            if phi is not None:
                residual[rest_key(occ)] = residual.get(rest_key(occ), 0j) + phi.conjugate() * amp
        expected = sum(abs(a) ** 2 for _, a in sorted(residual.items()))
        if expected < 1e-15:
            continue
        prob, remote = project(state, Projector(target))
        assert prob == expected
        scale = 1.0 / math.sqrt(expected)
        assert remote.items() == sorted((k, a * scale) for k, a in residual.items())


def test_condition_on_povm_matches_scalar_loop_exactly():
    for _ in range(200):
        state, on, q = _random_case(RNG)
        rho = to_density(state)
        basis = sorted(weak_compositions(q, len(on)))
        g = RNG.normal(size=(len(basis),) * 2) + 1j * RNG.normal(size=(len(basis),) * 2)
        op = g @ g.conj().T
        element = PovmElement(on, basis, op / (1.01 * np.linalg.eigvalsh(op).max()))
        on_key, rest_key = _loop_split(rho.modes, set(on))
        rest_basis = sorted({rest_key(occ) for occ in rho.basis})
        index = {occ: k for k, occ in enumerate(rest_basis)}
        e_index = {occ: k for k, occ in enumerate(basis)}
        out = np.zeros((len(rest_basis), len(rest_basis)), dtype=complex)
        for i, occ_i in enumerate(rho.basis):
            for j, occ_j in enumerate(rho.basis):
                a, c = e_index.get(on_key(occ_j)), e_index.get(on_key(occ_i))
                if a is None or c is None or element.operator[a, c] == 0:
                    continue
                w = complex(element.operator[a, c])
                out[index[rest_key(occ_i)], index[rest_key(occ_j)]] += w * rho.matrix[i, j]
        expected = float(np.trace(out).real)
        if expected < 1e-15:
            continue
        prob, conditional = condition_on_povm(rho, element)
        assert prob == expected
        assert conditional.basis == tuple(rest_basis)
        assert np.array_equal(conditional.matrix, out / expected)
