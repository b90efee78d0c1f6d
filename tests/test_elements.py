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
    ModeUnitary,
    ModeMismatchError,
    apply,
    bs_5050,
    extend_modes,
    hwp,
    inner_product,
    make_fock,
    phase_shifter,
    superpose,
)
from rsp_sim.fock import NORM_TOL
from rsp_sim.protocol import splitting_unitary
from helpers import ALL_MODES, random_state, random_unitary, state_distance
from oracles import SPLITTER_MATRIX, output_distribution

RNG = np.random.default_rng(7081525)


def _splitter():
    return bs_5050((SOURCE_H, SOURCE_V), (ALICE_H, ALICE_V), (BOB_H, BOB_V))


def test_bs_matrix_matches_hand_written_convention():
    assert np.allclose(_splitter().matrix, SPLITTER_MATRIX, atol=1e-15)
    assert np.allclose(splitting_unitary().matrix, SPLITTER_MATRIX, atol=1e-15)


def test_bs_is_unitary():
    u = _splitter()
    assert np.max(np.abs(u.matrix.conj().T @ u.matrix - np.eye(6))) < 1e-12


def test_bs_splits_single_photon():
    u = _splitter()
    photon = extend_modes(make_fock([(SOURCE_H, 1)]), ALL_MODES)
    out = apply(u, photon)
    inv = 1.0 / math.sqrt(2.0)
    assert abs(out.amps.get((0, 0, 0, 0, 1, 0), 0j) - inv) < 1e-12       # to Bob
    assert abs(out.amps.get((0, 0, 1, 0, 0, 0), 0j) - 1j * inv) < 1e-12  # reflected, phase i
    assert abs(out.norm() - 1.0) < 1e-12


def test_bs_four_photon_output_matches_permanent_oracle():
    u = _splitter()
    source = extend_modes(make_fock([(SOURCE_H, 2), (SOURCE_V, 2)]), ALL_MODES)
    out = apply(u, source)
    oracle = output_distribution(SPLITTER_MATRIX, (2, 2, 0, 0, 0, 0))
    assert set(out.amps) == set(oracle)
    for occ, amp in oracle.items():
        assert abs(out.amps.get(occ, 0j) - amp) < 1e-12
    # the (1 Alice, 3 Bob) herald carries probability 1/4
    herald_prob = sum(
        abs(a) ** 2 for occ, a in out.amps.items() if occ[2] + occ[3] == 1
    )
    assert abs(herald_prob - 0.25) < 1e-12


def test_bs_roundtrip_returns_input():
    u = _splitter()
    state = random_state(RNG, ALL_MODES, 4)
    inverse = ModeUnitary(u.modes, u.matrix.conj().T)
    back = apply(inverse, apply(u, state))
    assert abs(abs(inner_product(back, state)) - 1.0) < 1e-12


def test_bs_rejects_mismatched_polarizations():
    with pytest.raises(ModeMismatchError):
        bs_5050((SOURCE_V, SOURCE_H), (ALICE_H, ALICE_V), (BOB_H, BOB_V))
    with pytest.raises(ModeMismatchError):
        bs_5050((SOURCE_H, ALICE_V), (ALICE_H, ALICE_V), (BOB_H, BOB_V))


def test_hwp_quarter_turn_swaps_polarizations():
    ket = extend_modes(make_fock([(ALICE_H, 1)]), (ALICE_H, ALICE_V))
    out = apply(hwp(math.pi / 4, (ALICE_H, ALICE_V)), ket)
    assert abs(out.amps.get((0, 1), 0j) - 1.0) < 1e-12
    assert abs(out.amps.get((1, 0), 0j)) < 1e-12


def test_hwp_zero_angle_fixes_h():
    ket = extend_modes(make_fock([(ALICE_H, 1)]), (ALICE_H, ALICE_V))
    out = apply(hwp(0.0, (ALICE_H, ALICE_V)), ket)
    assert abs(out.amps.get((1, 0), 0j) - 1.0) < 1e-12


def test_hwp_eighth_turn_makes_balanced_superposition():
    ket = extend_modes(make_fock([(ALICE_H, 1)]), (ALICE_H, ALICE_V))
    out = apply(hwp(math.pi / 8, (ALICE_H, ALICE_V)), ket)
    inv = 1.0 / math.sqrt(2.0)
    assert abs(out.amps.get((1, 0), 0j) - inv) < 1e-12
    assert abs(out.amps.get((0, 1), 0j) - inv) < 1e-12


def test_hwp_angle_is_periodic_up_to_sign():
    g = 0.3
    assert np.allclose(
        hwp(g + math.pi / 2, (BOB_H, BOB_V)).matrix,
        -hwp(g, (BOB_H, BOB_V)).matrix,
        atol=1e-12,
    )


def test_hwp_rejects_non_pair():
    with pytest.raises(ModeMismatchError):
        hwp(0.1, (ALICE_H, BOB_V))
    with pytest.raises(ModeMismatchError):
        hwp(0.1, (ALICE_V, ALICE_H))


def test_phase_shifter_identity_at_zero():
    ket = superpose([
        (1.0, make_fock([(ALICE_H, 1), (ALICE_V, 0)])),
        (1.0, make_fock([(ALICE_H, 0), (ALICE_V, 1)])),
    ]).normalized()
    out = apply(phase_shifter(0.0, ALICE_V), ket)
    assert state_distance(out, ket) < 1e-12


def test_phase_shifter_pi_flips_v_sign():
    inv = 1.0 / math.sqrt(2.0)
    ket = superpose([
        (inv, make_fock([(ALICE_H, 1), (ALICE_V, 0)])),
        (inv, make_fock([(ALICE_H, 0), (ALICE_V, 1)])),
    ])
    out = apply(phase_shifter(math.pi, ALICE_V), ket)
    target = superpose([
        (inv, make_fock([(ALICE_H, 1), (ALICE_V, 0)])),
        (-inv, make_fock([(ALICE_H, 0), (ALICE_V, 1)])),
    ])
    assert state_distance(out, target) < 1e-12


def test_phase_shifter_quarter_turn_on_single_v_photon():
    ket = make_fock([(ALICE_H, 0), (ALICE_V, 1)])
    out = apply(phase_shifter(math.pi / 2, ALICE_V), ket)
    assert abs(out.amps.get((0, 1), 0j) - 1j) < 1e-12


def test_apply_identity_is_noop():
    state = random_state(RNG, (BOB_H, BOB_V), 3)
    ident = ModeUnitary((BOB_H, BOB_V), np.eye(2, dtype=complex))
    assert state_distance(apply(ident, state), state) < 1e-15


def test_apply_rejects_unknown_modes():
    state = make_fock([(BOB_H, 1), (BOB_V, 1)])
    with pytest.raises(ModeMismatchError):
        apply(hwp(0.2, (ALICE_H, ALICE_V)), state)


def test_apply_preserves_norm_for_random_unitaries():
    for _ in range(1000):
        n_modes = int(RNG.integers(2, 5))
        idx = tuple(sorted(RNG.choice(len(ALL_MODES), size=n_modes, replace=False)))
        modes = tuple(ALL_MODES[i] for i in idx)
        photons = int(RNG.integers(1, 7))
        state = random_state(RNG, modes, photons)
        u = ModeUnitary(modes, random_unitary(RNG, n_modes))
        out = apply(u, state)
        assert abs(out.norm() - 1.0) < 1e-12
        assert out.total_photons == photons


def _padded(u, modes):
    # u's matrix on its own modes, identity on the other modes of ``modes``
    out = np.eye(len(modes), dtype=complex)
    idx = [modes.index(m) for m in u.modes]
    out[np.ix_(idx, idx)] = u.matrix
    return out


def test_apply_composition_homomorphism():
    for _ in range(300):
        modes = (ALICE_H, ALICE_V, BOB_H, BOB_V)
        state = random_state(RNG, modes, int(RNG.integers(1, 6)))
        u = ModeUnitary((ALICE_H, ALICE_V), random_unitary(RNG, 2))
        v = ModeUnitary((ALICE_V, BOB_H, BOB_V), random_unitary(RNG, 3))
        step = apply(u, apply(v, state))
        fused = apply(ModeUnitary(modes, _padded(u, modes) @ _padded(v, modes)), state)
        assert state_distance(step, fused) < 1e-12


def test_unitarity_enforced_at_construction():
    with pytest.raises(ValueError):
        ModeUnitary((BOB_H, BOB_V), np.array([[1.0, 0.0], [0.0, 2.0]]))
    # a wave plate scaled just past the tolerance is no longer unitary
    plate = hwp(0.3, (ALICE_H, ALICE_V)).matrix
    with pytest.raises(ValueError, match="not unitary"):
        ModeUnitary((ALICE_H, ALICE_V), plate * (1.0 + 10 * NORM_TOL))


@pytest.mark.parametrize(
    "angle",
    [0.0, -0.0, 1e-300, math.pi / 8, -math.pi / 3, 2 * math.pi, 1e3, -7.5e4, 1e9, 1e15, 1e300],
)
def test_element_builders_are_unitary_by_construction(angle):
    # the builders skip ModeUnitary's check, so what it would check holds
    # here, also for angles many periods away from zero
    for u in (
        hwp(angle, (ALICE_H, ALICE_V)),
        hwp(angle, (BOB_H, BOB_V)),
        phase_shifter(angle, ALICE_V),
        _splitter(),
    ):
        assert u.matrix.dtype == complex
        assert u.matrix.shape == (len(u.modes), len(u.modes))
        assert len(set(u.modes)) == len(u.modes)
        defect = np.max(np.abs(u.matrix.conj().T @ u.matrix - np.eye(len(u.modes))))
        assert defect <= NORM_TOL
        checked = ModeUnitary(u.modes, u.matrix)
        assert checked.modes == u.modes
        assert np.array_equal(checked.matrix, u.matrix)


def test_apply_and_normalized_return_plain_complex_amplitudes():
    # apply sums numpy complex128 products; the state stores Python complex,
    # whose arithmetic every later stage, and the preset bytes, depend on
    ket = extend_modes(make_fock([(ALICE_H, 1)]), (ALICE_H, ALICE_V))
    out = apply(phase_shifter(0.7, ALICE_V), apply(hwp(0.3, (ALICE_H, ALICE_V)), ket))
    assert out.amps and all(type(a) is complex for a in out.amps.values())
    scaled = superpose([(3.0, out)]).normalized()
    assert all(type(a) is complex for a in scaled.amps.values())
