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
    FockState,
    extend_modes,
    inner_product,
    make_fock,
    superpose,
)
from rsp_sim.fock import NORM_TOL
from rsp_sim.protocol import alice_measurement_ket, bob_measurement_ket, splitting_unitary
from helpers import ALL_MODES, random_state, random_unitary, state_distance
from oracles import SPLITTER_MATRIX, output_distribution, phase_shift, wave_plate

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


def test_apply_identity_is_noop():
    state = random_state(RNG, (BOB_H, BOB_V), 3)
    ident = ModeUnitary((BOB_H, BOB_V), np.eye(2, dtype=complex))
    assert state_distance(apply(ident, state), state) < 1e-15


def test_apply_rejects_unknown_modes():
    state = make_fock([(BOB_H, 1), (BOB_V, 1)])
    with pytest.raises(ModeMismatchError):
        apply(wave_plate(0.2), state)


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
    plate = wave_plate(0.3).matrix
    with pytest.raises(ValueError, match="not unitary"):
        ModeUnitary((ALICE_H, ALICE_V), plate * (1.0 + 10 * NORM_TOL))


@pytest.mark.parametrize(
    "angle",
    [0.0, -0.0, 1e-300, math.pi / 8, -math.pi / 3, 2 * math.pi, 1e3, -7.5e4, 1e9, 1e15, 1e300],
)
def test_element_builders_are_unitary_by_construction(angle):
    # the splitter and the instrument kets skip ModeUnitary's and FockState's
    # checks, so what those would check holds here, also for angles many
    # periods away from zero
    u = _splitter()
    assert u.matrix.dtype == complex
    assert u.matrix.shape == (len(u.modes), len(u.modes))
    assert len(set(u.modes)) == len(u.modes)
    defect = np.max(np.abs(u.matrix.conj().T @ u.matrix - np.eye(len(u.modes))))
    assert defect <= NORM_TOL
    checked = ModeUnitary(u.modes, u.matrix)
    assert checked.modes == u.modes
    assert np.array_equal(checked.matrix, u.matrix)
    for ket in (alice_measurement_ket(angle, angle), bob_measurement_ket(3, angle, angle)):
        checked = FockState(ket.modes, ket.amps)
        assert checked.modes == ket.modes
        assert checked.amps == ket.amps
        assert checked.total_photons == ket.total_photons
        assert all(type(a) is complex for a in ket.amps.values())
        assert abs(ket.norm() - 1.0) <= NORM_TOL


def test_apply_and_normalized_return_plain_complex_amplitudes():
    # apply sums numpy complex128 products; the state stores Python complex,
    # whose arithmetic every later stage, and the preset bytes, depend on
    ket = extend_modes(make_fock([(ALICE_H, 1)]), (ALICE_H, ALICE_V))
    out = apply(phase_shift(0.7), apply(wave_plate(0.3), ket))
    assert out.amps and all(type(a) is complex for a in out.amps.values())
    scaled = superpose([(3.0, out)]).normalized()
    assert all(type(a) is complex for a in scaled.amps.values())
