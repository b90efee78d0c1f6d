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
    DensityOperator,
    FockState,
    Mode,
    ModeMismatchError,
    PovmElement,
    condition_on_povm,
    inner_product,
    make_fock,
    superpose,
    tensor,
    to_density,
)
from helpers import ALL_MODES, random_state, reference_shared_ket

RNG = np.random.default_rng(20240811)


def test_make_fock_single_term():
    s = make_fock([(SOURCE_H, 2), (SOURCE_V, 2)])
    assert s.total_photons == 4
    assert s.amps.get((2, 2), 0j) == 1.0 + 0j
    assert len(s.amps) == 1


def test_make_fock_one_photon():
    s = make_fock([(ALICE_H, 1)])
    assert s.amps.get((1,), 0j) == 1.0
    assert s.modes == (ALICE_H,)


def test_make_fock_rejects_zero_photons():
    with pytest.raises(ValueError):
        make_fock([(BOB_H, 0), (BOB_V, 0)])


def test_make_fock_rejects_negative_count():
    with pytest.raises(ValueError):
        make_fock([(BOB_H, -1), (BOB_V, 2)])


def test_make_fock_rejects_duplicates_and_non_modes():
    with pytest.raises(ModeMismatchError):
        make_fock([(BOB_H, 1), (BOB_H, 1)])
    with pytest.raises(ModeMismatchError):
        make_fock([("BOB_H", 1)])


def test_mode_ordering_is_canonical():
    # source < alice < bob, H < V, tag ascending; input order must not matter
    s = make_fock([(BOB_V, 1), (SOURCE_H, 1), (ALICE_V, 1), (ALICE_H, 1)])
    assert s.modes == (SOURCE_H, ALICE_H, ALICE_V, BOB_V)
    tagged = Mode(BOB_V.location, BOB_V.polarization, tag=2)
    assert sorted([tagged, BOB_V]) == [BOB_V, tagged]


def test_inner_product_orthonormal():
    a = make_fock([(BOB_H, 2), (BOB_V, 1)])
    b = make_fock([(BOB_H, 1), (BOB_V, 2)])
    assert inner_product(a, a) == 1.0 + 0j
    assert inner_product(a, b) == 0j


def test_inner_product_requires_matching_layout():
    a = make_fock([(BOB_H, 2), (BOB_V, 1)])
    b = make_fock([(ALICE_H, 2), (ALICE_V, 1)])
    with pytest.raises(ModeMismatchError):
        inner_product(a, b)
    c = make_fock([(BOB_H, 1), (BOB_V, 1)])
    with pytest.raises(ModeMismatchError):
        inner_product(a, c)


def test_two_branch_state_is_normalized():
    # balanced coefficients: sum of |amp|^2 over both kets is exactly 1
    inv = 1.0 / math.sqrt(2.0)
    psi = superpose([
        (inv, make_fock([(BOB_H, 2), (BOB_V, 1)])),
        (inv, make_fock([(BOB_H, 1), (BOB_V, 2)])),
    ])
    assert abs(inner_product(psi, psi) - 1.0) < 1e-12


def test_inner_product_conjugate_symmetry_is_exact():
    for _ in range(200):
        modes = (BOB_H, BOB_V)
        a = random_state(RNG, modes, 3)
        b = random_state(RNG, modes, 3)
        assert inner_product(a, b) == inner_product(b, a).conjugate()


def test_to_density_single_ket():
    rho = to_density(make_fock([(BOB_H, 2), (BOB_V, 1)]))
    assert rho.basis == ((2, 1),)
    assert np.allclose(rho.matrix, [[1.0]])


def test_to_density_balanced_superposition():
    inv = 1.0 / math.sqrt(2.0)
    psi = superpose([
        (inv, make_fock([(BOB_H, 2), (BOB_V, 1)])),
        (inv, make_fock([(BOB_H, 1), (BOB_V, 2)])),
    ])
    rho = to_density(psi)
    assert np.allclose(rho.matrix, 0.5 * np.ones((2, 2)), atol=1e-12)


def test_to_density_unbalanced_real_coefficients():
    psi = superpose([
        (0.6, make_fock([(BOB_H, 2), (BOB_V, 1)])),
        (0.8, make_fock([(BOB_H, 1), (BOB_V, 2)])),
    ])
    rho = to_density(psi)
    # basis sorts (1,2) before (2,1)
    expected = np.array([[0.64, 0.48], [0.48, 0.36]])
    assert np.allclose(rho.matrix, expected, atol=1e-12)


def _trace_out(rho, traced):
    # Tr_traced(rho): condition on the identity element over every occupation
    # the traced modes take in rho's basis
    modes = tuple(sorted(traced))
    idx = [rho.modes.index(m) for m in modes if m in rho.modes]
    basis = sorted({tuple(occ[i] for i in idx) for occ in rho.basis})
    identity = PovmElement(modes, basis, np.eye(len(basis)))
    probability, reduced = condition_on_povm(rho, identity)
    assert abs(probability - rho.trace()) < 1e-12
    return reduced


def test_partial_trace_of_shared_state_bob_side():
    rho = to_density(reference_shared_ket(2))
    bob = _trace_out(rho, {ALICE_H, ALICE_V})
    assert bob.modes == (BOB_H, BOB_V)
    assert abs(bob.trace() - 1.0) < 1e-12
    assert abs(bob.entry((2, 1), (2, 1)) - 0.5) < 1e-12
    assert abs(bob.entry((1, 2), (1, 2)) - 0.5) < 1e-12
    assert abs(bob.entry((2, 1), (1, 2))) < 1e-12


def test_partial_trace_separable_state():
    product = tensor(
        make_fock([(ALICE_H, 1)]),
        make_fock([(BOB_H, 2), (BOB_V, 1)]),
    )
    reduced = _trace_out(to_density(product), {ALICE_H})
    assert reduced.basis == ((2, 1),)
    assert np.allclose(reduced.matrix, [[1.0]])


def test_partial_trace_of_shared_state_alice_side():
    rho = to_density(reference_shared_ket(2))
    alice = _trace_out(rho, {BOB_H, BOB_V})
    eig = np.sort(np.linalg.eigvalsh(alice.matrix))
    assert np.allclose(eig, [0.5, 0.5], atol=1e-12)


def test_partial_trace_rejects_bad_keep_sets():
    rho = to_density(reference_shared_ket(2))
    with pytest.raises(ModeMismatchError):
        _trace_out(rho, set(rho.modes))  # nothing would be left
    with pytest.raises(ModeMismatchError):
        _trace_out(rho, {SOURCE_H})  # not a mode of the operator


def test_partial_trace_random_states_stay_physical():
    # 1000 random pure states, arbitrary traced subsets: reduced operators are
    # unit-trace with spectrum above the PSD floor
    for _ in range(1000):
        n_modes = int(RNG.integers(2, 5))
        modes = tuple(sorted(RNG.choice(len(ALL_MODES), size=n_modes, replace=False)))
        modes = tuple(ALL_MODES[i] for i in modes)
        photons = int(RNG.integers(1, 7))
        state = random_state(RNG, modes, photons)
        keep_size = int(RNG.integers(1, len(modes)))
        keep = set(RNG.choice(len(modes), size=keep_size, replace=False))
        traced = {modes[i] for i in range(len(modes)) if i not in keep}
        reduced = _trace_out(to_density(state), traced)
        assert reduced.modes == tuple(modes[i] for i in sorted(keep))
        assert abs(reduced.trace() - 1.0) < 1e-12
        assert np.max(np.abs(reduced.matrix - reduced.matrix.conj().T)) < 1e-12
        assert np.linalg.eigvalsh(reduced.matrix).min() > -1e-10


def test_operations_preserve_photon_number():
    state = random_state(RNG, (ALICE_H, ALICE_V, BOB_H, BOB_V), 4)
    assert state.total_photons == 4
    assert state.normalized().total_photons == 4
    assert all(sum(occ) == 4 for occ in to_density(state).basis)


def test_mixed_photon_numbers_rejected():
    with pytest.raises(ValueError):
        FockState((BOB_H, BOB_V), {(2, 1): 1.0, (1, 1): 0.5})


def test_unchecked_constructors_match_the_checked_ones():
    # what the library builds for itself skips the mode and basis checks but
    # stores the same bits: plain complex, pruned, each amplitude added to 0j
    amps = {
        (2, 0): np.complex128(complex(-0.0, 0.6)),
        (1, 1): np.complex128(complex(-0.8, -0.0)),
        (0, 2): 1e-16,
    }
    modes = (ALICE_H, ALICE_V)
    checked, unchecked = FockState(modes, amps), FockState._unchecked(modes, amps)
    assert repr(list(unchecked.amps.items())) == repr(list(checked.amps.items()))
    assert list(checked.amps) == [(2, 0), (1, 1)]
    # 0j + a turns a -0.0 part into +0.0
    assert math.copysign(1.0, unchecked.amps[(2, 0)].real) == 1.0
    assert math.copysign(1.0, unchecked.amps[(1, 1)].imag) == 1.0
    assert all(type(a) is complex for a in unchecked.amps.values())
    assert unchecked.modes == checked.modes
    assert unchecked.total_photons == checked.total_photons == 2
    with pytest.raises(ValueError, match="no support"):
        FockState._unchecked(modes, {(2, 0): 1e-16})
    rho = to_density(checked)
    same = DensityOperator(rho.modes, rho.basis, rho.matrix)
    assert (rho.modes, rho.basis) == (same.modes, same.basis)
    assert np.array_equal(rho.matrix, same.matrix)
    assert rho.entry((2, 0), (1, 1)) == same.entry((2, 0), (1, 1))
