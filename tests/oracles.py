"""Brute-force reference computations, independent of the library's paths.

Transition amplitudes are evaluated with the permanent formula
<out|U|in> = perm(U[out-rows, in-cols]) / sqrt(prod(in!) * prod(out!)),
using a naive permutation-sum permanent. The library itself expands
creation-operator polynomials and never computes permanents, so agreement
between the two is a genuine cross-check. Alice's instrument ket and Bob's
analysis ket are also built here through the checked public constructors:
Alice's by evolving |1_H> through a half-wave plate and a phase shifter with
``apply``, Bob's by superposing two ``make_fock`` kets. These are the routes
the library's direct two-branch build must match bit for bit. ``superpose``
and ``normalized`` live here because only tests combine and renormalize
kets; the pipeline builds each of its kets directly.
"""

from __future__ import annotations

import itertools
import math
from typing import Iterable

import numpy as np

from rsp_sim import (
    ALICE_H,
    ALICE_V,
    BOB_H,
    BOB_V,
    FockState,
    ModeUnitary,
    apply,
    extend_modes,
    make_fock,
)


def superpose(terms: Iterable[tuple[complex, FockState]]) -> FockState:
    """Linear combination of states, aligned on the union of their modes,
    through the checked ``FockState`` constructor. The result is not
    renormalized; pass it to ``normalized`` if needed."""
    terms = list(terms)
    if not terms:
        raise ValueError("superpose needs at least one term")
    all_modes = tuple(sorted({m for _, s in terms for m in s.modes}))
    amps: dict[tuple[int, ...], complex] = {}
    for coeff, state in terms:
        embedded = extend_modes(state, all_modes)
        for occ, amp in embedded.items():
            amps[occ] = amps.get(occ, 0j) + complex(coeff) * amp
    return FockState(all_modes, amps)


def normalized(state: FockState) -> FockState:
    """``state`` divided by its norm, through the checked constructor."""
    norm = state.norm()
    return FockState(state.modes, {occ: a / norm for occ, a in state.amps.items()})


# 6-mode splitter written out by hand in canonical mode order
# (S_H, S_V, A_H, A_V, B_H, B_V); column j is the image of mode j.
_R = 1.0 / math.sqrt(2.0)
SPLITTER_MATRIX = np.array(
    [
        # S_H     S_V     A_H     A_V     B_H   B_V
        [0, 0, 0, 0, 1, 0],          # -> S_H
        [0, 0, 0, 0, 0, 1],          # -> S_V
        [1j * _R, 0, _R, 0, 0, 0],   # -> A_H
        [0, 1j * _R, 0, _R, 0, 0],   # -> A_V
        [_R, 0, 1j * _R, 0, 0, 0],   # -> B_H
        [0, _R, 0, 1j * _R, 0, 0],   # -> B_V
    ],
    dtype=complex,
)


def naive_permanent(matrix: np.ndarray) -> complex:
    n = matrix.shape[0]
    if n == 0:
        return 1.0 + 0j
    total = 0j
    for perm in itertools.permutations(range(n)):
        term = 1.0 + 0j
        for row, col in enumerate(perm):
            term *= matrix[row, col]
        total += term
    return total


def transition_amplitude(
    unitary: np.ndarray, occ_in: tuple[int, ...], occ_out: tuple[int, ...]
) -> complex:
    if sum(occ_in) != sum(occ_out):
        return 0j
    cols = [j for j, c in enumerate(occ_in) for _ in range(c)]
    rows = [i for i, c in enumerate(occ_out) for _ in range(c)]
    sub = unitary[np.ix_(rows, cols)]
    norm = math.sqrt(
        math.prod(math.factorial(c) for c in occ_in)
        * math.prod(math.factorial(c) for c in occ_out)
    )
    return naive_permanent(sub) / norm


def weak_compositions(total: int, parts: int):
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for tail in weak_compositions(total - head, parts - 1):
            yield (head,) + tail


def output_distribution(
    unitary: np.ndarray, occ_in: tuple[int, ...]
) -> dict[tuple[int, ...], complex]:
    """Amplitude of every output occupation, by brute force."""
    total = sum(occ_in)
    modes = unitary.shape[0]
    out = {}
    for occ_out in weak_compositions(total, modes):
        amp = transition_amplitude(unitary, occ_in, occ_out)
        if abs(amp) > 1e-15:
            out[occ_out] = amp
    return out


def splitter_herald_amplitudes(n: int) -> dict[tuple[int, ...], complex]:
    """Amplitudes of (1 photon at A, 2n-1 at B) outputs for an n-pair source."""
    occ_in = (n, n, 0, 0, 0, 0)
    matches = {}
    for a_h, a_v in ((1, 0), (0, 1)):
        for b_h in range(2 * n):
            b_v = 2 * n - 1 - b_h
            occ_out = (0, 0, a_h, a_v, b_h, b_v)
            amp = transition_amplitude(SPLITTER_MATRIX, occ_in, occ_out)
            if abs(amp) > 1e-15:
                matches[occ_out] = amp
    return matches


def bob_measurement_ket_by_superposition(n: int, delta: float, phi: float = 0.0) -> FockState:
    """Bob's analysis ket cos(2 delta)|n,(n-1)> + e^{i phi} sin(2 delta)|(n-1),n>
    through the checked public constructors: two ``make_fock`` kets,
    ``superpose`` and ``normalized``."""
    hi = make_fock([(BOB_H, n), (BOB_V, n - 1)])
    lo = make_fock([(BOB_H, n - 1), (BOB_V, n)])
    c = math.cos(2.0 * delta)
    s = math.sin(2.0 * delta)
    return normalized(superpose([(c, hi), (s * np.exp(1j * phi), lo)]))


def wave_plate(gamma: float) -> ModeUnitary:
    """Alice's half-wave plate at ``gamma``, Jones matrix
    [[cos 2g, sin 2g], [sin 2g, -cos 2g]], through the checked constructor."""
    c = math.cos(2.0 * gamma)
    s = math.sin(2.0 * gamma)
    return ModeUnitary((ALICE_H, ALICE_V), np.array([[c, s], [s, -c]], dtype=complex))


def phase_shift(theta: float) -> ModeUnitary:
    """Alice's phase shifter: e^{i theta} on her V mode's creation operator."""
    return ModeUnitary((ALICE_V,), np.array([[np.exp(1j * theta)]], dtype=complex))


def alice_measurement_ket_by_elements(gamma: float, theta: float = 0.0) -> FockState:
    """Alice's instrument ket cos(2 gamma)|1_H,0_V> + e^{i theta} sin(2 gamma)|0_H,1_V>
    by evolving |1_H> through her wave plate and, when theta != 0, her phase
    shifter on V."""
    ket = extend_modes(make_fock([(ALICE_H, 1)]), (ALICE_H, ALICE_V))
    ket = apply(wave_plate(gamma), ket)
    if theta != 0.0:
        ket = apply(phase_shift(theta), ket)
    return normalized(ket)
