"""Shared test utilities."""

from __future__ import annotations

import math

import numpy as np

from rsp_sim import (
    ALICE_H,
    ALICE_V,
    BOB_H,
    BOB_V,
    FockState,
    Mode,
    SOURCE_H,
    SOURCE_V,
    make_fock,
    tensor,
)
from oracles import normalized, superpose

ALL_MODES = (SOURCE_H, SOURCE_V, ALICE_H, ALICE_V, BOB_H, BOB_V)


def angdiff(a: float, b: float, period: float = 2 * math.pi) -> float:
    """Smallest absolute difference between two angles modulo ``period``."""
    d = (a - b) % period
    return min(d, period - d)


def state_distance(a: FockState, b: FockState) -> float:
    assert a.modes == b.modes
    keys = set(a.amps) | set(b.amps)
    return max(abs(a.amps.get(k, 0j) - b.amps.get(k, 0j)) for k in keys)


def random_state(rng: np.random.Generator, modes: tuple[Mode, ...], photons: int) -> FockState:
    """Normalized state with Gaussian-random amplitudes on every basis ket."""
    from oracles import weak_compositions

    amps = {}
    for occ in weak_compositions(photons, len(modes)):
        amps[occ] = complex(rng.normal(), rng.normal())
    return normalized(FockState(modes, amps))


def random_unitary(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Haar-ish random unitary from a QR decomposition."""
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(g)
    phases = np.diag(r).copy()
    phases /= np.abs(phases)
    return q * phases


def reference_shared_ket(n: int) -> FockState:
    """The printed two-branch form of the heralded shared state."""
    branch_h = tensor(
        make_fock([(ALICE_H, 1), (ALICE_V, 0)]),
        make_fock([(BOB_H, n - 1), (BOB_V, n)]),
    )
    branch_v = tensor(
        make_fock([(ALICE_H, 0), (ALICE_V, 1)]),
        make_fock([(BOB_H, n), (BOB_V, n - 1)]),
    )
    inv = 1.0 / math.sqrt(2.0)
    return superpose([(inv, branch_h), (inv, branch_v)])


def tagged_population(state: FockState) -> float:
    """Probability of at least one photon in a tagged (auxiliary) mode."""
    tagged = [i for i, mode in enumerate(state.modes) if mode.tag > 0]
    return sum(
        abs(amp) ** 2 for occ, amp in state.items() if any(occ[i] > 0 for i in tagged)
    )
