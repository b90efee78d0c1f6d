"""Linear optical elements as unitaries on creation operators.

Convention, fixed once and verified by the test suite: on the 50/50
beamsplitter the reflected arm carries a factor i,
a_source -> (a_bob + i a_alice) / sqrt(2) per polarization.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass

import numpy as np

from .fock import (
    NORM_TOL,
    FockState,
    Mode,
    ModeMismatchError,
    Polarization,
)


@dataclass(frozen=True, eq=False)
class ModeUnitary:
    """Unitary matrix acting on the creation operators of ``modes``.

    Column j is the image of mode j: a_j -> sum_k matrix[k, j] a_k.
    """

    modes: tuple[Mode, ...]
    matrix: np.ndarray

    def __post_init__(self):
        modes = tuple(self.modes)
        matrix = np.asarray(self.matrix, dtype=complex)
        if len(set(modes)) != len(modes):
            raise ModeMismatchError("duplicate modes in unitary")
        if matrix.shape != (len(modes), len(modes)):
            raise ValueError(f"matrix shape {matrix.shape} does not match {len(modes)} modes")
        defect = np.max(np.abs(matrix.conj().T @ matrix - np.eye(len(modes))))
        if defect > NORM_TOL:
            raise ValueError(f"matrix is not unitary (defect {defect:.3e})")
        object.__setattr__(self, "modes", modes)
        object.__setattr__(self, "matrix", matrix)

    @classmethod
    def _unchecked(cls, modes: tuple[Mode, ...], matrix: np.ndarray) -> "ModeUnitary":
        """A unitary from distinct modes and a complex matrix of their size
        that is unitary by construction, as ``bs_5050`` makes."""
        u = object.__new__(cls)
        object.__setattr__(u, "modes", modes)
        object.__setattr__(u, "matrix", matrix)
        return u


def _require_hv_pair(pair: tuple[Mode, Mode], what: str) -> tuple[Mode, Mode]:
    h, v = pair
    if h.location != v.location or h.tag != v.tag:
        raise ModeMismatchError(f"{what}: H and V modes must share a location")
    if h.polarization is not Polarization.H or v.polarization is not Polarization.V:
        raise ModeMismatchError(f"{what}: expected an (H, V) pair, got "
                                f"({h.label()}, {v.label()})")
    return h, v


def bs_5050(
    source: tuple[Mode, Mode],
    alice: tuple[Mode, Mode],
    bob: tuple[Mode, Mode],
) -> ModeUnitary:
    """Polarization-preserving 50/50 beamsplitter from the source port.

    Each source creation operator splits as (bob + i alice)/sqrt(2). The
    returned matrix is completed to a proper 6-mode unitary; the extra
    columns describe the unused reverse port and never act on our inputs.
    """
    s_pair = _require_hv_pair(source, "beamsplitter source")
    a_pair = _require_hv_pair(alice, "beamsplitter output A")
    b_pair = _require_hv_pair(bob, "beamsplitter output B")
    modes = tuple(sorted(s_pair + a_pair + b_pair))
    if len(modes) != 6:
        raise ModeMismatchError("beamsplitter ports must be six distinct modes")
    pos = {m: i for i, m in enumerate(modes)}
    r = 1.0 / math.sqrt(2.0)
    mat = np.zeros((6, 6), dtype=complex)
    for s, a, b in zip(s_pair, a_pair, b_pair):
        mat[pos[b], pos[s]] = r
        mat[pos[a], pos[s]] = 1j * r
        mat[pos[a], pos[a]] = r
        mat[pos[b], pos[a]] = 1j * r
        mat[pos[s], pos[b]] = 1.0
    return ModeUnitary._unchecked(modes, mat)


def _compositions(n: int, k: int):
    # weak compositions of n into k ordered parts
    if k == 1:
        yield (n,)
        return
    for first in range(n + 1):
        for rest in _compositions(n - first, k - 1):
            yield (first,) + rest


def _multinomial(n: int, parts: tuple[int, ...]) -> int:
    out = math.factorial(n)
    for p in parts:
        out //= math.factorial(p)
    return out


def apply(u: ModeUnitary, state: FockState) -> FockState:
    """Evolve a state by substituting each transformed creation operator.

    Every basis ket is expanded as a polynomial in creation operators; the
    operators of ``u.modes`` are replaced by their images and the product is
    re-expanded multinomially with bosonic sqrt(n!) bookkeeping. Exact for
    any photon number; untouched modes pass through.
    """
    positions = []
    for m in u.modes:
        try:
            positions.append(state.modes.index(m))
        except ValueError:
            raise ModeMismatchError(f"state has no mode {m.label()}") from None
    k = len(u.modes)
    mat = u.matrix
    out: dict[tuple[int, ...], complex] = defaultdict(complex)
    for occ, amp in state.items():
        in_norm = math.prod(math.factorial(occ[p]) for p in positions)
        partial: dict[tuple[int, ...], complex] = {(0,) * k: amp / math.sqrt(in_norm)}
        for col in range(k):
            n_j = occ[positions[col]]
            if n_j == 0:
                continue
            grown: dict[tuple[int, ...], complex] = defaultdict(complex)
            weights = []
            for comp in _compositions(n_j, k):
                w = complex(_multinomial(n_j, comp))
                for row, power in enumerate(comp):
                    if power:
                        w *= mat[row, col] ** power
                if w != 0:
                    weights.append((comp, w))
            for sub_occ, coeff in partial.items():
                for comp, w in weights:
                    new_occ = tuple(sub_occ[r] + comp[r] for r in range(k))
                    grown[new_occ] += coeff * w
            partial = grown
        for sub_occ, coeff in partial.items():
            out_norm = math.prod(math.factorial(c) for c in sub_occ)
            full = list(occ)
            for r in range(k):
                full[positions[r]] = sub_occ[r]
            out[tuple(full)] += coeff * math.sqrt(out_norm)
    return FockState._unchecked(state.modes, out)
