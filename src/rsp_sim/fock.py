"""Multimode bosonic Fock states on a fixed photon-number shell.

Pure states are sparse maps from occupation vectors to complex amplitudes
over an ordered set of polarization modes; mixed states are dense matrices
over an explicit occupation basis. Every operation conserves total photon
number. Dense products are ``np.einsum`` calls: numpy builds their loops for
its baseline CPU (no FMA on x86-64) and they call no BLAS, so their bits do
not depend on the host's SIMD dispatch or BLAS kernels.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from enum import IntEnum
from typing import Iterable, Mapping

import numpy as np

NORM_TOL = 1e-12       # normalization / unitarity / eigenvalue-bound tolerance
AMP_PRUNE = 1e-15      # amplitudes at or below this are treated as exact zeros


class ModeMismatchError(ValueError):
    """Raised when two objects do not share a compatible mode layout."""


class Location(IntEnum):
    SOURCE = 0
    ALICE = 1
    BOB = 2


class Polarization(IntEnum):
    H = 0
    V = 1


@dataclass(frozen=True, order=True)
class Mode:
    """One optical mode: owner, polarization, distinguishability tag.

    tag 0 is the principal temporal/spectral mode; tags > 0 are auxiliary
    modes that only appear in distinguishability studies. The dataclass
    field order (location, polarization, tag) defines the canonical total
    ordering used to serialize occupation vectors.
    """

    location: Location
    polarization: Polarization
    tag: int = 0

    def __post_init__(self):
        if self.tag < 0:
            raise ValueError(f"mode tag must be >= 0, got {self.tag}")

    def label(self) -> str:
        loc = {Location.SOURCE: "S", Location.ALICE: "A", Location.BOB: "B"}[self.location]
        pol = "H" if self.polarization is Polarization.H else "V"
        suffix = f"~{self.tag}" if self.tag else ""
        return f"{loc}.{pol}{suffix}"


SOURCE_H = Mode(Location.SOURCE, Polarization.H)
SOURCE_V = Mode(Location.SOURCE, Polarization.V)
ALICE_H = Mode(Location.ALICE, Polarization.H)
ALICE_V = Mode(Location.ALICE, Polarization.V)
BOB_H = Mode(Location.BOB, Polarization.H)
BOB_V = Mode(Location.BOB, Polarization.V)


def occupation_label(modes: tuple[Mode, ...], occ: tuple[int, ...]) -> str:
    """Human-readable tag for one occupation vector, e.g. ``2H,1V``.

    Zero counts of principal modes are kept (``3H,0V``); empty auxiliary
    modes are dropped so undisturbed states read naturally. When the modes
    span several locations each group is prefixed, e.g. ``A:1H,0V B:2H,1V``.
    """
    groups: dict[Location, list[str]] = {}
    for mode, count in zip(modes, occ):
        if mode.tag > 0 and count == 0:
            continue
        pol = "H" if mode.polarization is Polarization.H else "V"
        suffix = f"~{mode.tag}" if mode.tag else ""
        groups.setdefault(mode.location, []).append(f"{count}{pol}{suffix}")
    if len(groups) <= 1:
        return ",".join(part for parts in groups.values() for part in parts)
    prefix = {Location.SOURCE: "S", Location.ALICE: "A", Location.BOB: "B"}
    return " ".join(
        f"{prefix[loc]}:{','.join(parts)}" for loc, parts in sorted(groups.items())
    )


def _count(c) -> int:
    """A photon count as an int; one that is not whole raises, not truncates."""
    if not float(c).is_integer():
        raise ValueError(f"photon count {c!r} is not a whole number")
    return int(c)


def _pruned(
    amplitudes: Iterable[tuple[tuple[int, ...], complex]],
) -> dict[tuple[int, ...], complex]:
    """Amplitudes as plain ``complex``, each above ``AMP_PRUNE``, equal keys
    summed; a NaN or infinite amplitude raises instead of being dropped."""
    amps: dict[tuple[int, ...], complex] = {}
    for occ, amp in amplitudes:
        amp = complex(amp)
        size = abs(amp)
        if AMP_PRUNE < size < math.inf:
            amps[occ] = amps.get(occ, 0j) + amp
        elif not size <= AMP_PRUNE:
            raise ValueError(f"amplitude {amp!r} of {occ} is not finite")
    if not amps:
        raise ValueError("state has no support")
    return amps


def _norm(amps: Mapping[tuple[int, ...], complex]) -> float:
    """The norm of ``amps``, summed in sorted key order."""
    return math.sqrt(sum(abs(a) ** 2 for _, a in sorted(amps.items())))


def _normalized(amps: Mapping[tuple[int, ...], complex]) -> dict[tuple[int, ...], complex]:
    """Pruned amplitudes divided by their ``_norm``, then pruned again."""
    norm = _norm(amps)
    if norm <= AMP_PRUNE:
        raise ValueError("cannot normalize a numerically zero state")
    return _pruned((occ, a / norm) for occ, a in amps.items())


class FockState:
    """Sparse superposition over occupation vectors of a fixed mode set.

    Amplitudes below ``AMP_PRUNE`` are dropped at construction, so absent
    keys are exact zeros. States are treated as immutable values, so
    ``_splits`` can keep measurement's on (x) rest split of the state's
    kets, keyed by the measured modes, for as long as the state lives.
    """

    __slots__ = ("modes", "amps", "total_photons", "_splits")

    def __init__(self, modes: Iterable[Mode], amplitudes: Mapping[tuple[int, ...], complex]):
        modes = tuple(modes)
        if len(set(modes)) != len(modes):
            raise ModeMismatchError("duplicate modes in state")
        if list(modes) != sorted(modes):
            raise ModeMismatchError("modes must be given in canonical order")
        amps = _pruned(
            (tuple(map(_count, occ)), amp) for occ, amp in amplitudes.items()
        )
        for occ in amps:
            if len(occ) != len(modes):
                raise ModeMismatchError(
                    f"occupation length {len(occ)} does not match {len(modes)} modes"
                )
            if any(c < 0 for c in occ):
                raise ValueError(f"negative occupation in {occ}")
        totals = {sum(occ) for occ in amps}
        if len(totals) != 1:
            raise ValueError(f"mixed photon numbers {sorted(totals)} in one state")
        total = totals.pop()
        if total < 1:
            raise ValueError("state must carry at least one photon")
        self.modes = modes
        self.amps = amps
        self.total_photons = total
        self._splits = {}

    @classmethod
    def _unchecked(
        cls, modes: tuple[Mode, ...], amplitudes: Mapping[tuple[int, ...], complex]
    ) -> "FockState":
        """A state from canonically ordered modes and keys that already match
        them and share one photon number, as the library's own operations
        produce; only the amplitudes are pruned and summed."""
        return cls._of_pruned(modes, _pruned(amplitudes.items()))

    @classmethod
    def _of_pruned(
        cls, modes: tuple[Mode, ...], amps: dict[tuple[int, ...], complex]
    ) -> "FockState":
        """``_unchecked`` for amplitudes that ``_pruned`` already returned."""
        state = object.__new__(cls)
        state.modes = modes
        state.amps = amps
        state.total_photons = sum(next(iter(amps)))
        state._splits = {}
        return state

    def norm(self) -> float:
        return _norm(self.amps)

    def normalized(self) -> "FockState":
        return FockState._of_pruned(self.modes, _normalized(self.amps))

    def items(self):
        return sorted(self.amps.items())

    def __repr__(self) -> str:
        terms = []
        for occ, amp in self.items()[:4]:
            terms.append(f"({amp:.4g})|{occupation_label(self.modes, occ)}>")
        more = " + ..." if len(self.amps) > 4 else ""
        return f"FockState({' + '.join(terms)}{more})"


def make_fock(occupations: Iterable[tuple[Mode, int]]) -> FockState:
    """Single occupation-basis ket with amplitude 1 from (mode, count) pairs."""
    pairs = list(occupations)
    modes = [m for m, _ in pairs]
    if len(set(modes)) != len(modes):
        raise ModeMismatchError("duplicate mode in occupation list")
    for mode, count in pairs:
        if not isinstance(mode, Mode):
            raise ModeMismatchError(f"not a mode: {mode!r}")
        if count < 0:
            raise ValueError(f"negative photon count {count} for {mode.label()}")
    pairs.sort(key=lambda p: p[0])
    occ = tuple(count for _, count in pairs)
    if sum(occ) < 1:
        raise ValueError("at least one photon required")
    return FockState(tuple(m for m, _ in pairs), {occ: 1.0 + 0j})


def superpose(terms: Iterable[tuple[complex, FockState]]) -> FockState:
    """Linear combination of states, aligned on the union of their modes.

    The result is not renormalized; call ``.normalized()`` if needed.
    """
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


def _relabel(state: FockState, target: tuple[Mode, ...]) -> list[tuple[tuple[int, ...], complex]]:
    """The state's kets as occupation vectors over ``target``, a canonically
    ordered superset of its modes; modes the state lacks hold 0 photons."""
    slot = {m: i for i, m in enumerate(state.modes)}
    picks = [slot.get(m) for m in target]
    return [
        (tuple(0 if i is None else occ[i] for i in picks), amp)
        for occ, amp in state.amps.items()
    ]


def extend_modes(state: FockState, modes: Iterable[Mode]) -> FockState:
    """Embed a state into a larger mode set; new modes get occupation 0."""
    target = tuple(sorted(set(modes) | set(state.modes)))
    if target == state.modes:
        return state
    return FockState._unchecked(target, dict(_relabel(state, target)))


def without_modes(state: FockState, drop: Iterable[Mode]) -> FockState:
    """Remove modes that are unoccupied in every basis ket."""
    drop = set(drop)
    missing = drop - set(state.modes)
    if missing:
        raise ModeMismatchError(f"cannot drop absent modes {sorted(m.label() for m in missing)}")
    keep_idx = [i for i, m in enumerate(state.modes) if m not in drop]
    drop_idx = [i for i, m in enumerate(state.modes) if m in drop]
    for occ in state.amps:
        if any(occ[i] for i in drop_idx):
            raise ValueError("cannot drop occupied modes")
    modes = tuple(state.modes[i] for i in keep_idx)
    amps = {tuple(occ[i] for i in keep_idx): a for occ, a in state.amps.items()}
    return FockState._unchecked(modes, amps)


def tensor(a: FockState, b: FockState) -> FockState:
    """Product state of two states on disjoint mode sets."""
    if set(a.modes) & set(b.modes):
        raise ModeMismatchError("tensor factors share modes")
    modes = tuple(sorted(a.modes + b.modes))
    left, right = _relabel(a, modes), _relabel(b, modes)
    amps = {
        tuple(map(operator.add, occ_a, occ_b)): amp_a * amp_b
        for occ_a, amp_a in left
        for occ_b, amp_b in right
    }
    return FockState._unchecked(modes, amps)


def inner_product(a: FockState, b: FockState) -> complex:
    """<a|b> in the orthonormal occupation basis.

    Both states must share the same mode tuple and photon number. Terms are
    accumulated in sorted key order, which makes
    ``inner_product(a, b) == conj(inner_product(b, a))`` hold exactly.
    """
    if a.modes != b.modes:
        raise ModeMismatchError("states live on different mode sets")
    if a.total_photons != b.total_photons:
        raise ModeMismatchError(
            f"photon numbers differ: {a.total_photons} vs {b.total_photons}"
        )
    keys = sorted(set(a.amps) & set(b.amps))
    return sum((a.amps[k].conjugate() * b.amps[k] for k in keys), 0j)


def _checked_basis(
    modes: Iterable[Mode], basis: Iterable[tuple[int, ...]]
) -> tuple[tuple[Mode, ...], tuple[tuple[int, ...], ...]]:
    """Modes and basis as tuples: unique canonically ordered modes, and
    distinct entries of one non-negative count per mode."""
    modes = tuple(modes)
    basis = tuple(tuple(map(_count, occ)) for occ in basis)
    if list(modes) != sorted(modes) or len(set(modes)) != len(modes):
        raise ModeMismatchError("modes must be unique and canonically ordered")
    if any(len(occ) != len(modes) for occ in basis):
        raise ModeMismatchError("basis entry length does not match mode count")
    if any(c < 0 for occ in basis for c in occ):
        raise ValueError("negative occupation in basis")
    if len(set(basis)) != len(basis):
        raise ValueError("duplicate occupation vectors in basis")
    return modes, basis


class DensityOperator:
    """Dense operator over an explicit, canonically sorted occupation basis;
    ``_splits`` is kept as ``FockState``'s is."""

    __slots__ = ("modes", "basis", "matrix", "_index", "_splits")

    def __init__(
        self,
        modes: Iterable[Mode],
        basis: Iterable[tuple[int, ...]],
        matrix: np.ndarray,
    ):
        modes, basis = _checked_basis(modes, basis)
        matrix = np.asarray(matrix, dtype=complex)
        if matrix.shape != (len(basis), len(basis)):
            raise ValueError(f"matrix shape {matrix.shape} does not match basis size {len(basis)}")
        self.modes = modes
        self.basis = basis
        self.matrix = matrix
        self._index = {occ: i for i, occ in enumerate(basis)}
        self._splits = {}

    @classmethod
    def _unchecked(
        cls,
        modes: tuple[Mode, ...],
        basis: tuple[tuple[int, ...], ...],
        matrix: np.ndarray,
    ) -> "DensityOperator":
        """An operator from a basis that already matches ``modes`` and a
        complex matrix of its size, as the library's own operations produce."""
        rho = object.__new__(cls)
        rho.modes = modes
        rho.basis = basis
        rho.matrix = matrix
        rho._index = {occ: i for i, occ in enumerate(basis)}
        rho._splits = {}
        return rho

    def trace(self) -> float:
        return float(np.trace(self.matrix).real)

    def entry(self, row: tuple[int, ...], col: tuple[int, ...]) -> complex:
        i = self._index.get(tuple(row))
        j = self._index.get(tuple(col))
        if i is None or j is None:
            return 0j
        return complex(self.matrix[i, j])

    def __repr__(self) -> str:
        return f"DensityOperator(dim={len(self.basis)}, trace={self.trace():.6f})"


def to_density(state: FockState) -> DensityOperator:
    """Rank-1 projector |s><s| on the span of the state's occupation vectors."""
    return white_noise_mixture(state, sorted(state.amps), 1.0)


def white_noise_mixture(
    ket: FockState, basis: Iterable[tuple[int, ...]], p: float
) -> DensityOperator:
    """p |ket><ket| + (1-p) I/d over the d entries of ``basis``, p in [0, 1];
    the ket's amplitudes outside ``basis`` are dropped. ``basis`` lists
    distinct occupation tuples over the ket's modes and is not checked."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"mixture weight p={p} outside [0, 1]")
    basis = tuple(basis)
    d = len(basis)
    v = np.array([ket.amps.get(occ, 0j) for occ in basis], dtype=complex)
    matrix = p * np.einsum("i,j->ij", v, v.conj()) + (1.0 - p) / d * np.eye(d)
    return DensityOperator._unchecked(ket.modes, basis, matrix)


def expectation(rho: DensityOperator, ket: FockState) -> float:
    """<ket|rho|ket> for a ket on the operator's modes and of a photon number
    its basis holds; any other ket raises ``ModeMismatchError``."""
    if ket.modes != rho.modes:
        raise ModeMismatchError("ket and operator live on different mode sets")
    if not any(sum(occ) == ket.total_photons for occ in rho.basis):
        photons = sorted({sum(occ) for occ in rho.basis})
        raise ModeMismatchError(
            f"ket holds {ket.total_photons} photons, the operator's basis {photons}"
        )
    return _expectation(rho, ket.amps)


def _expectation(rho: DensityOperator, amps: Mapping[tuple[int, ...], complex]) -> float:
    """<v|rho|v> for the amplitudes ``amps``, read at rho's basis entries;
    ``expectation`` without its checks."""
    v = np.array([amps.get(occ, 0j) for occ in rho.basis], dtype=complex)
    return float(np.einsum("i,ij,j->", v.conj(), rho.matrix, v).real)


def operator_distance(a: DensityOperator, b: DensityOperator) -> float:
    """Max absolute entry difference, aligned over the union of both bases."""
    if a.modes != b.modes:
        raise ModeMismatchError("operators live on different mode sets")
    keys = sorted(set(a.basis) | set(b.basis))
    worst = 0.0
    for ri in keys:
        for cj in keys:
            worst = max(worst, abs(a.entry(ri, cj) - b.entry(ri, cj)))
    return worst
