"""Heralding, projective measurement, and partial-polarizer conditioning.

All detectors are ideal and photon-number resolving; conditioning on an
outcome renormalizes the surviving state. A herald pattern that no ket
matches is structurally impossible; any matching pattern heralds, however
small its probability. Alice's projection and her partial polarizer are one
contraction over the split of the occupation basis into measured ("on") and
remaining ("rest") modes, made once per state and measured modes; an outcome
below ``PROB_FLOOR`` is zero probability.
Its products are ``np.einsum`` calls, not numpy's SIMD-dispatched complex
multiply, so the last bit does not depend on the host's SIMD level.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .fock import (
    NORM_TOL,
    DensityOperator,
    FockState,
    Mode,
    ModeMismatchError,
    _checked_basis,
    to_density,
    white_noise_mixture,
)

PROB_FLOOR = 1e-15


class ImpossibleHeraldError(ValueError):
    """The requested photon-count pattern has no support in the state."""


class ZeroProbabilityError(ValueError):
    """Conditioning on an outcome of (numerically) zero probability."""


@dataclass(frozen=True)
class HeraldPattern:
    """Photon-count conditions: each constraint fixes the total count over a
    disjoint group of modes."""

    constraints: tuple[tuple[frozenset[Mode], int], ...]

    def __init__(self, constraints: Iterable[tuple[Iterable[Mode], int]]):
        normalized = []
        seen: set[Mode] = set()
        for modes, count in constraints:
            group = frozenset(modes)
            if not group:
                raise ValueError("empty mode group in herald pattern")
            if group & seen:
                raise ValueError("herald pattern groups must be disjoint")
            if count < 0:
                raise ValueError(f"negative required count {count}")
            seen |= group
            normalized.append((group, int(count)))
        object.__setattr__(self, "constraints", tuple(normalized))

    def required_total(self) -> int:
        return sum(count for _, count in self.constraints)


def herald(state: FockState, pattern: HeraldPattern) -> tuple[float, FockState]:
    """Condition on a photon-count pattern.

    Returns the pattern probability and the renormalized restriction of the
    state to matching occupation vectors.
    """
    for group, _ in pattern.constraints:
        unknown = group - set(state.modes)
        if unknown:
            raise ModeMismatchError(
                f"pattern uses modes absent from the state: "
                f"{sorted(m.label() for m in unknown)}"
            )
    if pattern.required_total() > state.total_photons:
        raise ValueError(
            f"pattern requires {pattern.required_total()} photons, state has "
            f"{state.total_photons}"
        )
    groups = [
        ([state.modes.index(m) for m in group], count)
        for group, count in pattern.constraints
    ]
    matching = {
        occ: amp
        for occ, amp in state.items()
        if all(sum(occ[i] for i in idx) == count for idx, count in groups)
    }
    if not matching:
        raise ImpossibleHeraldError("no ket of the state matches the herald pattern")
    probability = sum(abs(a) ** 2 for a in matching.values())
    scale = 1.0 / math.sqrt(probability)
    conditional = FockState._unchecked(
        state.modes, {occ: a * scale for occ, a in matching.items()}
    )
    return probability, conditional


@dataclass(frozen=True)
class Projector:
    """Projection onto a normalized ket."""

    target: FockState

    def __post_init__(self):
        n = self.target.norm()
        if abs(n - 1.0) > NORM_TOL:
            raise ValueError(f"projector target has norm {n!r}, expected 1")


def _split_on_rest(
    modes: tuple[Mode, ...],
    basis: Sequence[tuple[int, ...]],
    on: tuple[Mode, ...],
    what: str,
):
    """Index ``basis`` over ``modes`` as on (x) rest.

    The measured "on" modes are the measurement's own modes and must be a
    strict subset of ``modes``. Returns each ket's on-key, each ket's
    position in the sorted rest basis, that rest basis, and the rest modes.
    """
    on_set = set(on)
    if not on_set < set(modes):
        raise ModeMismatchError(f"{what} must act on a strict subset of the state's modes")
    on_idx = [i for i, m in enumerate(modes) if m in on_set]
    rest_idx = [i for i, m in enumerate(modes) if m not in on_set]
    on_keys = [tuple(occ[i] for i in on_idx) for occ in basis]
    rest_keys = [tuple(occ[i] for i in rest_idx) for occ in basis]
    rest_basis = tuple(sorted(set(rest_keys)))
    index = {occ: k for k, occ in enumerate(rest_basis)}
    rest_pos = np.array([index[occ] for occ in rest_keys], dtype=np.intp)
    return on_keys, rest_pos, rest_basis, tuple(modes[i] for i in rest_idx)


def _split(state: FockState | DensityOperator, on: tuple[Mode, ...], what: str):
    """``_split_on_rest`` of a state's basis (a ket's sorted keys), made on
    the first measurement of ``on`` and kept on the state, so a sweep that
    measures one shared state at every grid point splits it once."""
    split = state._splits.get(on)
    if split is None:
        basis = sorted(state.amps) if isinstance(state, FockState) else state.basis
        split = state._splits[on] = _split_on_rest(state.modes, basis, on, what)
    return split


def project(state: FockState, proj: Projector) -> tuple[float, FockState]:
    """Project the target's modes onto ``proj`` and return what remains.

    Probability is ||(<phi| (x) I)|s>||^2; the remote state is the
    renormalized residual, living on the modes not projected.
    """
    target = proj.target
    on_keys, rest_pos, rest_basis, rest_modes = _split(state, target.modes, "projector")
    amps = [amp for _, amp in state.items()]
    # on keys list the on modes in canonical order, as the target's keys do
    hit = [k for k, key in enumerate(on_keys) if key in target.amps]
    terms = [target.amps[on_keys[k]].conjugate() * amps[k] for k in hit]
    out = np.zeros(len(rest_basis), dtype=complex)
    np.add.at(out, rest_pos[hit], np.array(terms, dtype=complex))
    residual = out.tolist()
    probability = sum(abs(a) ** 2 for a in residual)
    if probability < PROB_FLOOR:
        raise ZeroProbabilityError(
            f"projection probability {probability:.3e} (< {PROB_FLOOR})"
        )
    scale = 1.0 / math.sqrt(probability)
    remote = FockState._unchecked(
        rest_modes, {occ: a * scale for occ, a in zip(rest_basis, residual)}
    )
    return probability, remote


@dataclass(frozen=True)
class PovmElement:
    """Positive operator on an explicit occupation basis over canonically
    ordered modes, checked as a DensityOperator's basis is."""

    modes: tuple[Mode, ...]
    basis: tuple[tuple[int, ...], ...]
    operator: np.ndarray

    def __post_init__(self):
        modes, basis = _checked_basis(self.modes, self.basis)
        object.__setattr__(self, "modes", modes)
        object.__setattr__(self, "basis", basis)
        op = np.asarray(self.operator, dtype=complex)
        if op.shape != (len(self.basis), len(self.basis)):
            raise ValueError("operator shape does not match basis")
        eig = np.linalg.eigvalsh(op)
        if eig.min() < -NORM_TOL or eig.max() > 1.0 + NORM_TOL:
            raise ValueError(f"POVM element eigenvalues outside [0, 1]: {eig}")
        object.__setattr__(self, "operator", op)

    @classmethod
    def _unchecked(cls, rho: DensityOperator) -> "PovmElement":
        """The element whose operator is ``rho``'s matrix, for an operator
        that is positive with eigenvalues at most 1 by construction."""
        element = object.__new__(cls)
        object.__setattr__(element, "modes", rho.modes)
        object.__setattr__(element, "basis", rho.basis)
        object.__setattr__(element, "operator", rho.matrix)
        return element


def partial_polarizer_povm(phi: Projector, p: float) -> PovmElement:
    """Weighted projection p |phi><phi| + (1-p) I/2 on a single-photon pair
    of modes; p = 1 is a sharp projector, p = 0 leaves the photon unmeasured."""
    target = phi.target
    if len(target.modes) != 2 or target.total_photons != 1:
        raise ModeMismatchError(
            "partial polarizer acts on a single photon in a two-mode basis"
        )
    # p |phi><phi| + (1-p) I/2 has eigenvalues (1+p)/2 and (1-p)/2
    return PovmElement._unchecked(white_noise_mixture(target, ((0, 1), (1, 0)), p))


def condition_on_povm(
    state_or_rho: FockState | DensityOperator,
    element: PovmElement,
) -> tuple[float, DensityOperator]:
    """Apply a POVM element to its own modes and trace them out.

    Returns the outcome probability Tr(E rho) and the conditional state
    Tr_on(E rho) / Tr(E rho) on the remaining modes. Pure-state inputs are
    promoted to density operators, so mixed and pure pipelines share one
    code path.
    """
    rho = to_density(state_or_rho) if isinstance(state_or_rho, FockState) else state_or_rho
    on_keys, rest_pos, rest_basis, rest_modes = _split(rho, element.modes, "POVM")
    # rho_B[r, r'] = sum_{a, c} E[a, c] rho[(c, r), (a, r')]; on keys outside
    # the element's basis index its zero padding row and column
    d = len(element.basis)
    padded = np.zeros((d + 1, d + 1), dtype=complex)
    padded[:d, :d] = element.operator
    index = {occ: k for k, occ in enumerate(element.basis)}
    on_pos = np.array([index.get(key, -1) for key in on_keys], dtype=np.intp)
    weights = padded[on_pos[None, :], on_pos[:, None]]
    rows, cols = np.nonzero(weights)
    terms = np.einsum("i,i->i", weights[rows, cols], rho.matrix[rows, cols])
    out = np.zeros((len(rest_basis), len(rest_basis)), dtype=complex)
    np.add.at(out, (rest_pos[rows], rest_pos[cols]), terms)
    probability = float(np.trace(out).real)
    if probability < PROB_FLOOR:
        raise ZeroProbabilityError(
            f"POVM outcome probability {probability:.3e} (< {PROB_FLOOR})"
        )
    return probability, DensityOperator._unchecked(rest_modes, rest_basis, out / probability)
