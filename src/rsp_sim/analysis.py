"""Observables and figures of merit.

CHSH correlations are evaluated on the 2x2 qubit subspace spanned by
Alice's single-photon polarization and Bob's two-branch photon-number
basis. There are four observable kinds: mu_s and pi_s on Alice's photon,
mu_t and pi_t on Bob's 2n-1 photons. Every correlation is computed twice,
once as an operator trace and once through the four-outcome count estimator
driven by the instrument angles; the two routes must agree to machine
precision, and ``correlation`` returns the trace value with its count table.

Sign convention: the second single-photon setting is (sigma_x - sigma_z)/sqrt(2),
the operator whose +1 eigenstate the instrument selects at a half-wave-plate
angle of 3*pi/16. With this choice the four ideal correlations on the shared
state are (-, +, +, +)/sqrt(2) and the CHSH combination reaches 2*sqrt(2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from . import protocol
from .fock import (
    ALICE_H,
    ALICE_V,
    BOB_H,
    BOB_V,
    DensityOperator,
    FockState,
    ModeMismatchError,
    _expectation,
    expectation,
    tensor,
    to_density,
    white_noise_mixture,
)

ROUTE_TOL = 1e-12     # operator route vs counts route agreement
LEAK_TOL = 1e-9       # tolerated population outside the qubit subspace
FIT_FLOOR = 1e-12     # fringe amplitude below which the fit is degenerate

_SQRT2 = math.sqrt(2.0)
_SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
_SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)

# The four CHSH kinds, one table per party: kind -> (observable matrix,
# (plus outcome, minus outcome) wave-plate angles realizing it). Alice's
# single-photon kinds set her gamma, Bob's multi-photon kinds set his delta.
ALICE_KINDS: dict[str, tuple[np.ndarray, tuple[float, float]]] = {
    "mu_s": ((_SIGMA_Z + _SIGMA_X) / _SQRT2, (math.pi / 16, 5 * math.pi / 16)),
    "pi_s": ((_SIGMA_X - _SIGMA_Z) / _SQRT2, (3 * math.pi / 16, 7 * math.pi / 16)),
}
BOB_KINDS: dict[str, tuple[np.ndarray, tuple[float, float]]] = {
    "mu_t": (_SIGMA_Z, (0.0, math.pi / 4)),
    "pi_t": (_SIGMA_X, (math.pi / 8, 3 * math.pi / 8)),
}

# the four (Alice, Bob) settings, in the order chsh_value combines them
CHSH_SETTINGS = (
    ("mu_s", "mu_t"),
    ("mu_s", "pi_t"),
    ("pi_s", "mu_t"),
    ("pi_s", "pi_t"),
)


def _kinds(s_kind: str, t_kind: str):
    if s_kind not in ALICE_KINDS:
        raise ValueError(f"{s_kind!r} is not a single-photon observable")
    if t_kind not in BOB_KINDS:
        raise ValueError(f"{t_kind!r} is not a multi-photon observable")
    return ALICE_KINDS[s_kind], BOB_KINDS[t_kind]


@dataclass(frozen=True)
class CountTable:
    """Joint outcome frequencies for a pair of two-outcome measurements."""

    n_pp: float
    n_pm: float
    n_mp: float
    n_mm: float

    def total(self) -> float:
        return self.n_pp + self.n_pm + self.n_mp + self.n_mm

    def correlation(self) -> float:
        total = self.total()
        if total <= 0:
            raise ValueError("count table has no events")
        return (self.n_pp + self.n_mm - self.n_pm - self.n_mp) / total


def _qubit_occupations(n: int):
    # joint occupations over (A_H, A_V, B_H, B_V), ordered as
    # (a+, b+), (a+, b-), (a-, b+), (a-, b-)
    return [a + b for a in protocol._branches(1) for b in protocol._branches(n)]


_QUBIT_MODES = (ALICE_H, ALICE_V, BOB_H, BOB_V)


def _coerce_density(state: FockState | DensityOperator) -> DensityOperator:
    return to_density(state) if isinstance(state, FockState) else state


def _subspace_matrix(rho: DensityOperator) -> np.ndarray:
    if rho.modes != _QUBIT_MODES:
        raise ModeMismatchError(
            "correlation expects a state on the Alice (x) Bob mode set"
        )
    occs = _qubit_occupations(protocol.heralded_n(rho))
    sub = np.array(
        [[rho.entry(ri, cj) for cj in occs] for ri in occs], dtype=complex
    )
    leak = rho.trace() - float(np.trace(sub).real)
    if leak > LEAK_TOL:
        raise ValueError(
            f"state leaks {leak:.3e} population outside the qubit subspace"
        )
    return sub


def outcome_kets(n: int) -> dict[str, tuple[FockState, FockState]]:
    """Each CHSH kind's (plus, minus) outcome ket, made by its instrument:
    Alice's wave plate for her kinds, Bob's analyzer on 2n-1 photons for his."""
    kets = {
        kind: tuple(protocol.alice_measurement_ket(a, 0.0) for a in angles)
        for kind, (_, angles) in ALICE_KINDS.items()
    }
    kets.update(
        (kind, tuple(protocol.bob_measurement_ket(n, a, 0.0) for a in angles))
        for kind, (_, angles) in BOB_KINDS.items()
    )
    return kets


def count_table(
    state: FockState | DensityOperator,
    s_kind: str,
    t_kind: str,
    kets: dict[str, tuple[FockState, FockState]],
) -> CountTable:
    """Expected outcome table using the physical wave-plate settings.

    ``kets`` is ``outcome_kets(n)`` for the state's source size n, built once
    by the caller and shared by every setting it evaluates; kets built for
    another n raise ``ModeMismatchError``.
    """
    rho = _coerce_density(state)
    _kinds(s_kind, t_kind)
    bob, ket_bob = 2 * protocol.heralded_n(rho) - 1, kets[t_kind][0].total_photons
    if ket_bob != bob:
        raise ModeMismatchError(f"outcome kets hold {ket_bob} photons at Bob, the state {bob}")
    # outcome order ++, +-, -+, --
    return CountTable(
        *(
            expectation(rho, tensor(s_ket, t_ket))
            for s_ket in kets[s_kind]
            for t_ket in kets[t_kind]
        )
    )


def correlation(
    state: FockState | DensityOperator,
    s_kind: str,
    t_kind: str,
    kets: dict[str, tuple[FockState, FockState]],
) -> tuple[float, CountTable]:
    """Joint expectation value of a single-photon and a multi-photon setting.

    Computed as Tr(rho (S (x) T)) and cross-checked against the instrument
    count estimator (N++ + N-- - N+- - N-+) / N; disagreement beyond
    ``ROUTE_TOL`` means a bug and raises. Returns the trace-route value and
    the count table it was checked against; ``kets`` is ``outcome_kets(n)``
    for the state's n, passed on to ``count_table``.
    """
    rho = _coerce_density(state)
    sub = _subspace_matrix(rho)
    (s_matrix, _), (t_matrix, _) = _kinds(s_kind, t_kind)
    # S (x) T as a 4x4 matrix over (a, b) x (c, d), then Tr(sub (S (x) T))
    kron = np.einsum("ac,bd->abcd", s_matrix, t_matrix).reshape(4, 4)
    value = float(np.einsum("ij,ji->", sub, kron).real)
    table = count_table(rho, s_kind, t_kind, kets)
    counted = table.correlation()
    if abs(value - counted) > ROUTE_TOL:
        raise RuntimeError(
            f"correlation routes disagree: trace {value!r} vs counts {counted!r}"
        )
    return value, table


def chsh_value(e: Sequence[float]) -> float:
    """|-E(mu,mu) + E(mu,pi) + E(pi,mu) + E(pi,pi)| over the correlations
    of the CHSH_SETTINGS, in that order."""
    return abs(-e[0] + e[1] + e[2] + e[3])


def white_noise_shared_state(shared: FockState, p: float) -> DensityOperator:
    """p |Phi><Phi| + (1-p) I/4 on the shared qubit subspace, where |Phi> is
    ``shared``, the ket ``protocol.shared_state`` heralded."""
    n = protocol.heralded_n(shared)
    return white_noise_mixture(shared, sorted(_qubit_occupations(n)), p)


@dataclass(frozen=True)
class FringeScan:
    """One interference scan plus its sinusoid fit.

    ``fitted_offset`` is None when the data are flat (degenerate fit);
    ``counts``/``estimated`` are filled only for sampled scans.
    """

    axis: str
    grid: tuple[float, ...]
    probabilities: tuple[float, ...]
    fitted_visibility: float
    fitted_offset: float | None
    frequency: float
    counts: tuple[int, ...] | None = None
    estimated: tuple[float, ...] | None = None


def fit_fringe(
    grid: Sequence[float], values: Sequence[float], frequency: float
) -> tuple[float, float, float | None]:
    """Least-squares fit of a + R cos(f x - psi) at known frequency f.

    Returns (mean a, amplitude R, offset psi); psi is None when the
    amplitude is numerically zero. Raises on grids too small or too
    degenerate to determine the three parameters.
    """
    x = np.asarray(grid, dtype=float)
    y = np.asarray(values, dtype=float)
    design = np.column_stack([np.ones_like(x), np.cos(frequency * x), np.sin(frequency * x)])
    if len(x) < 3 or np.linalg.matrix_rank(design) < 3:
        raise ValueError("grid cannot determine a sinusoid fit (need 3 independent points)")
    # normal equations (X^T X) beta = X^T y
    gram = np.einsum("ki,kj->ij", design, design)
    beta = np.linalg.solve(gram, np.einsum("ki,k->i", design, y))
    mean, b, c = (float(v) for v in beta)
    amplitude = math.hypot(b, c)
    if amplitude < FIT_FLOOR:
        return mean, amplitude, None
    return mean, amplitude, math.atan2(c, b)


def fringe_scan(rho: DensityOperator, axis: str, grid: Sequence[float]) -> FringeScan:
    """Scan the projection probability of Bob's state ``rho`` on his 2n-1
    photons along a phase or analyzer-angle grid; a state that does not hold
    2n-1 photons on Bob's modes raises ``ModeMismatchError``.

    ``phase_phi`` varies the analyzer phase phi at fixed delta = pi/8 and
    fits a period-2pi sinusoid whose offset recovers theta. ``angle_delta``
    varies the analyzer angle delta at phi = 0 and fits the cos(4 delta)
    law whose peak sits at pi/4 - gamma (mod pi/2).
    """
    if axis not in ("phase_phi", "angle_delta"):
        raise ValueError(f"unknown scan axis {axis!r}")
    if len(grid) == 0:
        raise ValueError("empty scan grid")
    if rho.modes != (BOB_H, BOB_V):
        raise ModeMismatchError("fringe scan expects a state on Bob's H and V modes")
    n = protocol.heralded_n(rho)
    # bob_measurement_ket's amplitudes without the ket, and one contraction
    # per point: a batched einsum sums in another order and moves bits
    probs = []
    for x in grid:
        if axis == "phase_phi":
            amps = protocol._two_branch_amplitudes(n, math.pi / 8, float(x))
        else:
            amps = protocol._two_branch_amplitudes(n, float(x), 0.0)
        probs.append(_expectation(rho, amps))
    frequency = 1.0 if axis == "phase_phi" else 4.0
    mean, amplitude, offset = fit_fringe(grid, probs, frequency)
    visibility = 0.0 if mean <= FIT_FLOOR else amplitude / mean
    return FringeScan(
        axis=axis,
        grid=tuple(float(x) for x in grid),
        probabilities=tuple(probs),
        fitted_visibility=visibility,
        fitted_offset=offset,
        frequency=frequency,
    )


def component_populations(
    state: FockState | DensityOperator,
) -> dict[tuple[int, ...], float]:
    """Diagonal populations in the photon-number basis; absent keys are 0."""
    if isinstance(state, FockState):
        return {occ: abs(amp) ** 2 for occ, amp in state.items()}
    return {
        occ: float(state.matrix[i, i].real) for i, occ in enumerate(state.basis)
    }


def purity_and_fidelity(
    rho: DensityOperator, target: FockState
) -> tuple[float, float]:
    """Tr(rho^2) and <psi|rho|psi> for a ket target on the same modes."""
    purity = float(np.einsum("ij,ji->", rho.matrix, rho.matrix).real)
    fidelity = expectation(rho, target)
    return purity, fidelity


def sample_counts(
    probabilities: Sequence[float], shots: int, seed
) -> np.ndarray:
    """Multinomial draw of ``shots`` events over outcome probabilities.

    ``seed`` is an integer or an existing numpy Generator; a fresh
    Generator is created per call for integer seeds, so equal seeds give
    equal draws.
    """
    if shots < 1:
        raise ValueError(f"shots must be >= 1, got {shots}")
    p = np.asarray(probabilities, dtype=float)
    if p.min() < -1e-9:
        raise ValueError(f"negative probability {p.min()!r}")
    p = np.clip(p, 0.0, None)
    total = p.sum()
    if total <= 0:
        raise ValueError("probabilities sum to zero")
    rng = np.random.default_rng(seed)
    return rng.multinomial(shots, p / total)


def sample_count_table(table: CountTable, shots: int, seed) -> CountTable:
    """Sampled integer version of an expected count table."""
    draws = sample_counts(
        [table.n_pp, table.n_pm, table.n_mp, table.n_mm], shots, seed
    )
    return CountTable(*(int(v) for v in draws))


def sample_fringe_scan(scan: FringeScan, shots: int, seed) -> FringeScan:
    """Per-point binomial counting emulation of a fringe scan.

    Counts are drawn independently per grid point; the sinusoid is refit on
    the estimated probabilities, so the sampled visibility converges to the
    exact one as shots grows.
    """
    if shots < 1:
        raise ValueError(f"shots must be >= 1, got {shots}")
    rng = np.random.default_rng(seed)
    counts = [
        int(rng.binomial(shots, min(max(p, 0.0), 1.0)))
        for p in scan.probabilities
    ]
    estimated = [c / shots for c in counts]
    mean, amplitude, offset = fit_fringe(scan.grid, estimated, scan.frequency)
    visibility = 0.0 if mean <= FIT_FLOOR else amplitude / mean
    return replace(
        scan,
        fitted_visibility=visibility,
        fitted_offset=offset,
        counts=tuple(counts),
        estimated=tuple(estimated),
    )
