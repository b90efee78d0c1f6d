"""Observables and figures of merit.

CHSH correlations are evaluated on the 2x2 qubit subspace spanned by
Alice's single-photon polarization and Bob's two-branch photon-number
basis. Every correlation is computed twice, once as an operator trace and
once through the four-outcome count estimator driven by the instrument
angles; the two routes must agree to machine precision.

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
    expectation,
    tensor,
    to_density,
)
from .protocol import RspSettings

ROUTE_TOL = 1e-12     # operator route vs counts route agreement
LEAK_TOL = 1e-9       # tolerated population outside the qubit subspace
FIT_FLOOR = 1e-12     # fringe amplitude below which the fit is degenerate

_SQRT2 = math.sqrt(2.0)
_SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
_SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)

OBSERVABLE_MATRICES: dict[str, np.ndarray] = {
    "sigma_z_single": _SIGMA_Z,
    "sigma_x_single": _SIGMA_X,
    "sigma_z_triple": _SIGMA_Z,
    "sigma_x_triple": _SIGMA_X,
    "mu_s": (_SIGMA_Z + _SIGMA_X) / _SQRT2,
    "pi_s": (_SIGMA_X - _SIGMA_Z) / _SQRT2,
    "mu_t": _SIGMA_Z,
    "pi_t": _SIGMA_X,
}

# (plus outcome, minus outcome) wave-plate angles realizing each observable;
# single-photon kinds set Alice's gamma, multi-photon kinds set Bob's delta.
INSTRUMENT_ANGLES: dict[str, tuple[float, float]] = {
    "sigma_z_single": (0.0, math.pi / 4),
    "sigma_x_single": (math.pi / 8, 3 * math.pi / 8),
    "mu_s": (math.pi / 16, 5 * math.pi / 16),
    "pi_s": (3 * math.pi / 16, 7 * math.pi / 16),
    "sigma_z_triple": (0.0, math.pi / 4),
    "sigma_x_triple": (math.pi / 8, 3 * math.pi / 8),
    "mu_t": (0.0, math.pi / 4),
    "pi_t": (math.pi / 8, 3 * math.pi / 8),
}

_SINGLE_KINDS = {"sigma_z_single", "sigma_x_single", "mu_s", "pi_s"}
_TRIPLE_KINDS = {"sigma_z_triple", "sigma_x_triple", "mu_t", "pi_t"}


@dataclass(frozen=True)
class ObservableSpec:
    kind: str
    matrix: np.ndarray


def observable(kind: str) -> ObservableSpec:
    if kind not in OBSERVABLE_MATRICES:
        raise ValueError(f"unknown observable kind {kind!r}")
    return ObservableSpec(kind, OBSERVABLE_MATRICES[kind])


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
    a_plus, a_minus = (1, 0), (0, 1)
    b_plus, b_minus = (n, n - 1), (n - 1, n)
    return [
        a_plus + b_plus,
        a_plus + b_minus,
        a_minus + b_plus,
        a_minus + b_minus,
    ]


_QUBIT_MODES = (ALICE_H, ALICE_V, BOB_H, BOB_V)


def _coerce_density(state: FockState | DensityOperator) -> DensityOperator:
    return to_density(state) if isinstance(state, FockState) else state


def _subspace_matrix(rho: DensityOperator, n: int) -> np.ndarray:
    if rho.modes != _QUBIT_MODES:
        raise ModeMismatchError(
            "correlation expects a state on the Alice (x) Bob mode set"
        )
    occs = _qubit_occupations(n)
    sub = np.array(
        [[rho.entry(ri, cj) for cj in occs] for ri in occs], dtype=complex
    )
    leak = rho.trace() - float(np.trace(sub).real)
    if leak > LEAK_TOL:
        raise ValueError(
            f"state leaks {leak:.3e} population outside the qubit subspace"
        )
    return sub


def _instrument_ket(kind: str, sign: str, n: int) -> FockState:
    plus, minus = INSTRUMENT_ANGLES[kind]
    angle = plus if sign == "+" else minus
    if kind in _SINGLE_KINDS:
        return protocol.alice_measurement_ket(angle, 0.0)
    return protocol.bob_measurement_ket(n, angle, 0.0)


def count_table(
    state: FockState | DensityOperator,
    s_obs: ObservableSpec | str,
    t_obs: ObservableSpec | str,
    n: int = 2,
) -> CountTable:
    """Expected outcome table using the physical wave-plate settings."""
    rho = _coerce_density(state)
    s_kind = s_obs.kind if isinstance(s_obs, ObservableSpec) else s_obs
    t_kind = t_obs.kind if isinstance(t_obs, ObservableSpec) else t_obs
    if s_kind not in _SINGLE_KINDS:
        raise ValueError(f"{s_kind!r} is not a single-photon observable")
    if t_kind not in _TRIPLE_KINDS:
        raise ValueError(f"{t_kind!r} is not a multi-photon observable")
    probs = {}
    for s_sign in "+-":
        for t_sign in "+-":
            joint = tensor(
                _instrument_ket(s_kind, s_sign, n),
                _instrument_ket(t_kind, t_sign, n),
            )
            probs[s_sign + t_sign] = expectation(rho, joint)
    return CountTable(probs["++"], probs["+-"], probs["-+"], probs["--"])


def correlation(
    state: FockState | DensityOperator,
    s_obs: ObservableSpec | str,
    t_obs: ObservableSpec | str,
    n: int = 2,
) -> float:
    """Joint expectation value of a single-photon and a multi-photon setting.

    Computed as Tr(rho (S (x) T)) and cross-checked against the instrument
    count estimator (N++ + N-- - N+- - N-+) / N; disagreement beyond
    ``ROUTE_TOL`` means a bug and raises.
    """
    rho = _coerce_density(state)
    s_spec = s_obs if isinstance(s_obs, ObservableSpec) else observable(s_obs)
    t_spec = t_obs if isinstance(t_obs, ObservableSpec) else observable(t_obs)
    sub = _subspace_matrix(rho, n)
    op = np.kron(s_spec.matrix, t_spec.matrix)
    value = float(np.trace(sub @ op).real)
    counted = count_table(rho, s_spec, t_spec, n).correlation()
    if abs(value - counted) > ROUTE_TOL:
        raise RuntimeError(
            f"correlation routes disagree: trace {value!r} vs counts {counted!r}"
        )
    return value


def chsh(state: FockState | DensityOperator, n: int = 2) -> float:
    """CHSH parameter |-E(mu,mu) + E(mu,pi) + E(pi,mu) + E(pi,pi)|."""
    e_mm = correlation(state, "mu_s", "mu_t", n)
    e_mp = correlation(state, "mu_s", "pi_t", n)
    e_pm = correlation(state, "pi_s", "mu_t", n)
    e_pp = correlation(state, "pi_s", "pi_t", n)
    return abs(-e_mm + e_mp + e_pm + e_pp)


def white_noise_shared_state(n: int, p: float) -> DensityOperator:
    """p |Phi><Phi| + (1-p) I/4 on the shared qubit subspace.

    The pure part comes from the simulated split-and-herald pipeline, not
    from a hard-coded state.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"noise weight p={p} outside [0, 1]")
    _, shared = protocol.shared_state(n)
    basis = tuple(sorted(_qubit_occupations(n)))
    v = np.array([shared.amps.get(occ, 0j) for occ in basis], dtype=complex)
    matrix = p * np.outer(v, v.conj()) + (1.0 - p) / 4.0 * np.eye(4)
    return DensityOperator(_QUBIT_MODES, basis, matrix)


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
    degenerate: bool
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
    beta, *_ = np.linalg.lstsq(design, y, rcond=None)
    mean, b, c = (float(v) for v in beta)
    amplitude = math.hypot(b, c)
    if amplitude < FIT_FLOOR:
        return mean, amplitude, None
    return mean, amplitude, math.atan2(c, b)


def fringe_scan(
    settings: RspSettings, axis: str, grid: Sequence[float]
) -> FringeScan:
    """Scan Bob's projection probability along a phase or analyzer-angle grid.

    ``phase_phi`` varies the analyzer phase phi at fixed delta = pi/8 and
    fits a period-2pi sinusoid whose offset recovers theta. ``angle_delta``
    varies the analyzer angle delta at phi = 0 and fits the cos(4 delta)
    law whose peak sits at pi/4 - gamma (mod pi/2).
    """
    if axis not in ("phase_phi", "angle_delta"):
        raise ValueError(f"unknown scan axis {axis!r}")
    if len(grid) == 0:
        raise ValueError("empty scan grid")
    outcome = protocol.rsp_mixed(settings)
    n = settings.n_pairs
    probs = []
    for x in grid:
        if axis == "phase_phi":
            ket = protocol.bob_measurement_ket(n, math.pi / 8, phi=float(x))
        else:
            ket = protocol.bob_measurement_ket(n, float(x), phi=0.0)
        probs.append(expectation(outcome.bob_state, ket))
    frequency = 1.0 if axis == "phase_phi" else 4.0
    mean, amplitude, offset = fit_fringe(grid, probs, frequency)
    degenerate = offset is None
    visibility = 0.0 if mean <= FIT_FLOOR else amplitude / mean
    return FringeScan(
        axis=axis,
        grid=tuple(float(x) for x in grid),
        probabilities=tuple(probs),
        fitted_visibility=visibility,
        fitted_offset=offset,
        degenerate=degenerate,
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
    purity = float(np.trace(rho.matrix @ rho.matrix).real)
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
        degenerate=offset is None,
        counts=tuple(counts),
        estimated=tuple(estimated),
    )
