"""End-to-end remote-state-preparation pipelines.

The source emits n photon pairs as |n_H, n_V>. A 50/50 beamsplitter sends
them toward Alice and Bob; heralding on exactly one photon at Alice and
2n-1 at Bob leaves the two parties sharing a two-branch entangled state.
Alice's single-photon measurement then steers Bob's multi-photon state:
a sharp projection prepares a pure superposition of |n_H,(n-1)_V> and
|(n-1)_H,n_V>, a partial projection of strength p prepares the matching
rank-2 mixture. Everything downstream of the source is computed by
simulating the optical elements, never by inserting the closed forms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .elements import ModeUnitary, apply, bs_5050, hwp, phase_shifter
from .fock import (
    ALICE_H,
    ALICE_V,
    BOB_H,
    BOB_V,
    SOURCE_H,
    SOURCE_V,
    DensityOperator,
    FockState,
    Location,
    Mode,
    Polarization,
    extend_modes,
    make_fock,
    superpose,
    to_density,
    white_noise_mixture,
    without_modes,
)
from .measurement import (
    HeraldPattern,
    Projector,
    condition_on_povm,
    herald,
    partial_polarizer_povm,
    project,
)

BOB_V_AUX = Mode(Location.BOB, Polarization.V, tag=1)


@dataclass(frozen=True)
class RspSettings:
    """Instrument settings for one preparation run.

    gamma is the measurement half-wave-plate angle, theta the phase-shifter
    setting, p_strength the partial-polarizer projection strength, and
    distinguishability the per-photon overlap used by the decoherence
    contrast demo (1 = fully indistinguishable).
    """

    n_pairs: int = 2
    gamma: float = math.pi / 8
    theta: float = 0.0
    p_strength: float = 1.0
    distinguishability: float = 1.0

    def __post_init__(self):
        if self.n_pairs < 1:
            raise ValueError(f"n_pairs must be >= 1, got {self.n_pairs}")
        if not 0.0 <= self.p_strength <= 1.0:
            raise ValueError(f"p_strength {self.p_strength} outside [0, 1]")
        if not 0.0 <= self.distinguishability <= 1.0:
            raise ValueError(
                f"distinguishability {self.distinguishability} outside [0, 1]"
            )


@dataclass(frozen=True)
class RspOutcome:
    """Result of one preparation: conditioning probabilities and Bob's state."""

    herald_probability: float
    alice_probability: float
    bob_state: DensityOperator
    bob_ket: FockState | None = None


def build_source(n: int) -> FockState:
    """n-pair emission: |n_H, n_V> in the source modes."""
    if n < 1:
        raise ValueError(f"need at least one photon pair, got n={n}")
    return make_fock([(SOURCE_H, n), (SOURCE_V, n)])


def splitting_unitary() -> ModeUnitary:
    return bs_5050((SOURCE_H, SOURCE_V), (ALICE_H, ALICE_V), (BOB_H, BOB_V))


def shared_state(n: int) -> tuple[float, FockState]:
    """Split the source on the beamsplitter and herald (1 at Alice, 2n-1 at Bob).

    Returns the herald probability and the conditional state on the Alice and
    Bob modes (source modes, empty after the split, are dropped).
    """
    source = extend_modes(build_source(n), (ALICE_H, ALICE_V, BOB_H, BOB_V))
    split = apply(splitting_unitary(), source)
    pattern = HeraldPattern([
        ((ALICE_H, ALICE_V), 1),
        ((BOB_H, BOB_V), 2 * n - 1),
    ])
    probability, conditional = herald(split, pattern)
    return probability, without_modes(conditional, (SOURCE_H, SOURCE_V))


def alice_measurement_ket(gamma: float, theta: float = 0.0) -> FockState:
    """Alice's projection ket, produced by her own instrument chain.

    A half-wave plate at gamma followed by a phase shifter on the V mode
    turns |1_H> into cos(2 gamma)|1_H,0_V> + e^{i theta} sin(2 gamma)|0_H,1_V>.
    """
    ket = extend_modes(make_fock([(ALICE_H, 1)]), (ALICE_H, ALICE_V))
    ket = apply(hwp(gamma, (ALICE_H, ALICE_V)), ket)
    if theta != 0.0:
        ket = apply(phase_shifter(theta, ALICE_V), ket)
    return ket.normalized()


def bob_measurement_ket(n: int, delta: float, phi: float = 0.0) -> FockState:
    """Bob's analysis ket cos(2 delta)|n,(n-1)> + e^{i phi} sin(2 delta)|(n-1),n>."""
    hi = make_fock([(BOB_H, n), (BOB_V, n - 1)])
    lo = make_fock([(BOB_H, n - 1), (BOB_V, n)])
    c = math.cos(2.0 * delta)
    s = math.sin(2.0 * delta)
    return superpose([(c, hi), (s * np.exp(1j * phi), lo)]).normalized()


def closed_form_bob_ket(n: int, gamma: float, theta: float) -> FockState:
    """Analytic target sin(2g)|n_H,(n-1)_V> + e^{i theta} cos(2g)|(n-1)_H,n_V>.

    Reference only: the pipelines never consume this; tests and the
    general-n consistency scan compare against it.
    """
    return bob_measurement_ket(n, math.pi / 4 - gamma, phi=theta)


def closed_form_bob_density(n: int, gamma: float, theta: float, p: float) -> DensityOperator:
    """Analytic target p |psi><psi| + (1-p) I/2 on Bob's two-branch basis."""
    ket = closed_form_bob_ket(n, gamma, theta)
    return white_noise_mixture(ket, ((n - 1, n), (n, n - 1)), p)


def _prepared(settings: RspSettings):
    herald_probability, shared = shared_state(settings.n_pairs)
    phi = Projector(alice_measurement_ket(settings.gamma, settings.theta))
    return herald_probability, shared, phi


def rsp_pure(settings: RspSettings) -> RspOutcome:
    """Remote preparation with a sharp single-photon projection (p = 1)."""
    if settings.p_strength != 1.0:
        raise ValueError("rsp_pure requires p_strength = 1; use rsp_mixed instead")
    herald_probability, shared, phi = _prepared(settings)
    alice_probability, bob = project(shared, phi)
    rho = to_density(bob)
    return RspOutcome(herald_probability, alice_probability, rho, bob_ket=bob)


def rsp_mixed(settings: RspSettings) -> RspOutcome:
    """Remote preparation through the partial polarizer of strength p.

    At p = 1 this reduces to rsp_pure; at p = 0 Bob is left maximally mixed
    on his two-branch basis.
    """
    herald_probability, shared, phi = _prepared(settings)
    element = partial_polarizer_povm(phi, settings.p_strength)
    alice_probability, rho = condition_on_povm(shared, element)
    return RspOutcome(herald_probability, alice_probability, rho)


@dataclass(frozen=True)
class DistinguishabilityReport:
    """Populations of Bob's state after per-photon mode mixing.

    ``tagged_total`` is the probability of finding at least one photon in
    the auxiliary (distinguishable) mode.
    """

    modes: tuple[Mode, ...]
    populations: dict[tuple[int, ...], float]
    tagged_total: float
    distinguishability: float


def distinguishability_demo(settings: RspSettings) -> DistinguishabilityReport:
    """Mimic distinguishability-based decoherence on Bob's V photons.

    Each vertically polarized photon is rotated into sqrt(d) principal +
    sqrt(1-d) auxiliary mode. For d < 1 this populates components that lie
    outside the two-branch basis, unlike the partial-polarizer route, which
    never does.
    """
    d = settings.distinguishability
    outcome = rsp_pure(
        RspSettings(settings.n_pairs, settings.gamma, settings.theta, 1.0, 1.0)
    )
    ket = extend_modes(outcome.bob_ket, (BOB_V, BOB_V_AUX))
    mix = ModeUnitary(
        (BOB_V, BOB_V_AUX),
        np.array(
            [
                [math.sqrt(d), -math.sqrt(1.0 - d)],
                [math.sqrt(1.0 - d), math.sqrt(d)],
            ],
            dtype=complex,
        ),
    )
    mixed = apply(mix, ket)
    aux_pos = mixed.modes.index(BOB_V_AUX)
    populations = {occ: abs(amp) ** 2 for occ, amp in mixed.items()}
    tagged_total = sum(pop for occ, pop in populations.items() if occ[aux_pos] > 0)
    return DistinguishabilityReport(mixed.modes, populations, tagged_total, d)
