"""End-to-end remote-state-preparation pipelines.

The source emits n photon pairs as |n_H, n_V>. A 50/50 beamsplitter sends
them toward Alice and Bob; heralding on exactly one photon at Alice and
2n-1 at Bob leaves the two parties sharing a two-branch entangled state.
Alice's single-photon measurement then steers Bob's multi-photon state:
a sharp projection prepares a pure superposition of |n_H,(n-1)_V> and
|(n-1)_H,n_V>, a partial projection of strength p prepares the matching
rank-2 mixture. Everything downstream of the source is computed by
simulating the optical elements, never by inserting the closed forms.

Each stage takes the value the previous one returned. ``shared_state(n)``
depends only on the source size, so a caller builds it once per n and
passes it to ``rsp_pure`` or ``rsp_mixed`` for every setting of Alice's
instrument. That setting is ``alice_projector(gamma, theta)``, built once
per (gamma, theta) and reused for every p;
``distinguishability_demo`` takes the ket ``rsp_pure`` made.
"""

from __future__ import annotations

import math

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
    ModeMismatchError,
    Polarization,
    extend_modes,
    make_fock,
    superpose,
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


def heralded_n(state: FockState | DensityOperator) -> int:
    """The source size n of a heralded state, read from its photon number:
    2n-1 on Bob's modes, or 2n on Alice's and Bob's (``shared_state``'s split)."""
    keys = state.amps if isinstance(state, FockState) else state.basis
    photons = sorted({sum(occ) for occ in keys})
    at_alice = {(BOB_H, BOB_V): 0, (ALICE_H, ALICE_V, BOB_H, BOB_V): 1}.get(state.modes)
    bob = photons[0] - at_alice if at_alice is not None and len(photons) == 1 else 0
    if bob < 1 or bob % 2 == 0:
        raise ModeMismatchError(
            f"{photons} photons on modes {[m.label() for m in state.modes]} is not a "
            "heralded two-branch state: 2n-1 on Bob's modes, or 2n on Alice's and Bob's"
        )
    return (bob + 1) // 2


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


def alice_projector(gamma: float, theta: float = 0.0) -> Projector:
    """Alice's instrument at one (gamma, theta) setting, as the projector on
    her ``alice_measurement_ket``."""
    return Projector(alice_measurement_ket(gamma, theta))


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


def closed_form_bob_density(ket: FockState, p: float) -> DensityOperator:
    """Analytic target p |psi><psi| + (1-p) I/2 on Bob's two-branch basis,
    for the ket ``closed_form_bob_ket`` returns."""
    if ket.modes != (BOB_H, BOB_V):
        raise ModeMismatchError("closed-form density expects a ket on Bob's H and V modes")
    n = heralded_n(ket)
    basis = ((n - 1, n), (n, n - 1))
    if not set(ket.amps) <= set(basis):
        raise ValueError(f"ket is not on Bob's two-branch basis for n={n}")
    return white_noise_mixture(ket, basis, p)


def rsp_pure(shared: FockState, phi: Projector) -> tuple[float, FockState]:
    """Remote preparation with a sharp single-photon projection (p = 1).

    Projects Alice's photon of ``shared`` with ``phi``, her
    ``alice_projector``, and returns the outcome probability and Bob's ket.
    This is ``project`` under the paper's name for the sharp stage, the
    p = 1 partner of ``rsp_mixed``.
    """
    return project(shared, phi)


def rsp_mixed(
    shared: FockState | DensityOperator, phi: Projector, p: float
) -> tuple[float, DensityOperator]:
    """Remote preparation through the partial polarizer of strength p.

    ``phi`` is Alice's projector as in ``rsp_pure``; a caller that scans p
    passes ``to_density(shared)``, so the ket is promoted once.
    Returns the outcome probability and Bob's state. At p = 1 this is
    rsp_pure's state; at p = 0 Bob is left maximally mixed on his two-branch
    basis.
    """
    return condition_on_povm(shared, partial_polarizer_povm(phi, p))


def distinguishability_demo(bob_ket: FockState, d: float) -> FockState:
    """Mimic distinguishability-based decoherence on Bob's V photons.

    Each vertically polarized photon of ``bob_ket`` is rotated into sqrt(d)
    principal + sqrt(1-d) auxiliary mode, d in [0, 1]. For d < 1 this
    populates components that lie outside the two-branch basis, unlike the
    partial-polarizer route, which never does.
    """
    if not 0.0 <= d <= 1.0:
        raise ValueError(f"distinguishability {d} outside [0, 1]")
    ket = extend_modes(bob_ket, (BOB_V, BOB_V_AUX))
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
    return apply(mix, ket)
