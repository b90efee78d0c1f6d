"""Deterministic simulator of heralded linear-optical remote state
preparation: a single-photon measurement on one arm of a beamsplitter-split
multi-pair source steers a multi-photon entangled state on the other arm."""

__version__ = "0.1.0"

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
    expectation,
    extend_modes,
    inner_product,
    make_fock,
    operator_distance,
    tensor,
    to_density,
    without_modes,
)
from .elements import (
    ModeUnitary,
    apply,
    bs_5050,
)
from .measurement import (
    HeraldPattern,
    ImpossibleHeraldError,
    PovmElement,
    Projector,
    ZeroProbabilityError,
    condition_on_povm,
    herald,
    partial_polarizer_povm,
    project,
)
from .protocol import (
    alice_measurement_ket,
    alice_projector,
    bob_measurement_ket,
    build_source,
    closed_form_bob_density,
    closed_form_bob_ket,
    distinguishability_demo,
    heralded_n,
    rsp_mixed,
    rsp_pure,
    shared_state,
)
from .analysis import (
    CountTable,
    FringeScan,
    chsh_value,
    component_populations,
    correlation,
    count_table,
    fit_fringe,
    fringe_scan,
    outcome_kets,
    purity_and_fidelity,
    sample_count_table,
    sample_counts,
    sample_fringe_scan,
    white_noise_shared_state,
)
from .config import GridSpec, ScenarioConfig, SchemaError, load_config, parse_angle
from .presets import PRESETS, list_presets

__all__ = [name for name in dir() if not name.startswith("_")]
