"""Exact simulation of conditionally generated two-mode path-entangled light.

The package factors an arbitrary two-mode N-photon target into a product
of single-photon-adding operators, simulates the beam-splitter blocks that
realize each operator with heralding on dark detectors, and quantifies the
resulting yields and the sub-wavelength interference fringes the states
write in an N-photon absorber.
"""

from .fock import (
    CutoffOverflowError,
    FourModeState,
    TwoModeDensity,
    TwoModeState,
    apply_annihilation,
    apply_creation,
    apply_linear_factor,
    basis_state,
    beam_splitter,
    beam_splitter_pair_exact,
    beam_splitter_pair_oracle,
    inner_product,
    noon_state,
    overlap_fidelity,
    phase_shift,
    tensor,
    vacuum,
)
from .factorize import (
    FactorSet,
    TargetSpec,
    factorize_target,
    find_factor_angles,
    monomial_coeffs,
    noon_factor_angles,
    noon_target,
    normalization,
    reconstruct,
    state_of_target,
    target_of_state,
)
from .blocks import (
    BlockOutcome,
    BlockParams,
    SchemeResult,
    amplitude_factor_double,
    amplitude_factor_single,
    ancilla_double,
    ancilla_single,
    noon_double_phases,
    run_block_double,
    run_block_single,
    run_scheme,
    run_scheme_double,
    run_scheme_unconditional,
)
from .yields import (
    YieldRow,
    optimal_schedule,
    optimal_transmittance,
    qk_squared,
    yield_generic,
    yield_noon_double,
    yield_noon_double_linear,
    yield_noon_single,
    yield_stirling,
    yield_table,
)
from .litho import (
    FringeSweep,
    absorption_rate_mixed,
    absorption_rate_pure,
    dominant_fringe_frequency,
    fringe_sweep,
)

__version__ = "0.1.0"
