"""scissorlab: a numerical laboratory for heralded noiseless amplification.

Simulates the single-photon "quantum scissors" amplifier end to end on
truncated Fock spaces: state preparation, the linear-optical circuit with
heralded post-selection, homodyne sampling, iterative maximum-likelihood
tomography, and the gain/noise/information figures of merit.
"""

from .amplifier import (
    AmplifierConfig,
    EXPERIMENT_PRESET,
    EXPERIMENT_PRESET_MU,
    HeraldedOutput,
    IDEAL_SOURCE,
    SourceModel,
    build_resource,
    click_weights,
    gain_to_reflectivity,
    ideal_output,
    no_click_weights,
    reflectivity_to_gain,
    simulate,
    single_photon_weights,
)
from .fock import (
    DensityOperator,
    FockVector,
    coherent_state,
    fidelity,
    fock_state,
    mean_photon_number,
    number_distribution,
    resize_mode,
    trace_distance,
    vacuum_state,
)
from .measurement import (
    QuadratureSamples,
    default_phase_grid,
    quadrature_moments,
    quadrature_pdf,
    read_samples_csv,
    sample_homodyne,
    wavefunctions,
    write_samples_csv,
)
from .metrics import (
    MetricsReport,
    WignerGrid,
    build_metrics_report,
    effective_gain,
    ein_statistics,
    equivalent_input_noise,
    mutual_info_bound,
    phase_space_axes,
    reference_ein,
    wigner,
    write_metrics_json,
    write_wigner_csv,
)
from .numerics import CapacityError, TruncationError
from .optics import (
    LossChannel,
    apply_loss,
    apply_phase,
)
from .tomography import (
    QuadratureHistograms,
    ReconstructionResult,
    TomographyProblem,
    bin_samples,
    maxlik_reconstruct,
    read_density_json,
    write_density_json,
)

__version__ = "0.1.0"
