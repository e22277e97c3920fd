"""Classical shadow tomography with orthogonal-group (real) randomized
measurements: channels, estimators, and variance validation at desk scale."""

__version__ = "0.1.0"

from .bases import (
    MeasurementBasis,
    basis_from_tag,
    computational_basis,
    random_basis,
    reality,
    sh_basis,
)
from .channels import (
    ChannelDescriptor,
    ChannelSpectrum,
    EnsembleSpec,
    apply_channel,
    channel_for,
    global_ensemble,
    has_invisible_part,
    local_ensemble,
    pseudo_inverse,
    visible_projector,
)
from .commutant import (
    BrauerPairing,
    enumerate_pairings,
    mc_twirl,
    realize,
    twirl_coefficients,
    twirl_project,
)
from .engine import (
    EstimateReport,
    ExperimentConfig,
    ShadowRecords,
    collect_records,
    run_experiment,
    full_vectors,
    state_factor,
)
from .linalg import ResourceLimitError, kron
from .pauli import PauliString
from .sampling import RngStream, sample_transform_arrays
from .variance import (
    random_symmetric_observable,
    ratio_sweep,
)

__all__ = [
    "__version__",
    "MeasurementBasis",
    "basis_from_tag",
    "computational_basis",
    "random_basis",
    "reality",
    "sh_basis",
    "ChannelDescriptor",
    "ChannelSpectrum",
    "EnsembleSpec",
    "apply_channel",
    "channel_for",
    "global_ensemble",
    "has_invisible_part",
    "local_ensemble",
    "pseudo_inverse",
    "visible_projector",
    "BrauerPairing",
    "enumerate_pairings",
    "mc_twirl",
    "realize",
    "twirl_coefficients",
    "twirl_project",
    "EstimateReport",
    "ExperimentConfig",
    "ShadowRecords",
    "collect_records",
    "run_experiment",
    "full_vectors",
    "state_factor",
    "ResourceLimitError",
    "kron",
    "PauliString",
    "RngStream",
    "sample_transform_arrays",
    "random_symmetric_observable",
    "ratio_sweep",
]
