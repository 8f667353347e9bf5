"""Two-time measurement quantum fluctuation theorems and the sharpened
Holevo bound, on finite-dimensional systems."""

from .channel import (
    EvolutionProtocol,
    KrausChannel,
    TcpValidationReport,
    amplitude_damping_channel,
    apply_channel,
    bit_flip_channel,
    dephasing_channel,
    depolarizing_channel,
    identity_channel,
    unitary_from_protocol,
    validate_tcp,
)
from .errors import ConsistencyError, IllPosedProtocolError, QfluctError, ValidationError
from .holevo import (
    ChainValues,
    CqChannelInstance,
    Ensemble,
    HolevoInternals,
    HolevoReport,
    OptimizeConfig,
    analyze,
    build_joint_state,
    conditional_probabilities,
    equality_residual,
    gt_chain,
    holevo_chi,
    mutual_information,
    mutual_information_decomposition,
    optimize_measurement,
    prepare_instance,
    random_instance,
)
from .measurement import (
    ExtendedObservable,
    NaimarkDilation,
    POVM,
    ProjectiveMeasurement,
    dilation_probabilities,
    measurement_channel,
    naimark_dilate,
    naimark_dilate_randomized,
    observable_from_hermitian,
    povm_probabilities,
)
from .operator_core import (
    DEFAULT_TOLS,
    SpectralDecomposition,
    Tolerances,
    compressed_exp,
    func_on_support,
    group_eigenspaces,
    kron,
    pseudo_log,
    spectral_decompose,
    support_projector,
)
from .ttm import (
    DeltaDistribution,
    FtReport,
    JarzynskiReport,
    JointDistribution,
    TwoTimeProtocol,
    characteristic_function,
    delta_a_distribution,
    efficacy,
    jarzynski_scenario,
    joint_distribution,
    verify_ft,
)

__version__ = "0.1.0"
