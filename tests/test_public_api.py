"""The public names of qfluct and the parameters of its checked entry
points, pinned so that adding or removing one shows in the diff of this
file."""

import inspect
import types

import qfluct

PUBLIC_NAMES = [
    "ChainValues",
    "ConsistencyError",
    "CqChannelInstance",
    "DEFAULT_TOLS",
    "DeltaDistribution",
    "Ensemble",
    "EvolutionProtocol",
    "ExtendedObservable",
    "FtReport",
    "HolevoInternals",
    "HolevoReport",
    "IllPosedProtocolError",
    "JarzynskiReport",
    "JointDistribution",
    "KrausChannel",
    "NaimarkDilation",
    "POVM",
    "QfluctError",
    "SpectralDecomposition",
    "Tolerances",
    "TwoTimeProtocol",
    "ValidationError",
    "amplitude_damping_channel",
    "analyze",
    "apply_channel",
    "bit_flip_channel",
    "characteristic_function",
    "compressed_exp",
    "conditional_probabilities",
    "delta_a_distribution",
    "dephasing_channel",
    "depolarizing_channel",
    "dilation_probabilities",
    "efficacy",
    "equality_residual",
    "func_on_support",
    "group_eigenspaces",
    "gt_chain",
    "holevo_chi",
    "identity_channel",
    "jarzynski_scenario",
    "joint_distribution",
    "kron",
    "measurement_channel",
    "mutual_information",
    "naimark_dilate",
    "observable_from_hermitian",
    "optimize_measurement",
    "povm_probabilities",
    "prepare_instance",
    "random_instance",
    "spectral_decompose",
    "support_projector",
    "unitary_from_protocol",
    "verify_ft",
]

PARAMETERS = {
    "analyze": ["inst", "tol", "strict"],
    "gt_chain": ["internals", "gamma"],
    "jarzynski_scenario": ["h0", "protocol", "beta", "tolerances"],
    "optimize_measurement": ["ensemble", "n_outcomes", "seed", "tol"],
    "verify_ft": ["protocol", "tolerances"],
}


def test_public_names_are_pinned():
    names = sorted(
        name
        for name, value in vars(qfluct).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    )
    assert names == PUBLIC_NAMES
    assert len(names) == 55


def test_entry_point_parameters_are_pinned():
    for name, parameters in PARAMETERS.items():
        assert list(inspect.signature(getattr(qfluct, name)).parameters) == parameters, name
