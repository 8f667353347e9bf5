"""The public names of qfluct, the public attributes of its classes and
the parameters of its checked entry points, pinned so that adding or
removing one shows in the diff of this file."""

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

CLASS_ATTRIBUTES = {
    "ChainValues": ["g1", "g2"],
    "ConsistencyError": [],
    "CqChannelInstance": ["create", "ensemble", "povm"],
    "DeltaDistribution": ["probs", "values"],
    "Ensemble": ["average_state", "create", "dim", "n_words", "priors", "states"],
    "EvolutionProtocol": ["create", "dim", "final_hamiltonian", "steps"],
    "ExtendedObservable": [
        "blocks", "create", "dim", "from_blocks", "has_infinite_branch", "offsets", "values",
        "vectors",
    ],
    "FtReport": [
        "atoms", "checks", "failures", "gamma", "identity_error", "identity_tol", "jensen_slack",
        "lhs", "max_violation", "mean_delta_a", "passed",
    ],
    "HolevoInternals": [
        "average_support", "blocks", "cond", "elements", "ensemble", "exp_traces", "info_terms",
        "log_weights", "retained", "rho_bar",
    ],
    "HolevoReport": [
        "atoms", "bound_slack", "chain", "checks", "chi", "conditional_term", "equality_residual",
        "failures", "gamma", "gamma_distribution", "gamma_trace", "mean_delta_a",
        "mutual_information", "neg_log_gamma", "passed", "route_error", "shannon",
    ],
    "IllPosedProtocolError": [],
    "JarzynskiReport": [
        "beta", "checks", "delta_f", "exp_neg_beta_work", "failures", "ft", "gamma",
        "identity_error", "max_work_slack", "mean_work", "passed", "z0", "z_ratio", "z_tau",
    ],
    "JointDistribution": ["final_values", "initial_values", "probs"],
    "KrausChannel": ["create", "dim", "kraus_ops"],
    "NaimarkDilation": [
        "blocks", "dim", "encoding_dim", "offsets", "povm_element", "probe_dim", "vectors",
    ],
    "POVM": ["create", "dim", "elements", "n_outcomes"],
    "QfluctError": [],
    "SpectralDecomposition": ["dim", "values", "vectors"],
    "Tolerances": ["degeneracy_tol", "from_dict", "prob_floor", "rank_tol", "to_dict"],
    "TwoTimeProtocol": [
        "channel", "create", "dim", "final_observable", "initial_observable", "initial_state",
    ],
    "ValidationError": [],
}

PARAMETERS = {
    "analyze": ["inst", "tol", "strict"],
    "gt_chain": ["internals"],
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
    assert len(names) == 54


def test_entry_point_parameters_are_pinned():
    for name, parameters in PARAMETERS.items():
        assert list(inspect.signature(getattr(qfluct, name)).parameters) == parameters, name


def test_class_attributes_are_pinned():
    # the attributes each class defines or inherits from a qfluct class:
    # methods, properties and dataclass fields
    classes = {name: value for name, value in vars(qfluct).items() if isinstance(value, type)}
    assert sorted(classes) == sorted(CLASS_ATTRIBUTES)
    for name, cls in classes.items():
        own = set()
        for base in cls.__mro__:
            if base.__module__.startswith("qfluct"):
                own |= set(vars(base)) | set(vars(base).get("__annotations__", {}))
        assert sorted(n for n in own if not n.startswith("_")) == CLASS_ATTRIBUTES[name], name
