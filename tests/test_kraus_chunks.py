"""The Kraus loops run over bounded chunks of stacked dense operators and
take the matrix units as one jump-rate matrix: the chunk size, its
boundaries, the split, and agreement with a per-operator reference."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import qfluct as qf
from qfluct.channel import _CHUNK_ENTRIES, _kraus_chunks
from qfluct.ttm import _efficacy_blocks, _joint_blocks
from qfluct.errors import ConsistencyError, ValidationError
from qfluct.rand import random_density_matrix

from oracles import apply_kraus, efficacy_reference, joint_probabilities_reference, projectors
from random_inputs import haar_kraus, random_hermitian, random_observable
from word_blocks import direct_sum, per_word

TOL = 1e-13


def chunk_size(d):
    """Operators in the first chunk of a tuple longer than any chunk."""
    ops = (np.eye(d, dtype=complex),) * (_CHUNK_ENTRIES + 1)
    return len(next(_kraus_chunks(ops)))


def operator_counts(d):
    c = chunk_size(d)
    return sorted({1, max(1, c - 1), c, c + 1, 2 * c + 1})


def check_against_reference(kraus, d, rng):
    channel = qf.KrausChannel.create(kraus)
    rho = random_density_matrix(d, rng)
    stack = np.stack([random_density_matrix(d, rng) for _ in range(3)])
    assert np.abs(qf.apply_channel(channel, rho) - apply_kraus(kraus, rho)).max() <= TOL
    assert np.abs(qf.apply_channel(channel, stack) - apply_kraus(kraus, stack)).max() <= TOL

    # spectra within about [-1, 1], so the efficacy is of order one
    a_i = qf.observable_from_hermitian(random_observable(d, rng, degenerate=True) / 2)
    a_f = qf.observable_from_hermitian(random_hermitian(d, rng, scale=0.5))
    protocol = qf.TwoTimeProtocol.create(rho, a_i, channel, a_f)
    proj_i, proj_f = projectors(a_i), projectors(a_f)
    expected = np.clip(joint_probabilities_reference(rho, proj_i, kraus, proj_f), 0.0, None)
    assert np.abs(qf.joint_distribution(protocol).probs - expected).max() <= TOL
    want = efficacy_reference(rho, a_i.values, proj_i, kraus, a_f.values, proj_f)
    assert abs(qf.efficacy(protocol) - want) <= TOL


def test_chunk_size_bounds_every_product():
    # a chunk of c operators makes products of c d³ multiply-adds; from
    # 2**16 on, OpenBLAS runs a complex GEMM on more than one thread
    for d in range(1, 41):
        c = chunk_size(d)
        assert c == max(1, _CHUNK_ENTRIES // (d * d))
        assert c == 1 or c * d**3 < 65536, d
        assert c * d * d <= _CHUNK_ENTRIES, d


def test_chunks_keep_the_operators_in_order():
    rng = np.random.default_rng(0)
    for d in (1, 2, 5, 24):
        for n_ops in operator_counts(d):
            kraus = tuple(haar_kraus(n_ops, d, rng))
            chunks = list(_kraus_chunks(kraus))
            assert max(len(chunk) for chunk in chunks) == min(n_ops, chunk_size(d))
            assert np.array_equal(np.concatenate(chunks), np.stack(kraus))
    # a lone operator is not copied
    op = np.eye(3, dtype=complex)
    (chunk,) = _kraus_chunks((op,))
    assert chunk.shape == (1, 3, 3) and np.shares_memory(chunk, op)


@pytest.mark.parametrize("d", [1, 2, 5, 24])
def test_chunk_boundaries_match_per_operator_loop(d):
    rng = np.random.default_rng(d)
    for n_ops in operator_counts(d):
        check_against_reference(haar_kraus(n_ops, d, rng), d, rng)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    st.integers(1, 6).flatmap(lambda d: st.tuples(st.just(d), st.integers(1, 2 * chunk_size(d) + 1))),
    st.integers(0, 2**32 - 1),
)
def test_random_kraus_sets_match_per_operator_loop(shape, seed):
    d, n_ops = shape
    rng = np.random.default_rng(seed)
    check_against_reference(haar_kraus(n_ops, d, rng), d, rng)


def test_completeness_is_checked_across_chunks():
    rng = np.random.default_rng(3)
    d = 5
    kraus = haar_kraus(2 * chunk_size(d) + 1, d, rng)
    channel = qf.KrausChannel.create(kraus)
    assert all(a is b for a, b in zip(channel.kraus_ops, kraus))
    with pytest.raises(ValidationError, match="completeness"):
        qf.KrausChannel.create(kraus[:-1])


def test_joint_distribution_rejects_multi_chunk_trace_decreasing_channel():
    # built past KrausChannel.create, whose completeness check would refuse it
    rng = np.random.default_rng(4)
    d = 2
    kraus = tuple(0.9 * k for k in haar_kraus(2 * chunk_size(d) + 1, d, rng))
    channel = qf.KrausChannel(kraus_ops=kraus)
    obs = qf.observable_from_hermitian(np.diag([1.0, -1.0]))
    protocol = qf.TwoTimeProtocol.create(random_density_matrix(d, rng), obs, channel, obs)
    with pytest.raises(ConsistencyError, match="joint marginal"):
        qf.joint_distribution(protocol)


def unit(d, a, b, alpha):
    """The matrix unit alpha |a><b|."""
    e = np.zeros((d, d), dtype=complex)
    e[a, b] = alpha
    return e


def random_units(d, rng, repeats=1):
    """A complete set of matrix units with complex coefficients, and its
    jump-rate matrix W: column b of W is a random probability vector, and
    each W[a, b] is split over `repeats` operators at (a, b)."""
    ops, rates = [], rng.dirichlet(np.ones(d), size=d).T
    for b in range(d):
        for a in range(d):
            for part in rng.dirichlet(np.ones(repeats)) * rates[a, b]:
                ops.append(unit(d, a, b, np.sqrt(part) * np.exp(2j * np.pi * rng.uniform())))
    return ops, rates


def test_an_empty_tuple_has_no_chunks():
    assert list(_kraus_chunks(())) == []


@pytest.mark.parametrize("repeats", [1, 2])
@pytest.mark.parametrize("d", [1, 2, 3, 5])
def test_matrix_units_match_per_operator_loop(d, repeats):
    # complex coefficients; with repeats = 2, two units at every (a, b)
    rng = np.random.default_rng(10 * d + repeats)
    kraus, rates = random_units(d, rng, repeats)
    channel = qf.KrausChannel.create(kraus)
    assert channel._dense == ()
    assert np.abs(channel._jumps - rates).max() <= TOL
    check_against_reference(kraus, d, rng)


@pytest.mark.parametrize("d", [2, 4])
def test_mixed_dense_and_unit_sets_match_per_operator_loop(d):
    # sqrt(1 - q) times a Haar set, plus sqrt(q / d) times every matrix unit;
    # at d = 1 every nonzero operator is a matrix unit
    rng = np.random.default_rng(20 + d)
    q = 0.3
    dense = [np.sqrt(1 - q) * k for k in haar_kraus(3, d, rng)]
    kraus = dense + [unit(d, a, b, np.sqrt(q / d)) for a in range(d) for b in range(d)]
    channel = qf.KrausChannel.create(kraus)
    assert len(channel._dense) == 3 and all(a is b for a, b in zip(channel._dense, dense))
    assert np.abs(channel._jumps - q / d).max() <= TOL
    check_against_reference(kraus, d, rng)


@pytest.mark.parametrize("build", [qf.amplitude_damping_channel, qf.dephasing_channel])
@pytest.mark.parametrize("d", [1, 2, 4])
def test_full_strength_damping_and_dephasing_have_no_dense_part(build, d):
    # amplitude damping at q = 1 is all matrix units; dephasing at q = 1
    # also has the all-zero operator sqrt(1 - q) I, which is dropped
    rng = np.random.default_rng(30 + d)
    channel = build(1.0, d)
    assert channel._dense == ()
    check_against_reference(list(channel.kraus_ops), d, rng)


@pytest.mark.parametrize(
    "channel",
    [qf.identity_channel(2), qf.bit_flip_channel(0.3, 3), qf.depolarizing_channel(0.0, 3)],
    ids=["identity", "bit_flip", "depolarizing_at_zero"],
)
def test_a_channel_without_matrix_units_keeps_every_operator_dense(channel):
    assert channel._jumps is None
    assert len(channel._dense) == len(channel.kraus_ops)
    assert all(a is b for a, b in zip(channel._dense, channel.kraus_ops))


def test_the_split_keeps_the_callers_tuple():
    kraus = (unit(2, 0, 0, 1.0), np.zeros((2, 2), dtype=complex), unit(2, 1, 1, 1j))
    channel = qf.KrausChannel(kraus_ops=kraus)
    assert channel.kraus_ops is kraus
    assert channel._dense == () and np.array_equal(channel._jumps, np.eye(2))


def test_batched_blocks_with_matrix_units_match_each_block():
    # the jump term broadcasts over the block axis of a direct sum
    rng = np.random.default_rng(40)
    d = 3
    kraus = [np.sqrt(0.5) * k for k in haar_kraus(2, d, rng)]
    kraus += [np.sqrt(0.5) * k for k in random_units(d, rng)[0]]
    channel = qf.KrausChannel.create(kraus)
    protocols = [
        qf.TwoTimeProtocol.create(
            random_density_matrix(d, rng),
            qf.observable_from_hermitian(random_observable(d, rng, degenerate=True) / 2),
            channel,
            qf.observable_from_hermitian(random_hermitian(d, rng, scale=0.5)),
        )
        for _ in range(3)
    ]
    weights = [0.2, 0.3, 0.5]
    blocks = direct_sum(protocols, weights)
    joints = per_word(blocks, _joint_blocks(blocks, qf.DEFAULT_TOLS))
    gamma = _efficacy_blocks(blocks)
    want = 0.0
    for joint, protocol, weight in zip(joints, protocols, weights):
        proj_i, proj_f = projectors(protocol.initial_observable), projectors(protocol.final_observable)
        rho = protocol.initial_state
        expected = weight * joint_probabilities_reference(rho, proj_i, kraus, proj_f)
        assert np.abs(joint - np.clip(expected, 0.0, None)).max() <= TOL
        a_i, a_f = protocol.initial_observable, protocol.final_observable
        want += weight * efficacy_reference(rho, a_i.values, proj_i, kraus, a_f.values, proj_f)
    assert abs(gamma - want) <= TOL


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    st.integers(1, 5),
    st.integers(0, 3),
    st.one_of(st.just(0.0), st.just(1.0), st.floats(0.0, 1.0)),
    st.integers(1, 2),
    st.integers(0, 2**32 - 1),
)
def test_random_mixtures_of_dense_sets_and_matrix_units_match_per_operator_loop(d, n_dense, q, repeats, seed):
    # q = 1 leaves the Haar operators all zero, and they are dropped
    rng = np.random.default_rng(seed)
    if n_dense == 0:
        q = 1.0
    kraus = [np.sqrt(1 - q) * k for k in haar_kraus(n_dense, d, rng)] if n_dense else []
    kraus += [np.sqrt(q) * k for k in random_units(d, rng, repeats)[0]]
    check_against_reference(kraus, d, rng)


def test_completeness_of_matrix_units_is_checked():
    rng = np.random.default_rng(50)
    kraus, _ = random_units(3, rng)
    with pytest.raises(ValidationError, match="completeness"):
        qf.KrausChannel.create(kraus[:-1])
    with pytest.raises(ValidationError, match="completeness"):
        qf.KrausChannel.create(kraus + [unit(3, 0, 0, 0.1)])


def test_joint_distribution_rejects_trace_decreasing_matrix_units():
    # built past KrausChannel.create, whose completeness check would refuse it
    rng = np.random.default_rng(51)
    d = 2
    kraus, _ = random_units(d, rng)
    channel = qf.KrausChannel(kraus_ops=tuple(0.9 * k for k in kraus))
    obs = qf.observable_from_hermitian(np.diag([1.0, -1.0]))
    protocol = qf.TwoTimeProtocol.create(random_density_matrix(d, rng), obs, channel, obs)
    with pytest.raises(ConsistencyError, match="joint marginal"):
        qf.joint_distribution(protocol)


def test_joint_distribution_rejects_an_all_zero_channel():
    # every operator is dropped by the split: the zero map, W = 0
    channel = qf.KrausChannel(kraus_ops=(np.zeros((2, 2), dtype=complex),))
    obs = qf.observable_from_hermitian(np.diag([1.0, -1.0]))
    protocol = qf.TwoTimeProtocol.create(np.eye(2) / 2, obs, channel, obs)
    assert channel._dense == () and np.array_equal(channel._jumps, np.zeros((2, 2)))
    assert np.array_equal(qf.apply_channel(channel, np.eye(2)), np.zeros((2, 2)))
    with pytest.raises(ConsistencyError, match="joint marginal"):
        qf.joint_distribution(protocol)
