"""The Kraus loops run over bounded chunks of stacked operators: the chunk
size, its boundaries, and agreement with a per-operator reference."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import qfluct as qf
from qfluct.channel import _CHUNK_ENTRIES, _kraus_chunks
from qfluct.errors import ConsistencyError, ValidationError
from qfluct.rand import complex_gaussian, random_density_matrix

from oracles import apply_kraus, efficacy_reference, joint_probabilities_reference, projectors
from random_inputs import random_hermitian, random_observable

TOL = 1e-13


def chunk_size(d):
    """Operators in the first chunk of a tuple longer than any chunk."""
    ops = (np.eye(d, dtype=complex),) * (_CHUNK_ENTRIES + 1)
    return len(next(_kraus_chunks(ops)))


def haar_kraus(n_ops, d, rng):
    """n_ops Kraus operators sliced from one Haar isometry (n_ops d, d), so
    that sum K_k† K_k = W† W = I."""
    q, r = np.linalg.qr(complex_gaussian(rng, (n_ops * d, d)))
    w = q * (np.diag(r) / np.abs(np.diag(r)))
    return [w[k * d : (k + 1) * d] for k in range(n_ops)]


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
