"""Block-form two-time statistics against explicit projector references.

Observables are held as eigenvector blocks; these property tests rebuild
every quantity from explicit projectors and compare.  The space is
S (+) T: the state lives on S, the channel and both observables are block
diagonal, so a +infinity final branch on T is never reached.
"""

import math

import numpy as np
from hypothesis import given, settings, strategies as st

import qfluct as qf
from qfluct.rand import random_density_matrix

from qfluct.ttm import _joint_blocks, _merge_atoms

from oracles import (
    dephase_reference,
    efficacy_reference,
    joint_probabilities_reference,
    merge_atoms_reference,
    projectors,
)
from random_inputs import haar_unitary
from word_blocks import direct_sum

TOL = 1e-12


def block_diag(a, b):
    out = np.zeros((a.shape[0] + b.shape[0], a.shape[1] + b.shape[1]), dtype=complex)
    out[: a.shape[0], : a.shape[1]] = a
    out[a.shape[0]:, a.shape[1]:] = b
    return out


def block_basis(rng, s, t):
    return block_diag(haar_unitary(s, rng), haar_unitary(t, rng) if t else np.zeros((0, 0)))


def spectral_projectors(basis, column_values):
    """(value, projector) pairs, ascending with +infinity last, grouping
    columns of equal value exactly."""
    out = []
    for v in sorted(set(column_values)):
        cols = basis[:, [i for i, w in enumerate(column_values) if w == v]]
        out.append((float(v), cols @ cols.conj().T))
    return out


def block_kraus(rng, s, t, count):
    """count Kraus operators A_k (+) B_k from random isometries."""
    def split(d):
        if d == 0:
            return [np.zeros((0, 0))] * count
        g = rng.normal(size=(count * d, d)) + 1j * rng.normal(size=(count * d, d))
        q, _ = np.linalg.qr(g)
        return [q[k * d:(k + 1) * d] for k in range(count)]

    return [block_diag(a, b) for a, b in zip(split(s), split(t))]


@st.composite
def protocols(draw):
    s = draw(st.integers(1, 5))
    t = draw(st.integers(0, 3))
    n = s + t
    infinite = t > 0 and draw(st.booleans())
    values_i = draw(st.lists(st.integers(-2, 2), min_size=n, max_size=n))
    values_f = draw(st.lists(st.integers(-2, 2), min_size=s, max_size=s))
    values_f = values_f + (
        [math.inf] * t if infinite else draw(st.lists(st.integers(-2, 2), min_size=t, max_size=t))
    )
    count = draw(st.integers(1, 6))
    via_hermitian = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rho_s = random_density_matrix(s, rng)
    rho = block_diag(rho_s, np.zeros((t, t)))
    branches_i = spectral_projectors(block_basis(rng, s, t), values_i)
    branches_f = spectral_projectors(block_basis(rng, s, t), values_f)
    if via_hermitian:
        a_i = qf.observable_from_hermitian(sum(v * p for v, p in branches_i))
    else:
        a_i = qf.ExtendedObservable.create(reversed(branches_i))
    a_f = qf.ExtendedObservable.create(reversed(branches_f))
    kraus = block_kraus(rng, s, t, count)
    protocol = qf.TwoTimeProtocol.create(rho, a_i, qf.KrausChannel.create(kraus), a_f)
    return protocol, branches_i, kraus, branches_f, random_density_matrix(n, rng)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(protocols())
def test_block_statistics_match_projector_reference(case):
    protocol, branches_i, kraus, branches_f, full_state = case
    values_i, proj_i = zip(*branches_i)
    values_f, proj_f = zip(*branches_f)
    assert np.allclose(protocol.initial_observable.values, values_i, rtol=0, atol=TOL)
    assert protocol.final_observable.values == values_f

    joint = qf.joint_distribution(protocol)
    expected = np.clip(
        joint_probabilities_reference(protocol.initial_state, proj_i, kraus, proj_f), 0.0, None
    )
    assert np.abs(joint.probs - expected).max() <= TOL

    gamma = qf.efficacy(protocol)
    want = efficacy_reference(protocol.initial_state, values_i, proj_i, kraus, values_f, proj_f)
    assert abs(gamma - want) <= TOL * max(1.0, abs(want))

    for state in (protocol.initial_state, full_state):
        out = qf.measurement_channel(state, protocol.initial_observable)
        assert np.abs(out - dephase_reference(state, proj_i)).max() <= TOL


@st.composite
def word_block_cases(draw):
    """Up to four words on S (+) T that share one block-diagonal channel,
    with weights summing to one.  Integer branch values make degenerate
    spectra and branch counts that differ between words and between the
    two times.  Each word's state lives on S and may be rank-deficient
    there, so some of its pairs have zero probability and are dropped;
    T carries a +infinity final branch on the words that draw one and
    finite values on the rest.  s = 1, t = 0 is d = 1."""
    s, t = draw(st.integers(1, 4)), draw(st.integers(0, 2))
    n = s + t
    n_words = draw(st.integers(1, 4))
    infinite = draw(st.lists(st.booleans(), min_size=n_words, max_size=n_words))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    channel = qf.KrausChannel.create(block_kraus(rng, s, t, draw(st.integers(1, 3))))
    words = []
    for inf in infinite:
        values_i = draw(st.lists(st.integers(-2, 2), min_size=n, max_size=n))
        values_f = draw(st.lists(st.integers(-2, 2), min_size=s, max_size=s))
        values_f += [math.inf] * t if inf else draw(st.lists(st.integers(-2, 2), min_size=t, max_size=t))
        rank = draw(st.integers(1, s))
        rho = block_diag(random_density_matrix(s, rng, rank=rank if rank < s else None), np.zeros((t, t)))
        a_i = qf.ExtendedObservable.create(spectral_projectors(block_basis(rng, s, t), values_i))
        a_f = qf.ExtendedObservable.create(spectral_projectors(block_basis(rng, s, t), values_f))
        words.append(qf.TwoTimeProtocol.create(rho, a_i, channel, a_f))
    return words, rng.dirichlet(np.ones(n_words))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(word_block_cases())
def test_word_blocks_match_a_per_word_loop(case):
    # the batched pair probabilities and the pooled atoms against a loop
    # over the words with the projector references
    words, weights = case
    tol = qf.DEFAULT_TOLS
    blocks = direct_sum(words, weights)
    probs = _joint_blocks(blocks, tol)
    delta = _merge_atoms(blocks.deltas, probs, tol)
    kraus = list(words[0].channel.kraus_ops)
    joints = []
    for word, weight in zip(words, weights):
        a_i, a_f = word.initial_observable, word.final_observable
        expected = weight * joint_probabilities_reference(word.initial_state, projectors(a_i), kraus, projectors(a_f))
        joints.append(qf.ttm.JointDistribution(np.clip(expected, 0.0, None), np.array(a_i.values), np.array(a_f.values)))
    assert probs.shape == (sum(joint.probs.size for joint in joints),)
    assert np.abs(probs - np.concatenate([joint.probs.ravel() for joint in joints])).max() <= TOL
    reference = np.array(merge_atoms_reference(joints, tol))
    assert delta.values.shape == (len(reference),)
    assert np.abs(delta.values - reference[:, 0]).max() <= TOL * max(1.0, np.abs(reference[:, 0]).max())
    assert np.abs(delta.probs - reference[:, 1]).max() <= TOL


def test_projectors_property_rebuilds_inputs():
    rng = np.random.default_rng(11)
    branches = spectral_projectors(haar_unitary(4, rng), [1, -1, 1, math.inf])
    obs = qf.ExtendedObservable.create(branches)
    assert obs.values == (-1.0, 1.0, math.inf)
    assert obs.offsets == (0, 1, 3, 4)
    for (_, want), got in zip(branches, projectors(obs)):
        assert np.abs(got - want).max() < 1e-12
