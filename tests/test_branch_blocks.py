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
from qfluct.rand import haar_unitary, random_density_matrix

from oracles import (
    dephase_reference,
    efficacy_reference,
    joint_probabilities_reference,
)

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

    m_i = protocol.initial_observable.measurement()
    for state in (protocol.initial_state, full_state):
        out = qf.measurement_channel(state, m_i)
        assert np.abs(out - dephase_reference(state, proj_i)).max() <= TOL


def test_projectors_property_rebuilds_inputs():
    rng = np.random.default_rng(11)
    branches = spectral_projectors(haar_unitary(4, rng), [1, -1, 1, math.inf])
    obs = qf.ExtendedObservable.create(branches)
    assert obs.values == (-1.0, 1.0, math.inf)
    assert obs.offsets == (0, 1, 3, 4)
    for (_, want), got in zip(branches, obs.projectors):
        assert np.abs(got - want).max() < 1e-12
