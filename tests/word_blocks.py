"""The word blocks of several two-time protocols, for tests of the batched
engine: analyze builds its blocks from arrays, and a single protocol runs
as a stack of one."""

import numpy as np

from qfluct.measurement import _Branches
from qfluct.ttm import _WordBlocks


def _stacked(parts):
    """Stacks of observables one after another, each one's labels moved
    past the branches of those before it."""
    shifts = np.cumsum([0] + [part.values.size for part in parts[:-1]])
    return _Branches(
        np.concatenate([part.vectors for part in parts]),
        np.concatenate([part.labels + shift for part, shift in zip(parts, shifts)]),
        np.concatenate([part.values for part in parts]),
    )


def direct_sum(protocols, weights):
    """Word blocks of protocols that share the first one's channel, block j
    weighted by weights[j]."""
    singles = [_WordBlocks.of(p) for p in protocols]
    return _WordBlocks(
        np.concatenate([single.states for single in singles]),
        np.asarray(weights, dtype=float),
        protocols[0].channel,
        _stacked([single.initial for single in singles]),
        _stacked([single.final for single in singles]),
    )


def per_word(blocks, probs):
    """Pair probabilities of _joint_blocks as one (m, n) array per word."""
    m, n = (np.diff(np.append(b.labels[:, 0], b.values.size)) for b in (blocks.initial, blocks.final))
    return [p.reshape(a, b) for p, a, b in zip(np.split(probs, np.cumsum(m * n)[:-1]), m, n)]
