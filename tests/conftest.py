"""Shared helpers for the test suite."""
import numpy as np
import pytest

from fanokit import Channel, FiniteDistribution, uniform_distribution


def philox(seed: int, stream: int = 0) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=[seed, stream]))


def dirichlet_pair(seed: int, k: int):
    """Deterministic random full-support pair on labels 0..k-1."""
    rng = philox(seed)
    labels = tuple(range(k))
    P = FiniteDistribution(labels, rng.dirichlet(np.ones(k)))
    Q = FiniteDistribution(labels, rng.dirichlet(np.ones(k)))
    return P, Q


def bsc(flip: float) -> Channel:
    """Binary symmetric channel."""
    return Channel((0, 1), (0, 1), [[1.0 - flip, flip], [flip, 1.0 - flip]])


@pytest.fixture
def uniform4():
    return uniform_distribution(("a", "b", "c", "d"))


class KeyedTerms(tuple):
    """Kernel terms that carry the arguments they were computed from, so a
    stand-in kernel can read the event probability or the window behind
    them."""
    key: tuple = ()


def keyed(terms_of):
    """terms_of (bounds._event_terms or bounds._window_terms), returning
    KeyedTerms keyed by its arguments."""
    def terms(*args):
        out = KeyedTerms(terms_of(*args))
        out.key = args
        return out
    return terms
