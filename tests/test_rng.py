import collections
import itertools
import math
import random

import pytest

from ionarch.errors import ValidationError
from ionarch.rng import _uniform, binomial, philox_stream, philox_words


def test_streams_pinned():
    # the first draws of a few (seed, stream) pairs, across the seed's key
    # range [0, 2**128)
    pinned = {
        (0, 0): [106500010600983629, 2227898105101312729],
        (5, 3): [3930080956150962193, 6751340582952407586],
        (2**128 - 1, 1): [77747334552000297, 3712178721105550023],
    }
    for (seed, stream), draws in pinned.items():
        rng = philox_stream(seed, stream)
        assert rng.integers(0, 2**63, size=2).tolist() == draws


def test_streams_match_jumped_reference():
    import numpy as np
    for seed, stream in [(0, 0), (5, 3), (2**128 - 1, 1), (9, 2**20)]:
        reference = np.random.Philox(key=seed)
        if stream:
            reference = reference.jumped(stream)
        expected = np.random.Generator(reference).random(5)
        assert (philox_stream(seed, stream).random(5) == expected).all()


def test_words_and_doubles_are_numpys():
    # the Python-int stream reads numpy's Philox words, across block
    # boundaries, and their doubles are Generator.random's
    for seed, stream in [(0, 0), (5, 3), (2**128 - 1, 1), (9, 2**20),
                         (2**127 + 12345, 2**40 + 7)]:
        words = list(itertools.islice(philox_words(seed, stream), 9))
        assert words == philox_stream(seed, stream).bit_generator.random_raw(
            9).tolist()
        assert all(type(word) is int for word in words)
        doubles = philox_words(seed, stream)
        assert ([_uniform(doubles) for _ in range(9)]
                == philox_stream(seed, stream).random(9).tolist())


def test_both_stream_forms_check_the_seed():
    for seed in (-1, 2**128):
        for form in (philox_stream, philox_words):
            with pytest.raises(ValidationError, match=r"outside \[0, 2\*\*128\)"):
                form(seed, 0)


def _binomial_pmf(n, p, k):
    return math.exp(math.lgamma(n + 1) - math.lgamma(k + 1)
                    - math.lgamma(n - k + 1) + k * math.log(p)
                    + (n - k) * math.log1p(-p))


@pytest.mark.parametrize("n, p", [
    (40, 0.3),          # inversion, mean 12
    (2000, 0.25),       # BTRD, mean 500
    (150, 0.3),         # BTRD just past the switch, mean 45
    (50, 0.8),          # p > 1/2: n minus an inversion draw at 0.2
    (1000, 0.93),       # p > 1/2: n minus a BTRD draw at 0.07
])
def test_binomial_law(n, p):
    # chi-square of 20000 draws against the exact pmf: one bin per count with
    # at least 10 expected draws, the two tails together as the last bin
    draws = 20000
    words = philox_words(2024, 0)
    counts = collections.Counter(binomial(words, n, p) for _ in range(draws))
    assert all(type(k) is int and 0 <= k <= n for k in counts)
    # a z-test of the mean, as at 2**62 below
    mean = sum(k * c for k, c in counts.items()) / draws
    assert abs(mean - n * p) < 4 * math.sqrt(n * p * (1 - p) / draws)
    expected, observed = [], []
    for k in range(n + 1):
        e = draws * _binomial_pmf(n, p, k)
        if e >= 10:
            expected.append(e)
            observed.append(counts.pop(k, 0))
    expected.append(draws - sum(expected))
    observed.append(sum(counts.values()))
    chi2 = sum((o - e) ** 2 / e for o, e in zip(observed, expected))
    # upper 1e-4 quantile of chi-square with `dof` degrees of freedom
    # (Wilson-Hilferty, z = 3.719)
    dof = len(expected) - 1
    spread = math.sqrt(2 / (9 * dof))
    assert chi2 < dof * (1 - spread**2 + 3.719 * spread) ** 3, (chi2, dof)


def test_binomial_edges():
    words = philox_words(1, 0)
    assert {binomial(words, 1000, 0.0) for _ in range(100)} == {0}
    assert {binomial(words, 1000, 1.0) for _ in range(100)} == {1000}
    assert binomial(words, 0, 0.5) == 0
    for n, p in ((-1, 0.5), (2**63, 0.5), (10, -0.1), (10, 1.5),
                 (10, math.nan)):
        with pytest.raises(ValidationError):
            binomial(words, n, p)
    with pytest.raises(TypeError):
        binomial(words, 2.5, 0.5)


def test_binomial_mean_at_2_62():
    # z-test of the mean of 2000 draws at the Monte Carlo's largest count,
    # on both sides of p = 1/2 and at a mean of a few hundred
    n = 2**62
    for p in (1e-16, 1e-4, 0.3, 0.5, 0.75):
        words = philox_words(11, 0)
        draws = [binomial(words, n, p) for _ in range(2000)]
        mean = sum(draws) / len(draws) - n * p
        assert abs(mean) < 4 * math.sqrt(n * p * (1 - p) / len(draws)), p


def test_binomial_equals_numpy_up_to_a_mean_of_30():
    # numpy's inversion on the same doubles: equal draws, one after another
    # on one stream, from n = 1 to 2**62 and on both sides of p = 1/2
    rng = random.Random(5)
    cases = [(60, 0.5), (1, 0.5), (1, 1.0), (2**62, 30 / 2**62)]
    for n in (1, 7, 64, 1000, 10**6, 2**40, 2**62):
        for mean in (0.01, 0.5, 3.0, 12.0, 29.9, 30.0):
            p = min(mean / n, 0.5)
            cases += [(n, p), (n, 1.0 - p)]
    cases += [(n, rng.uniform(0, 30) / n) for n in
              (rng.randrange(1, 2**62) for _ in range(100))]
    for index, (n, p) in enumerate(cases):
        if min(p, 1.0 - p) * n > 30:
            continue
        reference = philox_stream(7, index)
        words = philox_words(7, index)
        got = [binomial(words, n, p) for _ in range(5)]
        assert got == reference.binomial(n, p, size=5).tolist(), (n, p)
