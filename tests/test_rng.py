from ionarch.rng import philox_stream


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
