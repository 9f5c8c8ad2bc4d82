"""Reproducible random streams.

All stochastic components draw from counter-based Philox generators keyed by
the user seed, with disjoint streams obtained through jumps.  The same seed
and stream index produce the same draws on any platform and regardless of how
work is split across processes.
"""

from __future__ import annotations

import numpy as np

from .errors import ValidationError


def philox_stream(seed: int, stream: int) -> np.random.Generator:
    """Generator for stream ``stream`` of the seed's Philox sequence.

    The seed is the Philox key, which must lie in [0, 2**128).  Stream k
    starts at counter k * 2**128, the state ``Philox(key=seed).jumped(k)``
    reaches, set directly because jumping costs more than the draws of a
    small chunk.
    """
    if not 0 <= seed < 2**128:
        raise ValidationError(f"seed {seed} outside [0, 2**128)")
    return np.random.Generator(np.random.Philox(key=seed, counter=stream << 128))
