"""Reproducible random streams.

All stochastic components draw from counter-based Philox4x64-10 streams
(Salmon, Moraes, Dror and Shaw, SC'11) keyed by the user seed: stream k of a
seed starts at counter k * 2**128, so streams are disjoint and the same seed
and stream index give the same words on any platform, however work is split
across processes.

The words come in two forms.  :func:`philox_stream` is numpy's ``Generator``
on them; netsim and ``hypercell --trials`` draw through its methods
(``geometric``, ``negative_binomial``, ``binomial``, ``random``), so their
seeded outputs also depend on numpy's sampling algorithms, which a numpy
release may change.  :func:`philox_words` computes the same words on Python
ints, and :func:`binomial` draws from them exactly, so the cluster Monte
Carlo's one draw depends on Philox alone and loads no numpy.
"""

from __future__ import annotations

import math
import operator

from .errors import ValidationError

_MASK64 = 2**64 - 1
#: 2**-53: the top 53 bits of a word as a double in [0, 1), the doubles of
#: numpy's ``Generator.random``
_UNIT = 2.0**-53


def _check_seed(seed) -> None:
    if not 0 <= seed < 2**128:
        raise ValidationError(f"seed {seed} outside [0, 2**128)")


def philox_stream(seed: int, stream: int):
    """numpy ``Generator`` for stream ``stream`` of the seed's Philox sequence.

    The seed is the Philox key, which must lie in [0, 2**128).  Stream k
    starts at counter k * 2**128, the state ``Philox(key=seed).jumped(k)``
    reaches, set directly because jumping costs more than the draws of a
    small chunk.
    """
    _check_seed(seed)
    import numpy as np

    return np.random.Generator(
        np.random.Philox(key=seed, counter=stream << 128))


def philox_words(seed: int, stream: int):
    """Iterator over the 64-bit words of stream ``stream`` of the seed.

    They are ``philox_stream(seed, stream).bit_generator.random_raw()``'s
    words bit for bit: the key is the seed, the 256-bit counter starts at
    stream * 2**128 and is bumped before each block of four words, and each
    block is ten Philox4x64 rounds.
    """
    _check_seed(seed)
    seed = operator.index(seed)
    return _philox_blocks(seed & _MASK64, seed >> 64,
                          operator.index(stream) << 128)


def _philox_blocks(k0: int, k1: int, counter: int):
    while True:
        counter = (counter + 1) & (2**256 - 1)
        c0, c1 = counter & _MASK64, (counter >> 64) & _MASK64
        c2, c3 = (counter >> 128) & _MASK64, counter >> 192
        a0, a1 = k0, k1
        for _ in range(10):
            p0 = 0xD2E7470EE14C6C93 * c0
            p1 = 0xCA5A826395121157 * c2
            c0, c1, c2, c3 = ((p1 >> 64) ^ c1 ^ a0, p1 & _MASK64,
                              (p0 >> 64) ^ c3 ^ a1, p0 & _MASK64)
            # the key's Weyl bump between rounds
            a0 = (a0 + 0x9E3779B97F4A7C15) & _MASK64
            a1 = (a1 + 0xBB67AE8584CAA73B) & _MASK64
        yield c0
        yield c1
        yield c2
        yield c3


def _uniform(words) -> float:
    return (next(words) >> 11) * _UNIT


def binomial(words, n: int, p: float) -> int:
    """One exact Binomial(n, p) draw, 0 <= n < 2**63, from ``words``.

    ``words`` is a :func:`philox_words` iterator.  A p above 1/2 draws n
    minus the draw at 1 - p.  Up to a mean of n * min(p, 1 - p) = 30 the
    draw is numpy's inversion (Kachitvichyanukul and Schmeiser, CACM 31, 216
    (1988)) on the same doubles, so it equals ``Generator.binomial`` on the
    same stream bit for bit.  Above it is Hörmann's BTRD (J. Stat. Comput.
    Simul. 46, 101 (1993)), where numpy uses BTPE.
    """
    n = operator.index(n)
    if not 0 <= n < 2**63:
        raise ValidationError(f"n {n} outside [0, 2**63)")
    if not 0 <= p <= 1:
        raise ValidationError(f"p {p} outside [0, 1]")
    if n == 0 or p == 0:
        return 0
    if p <= 0.5:
        return (_inversion if p * n <= 30 else _btrd)(words, n, p)
    q = 1.0 - p
    return n - (_inversion if q * n <= 30 else _btrd)(words, n, q)


def _inversion(words, n: int, p: float) -> int:
    # numpy's random_binomial_inversion, operation for operation
    q = 1.0 - p
    qn = math.exp(n * math.log1p(-p))
    mean = n * p
    bound = int(min(n, mean + 10.0 * math.sqrt(mean * q + 1)))
    x, px, u = 0, qn, _uniform(words)
    while u > px:
        x += 1
        if x > bound:
            x, px, u = 0, qn, _uniform(words)
        else:
            u -= px
            px = (n - x + 1) * p * px / (x * q)
    return x


_HALF_LOG_2PI = 0.5 * math.log(2 * math.pi)


def _stirling_tail(k: int) -> float:
    # log k! minus its Stirling form (k + 1/2) log(k + 1) - (k + 1) + log(2 pi)/2
    if k < 10:
        return (math.lgamma(k + 1) - (k + 0.5) * math.log(k + 1) + (k + 1)
                - _HALF_LOG_2PI)
    x = 1 / ((k + 1) * (k + 1))
    return (1 / 12 - (1 / 360 - x / 1260) * x) / (k + 1)


def _btrd(words, n: int, p: float) -> int:
    # Hörmann's steps 0-3 for p <= 1/2 and n p > 30.  The mode m and the hat
    # centre n p + 1/2 = m + c are split exactly, so k stays exact where a
    # double cannot hold every integer near the mean.
    q = 1.0 - p
    num, den = p.as_integer_ratio()
    m, rem = divmod((n + 1) * num, den)
    c = rem / den + 0.5 - p
    r = p / q
    nr = (n + 1) * r
    npq = n * p * q
    spq = math.sqrt(npq)
    b = 1.15 + 2.53 * spq
    a = -0.0873 + 0.0248 * b + 0.01 * p
    alpha = (2.83 + 5.1 / b) * spq
    v_r = 0.92 - 4.2 / b
    u_rv_r = 0.86 * v_r
    while True:
        v = _uniform(words)
        if v <= u_rv_r:
            u = v / v_r - 0.43
            return m + math.floor((2 * a / (0.5 - abs(u)) + b) * u + c)
        if v >= v_r:
            u = _uniform(words) - 0.5
        else:
            u = v / v_r - 0.93
            u = (-0.5 if u < 0 else 0.5) - u
            v = _uniform(words) * v_r
        us = 0.5 - abs(u)
        if us == 0:             # the hat's edge, where k runs off to infinity
            continue
        k = m + math.floor((2 * a / us + b) * u + c)
        if not 0 <= k <= n:
            continue
        v *= alpha / (a / (us * us) + b)
        km = abs(k - m)
        if km <= 15:
            # f(k) / f(m) by the recursion f(i) = f(i - 1) (n + 1 - i) r / i
            f = 1.0
            for i in range(m + 1, k + 1):       # empty unless k > m
                f *= nr / i - r
            for i in range(k + 1, m + 1):       # empty unless k < m
                v *= nr / i - r
            if v <= f:
                return k
            continue
        v = math.log(v)
        rho = km / npq * (((km / 3 + 0.625) * km + 1 / 6) / npq + 0.5)
        t = -km * km / (2 * npq)
        if v < t - rho:
            return k
        if v > t + rho:
            continue
        # log f(k) / f(m) by Stirling's series, grouped so that no two large
        # terms cancel: d = k - m and the ratios are exact ints divided once
        d, nm = k - m, n - m + 1
        log_ratio = (-(k + 0.5) * math.log1p(d / (m + 1))
                     - (n - k + 0.5) * math.log1p(-d / nm)
                     + d * math.log(r * nm / (m + 1))
                     + _stirling_tail(m) + _stirling_tail(n - m)
                     - _stirling_tail(k) - _stirling_tail(n - k))
        if v <= log_ratio:
            return k
