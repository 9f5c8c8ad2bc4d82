"""Independent oracles that more than one test file reads.

Each law is written once here, from its definition, without calling the
``ionarch`` code it checks: the lookahead adder's depth and its
communication steps by exhaustive doubling, and a saturated link's mean
pair latency as a geometric law.
"""

import math
from fractions import Fraction


def floor_log2_oracle(num, den=1):
    """Exhaustive doubling: largest e with 2^e <= num/den (num, den ints)."""
    e = 0
    while 2 ** (e + 1) * den <= num:
        e += 1
    if 2 ** e * den > num:  # num/den < 1 never happens for our inputs
        raise AssertionError
    return e


def _depth_logs(n):
    return [floor_log2_oracle(num, den)
            for num, den in ((n, 1), (n - 1, 1), (n, 3), (n - 1, 3))]


def depth_oracle(n):
    """The lookahead adder's depth: the four floor-logs of n, n - 1, n/3 and
    (n - 1)/3, plus 14."""
    return sum(_depth_logs(n)) + 14


def comm_oracle(n):
    """The repeater grid's communication steps: t (t + 17) / 4 summed over
    the same four floor-logs."""
    return sum((Fraction(t * (t + 17), 4) for t in _depth_logs(n)),
               Fraction(0))


def pair_latency_oracle(tick, ions, p, n):
    """A saturated link's mean pair latency and its standard error over n
    pairs: ``ions`` ions each attempt once a ``tick``, so attempts come
    tick / ions apart and a pair takes Geometric(p) of them, on average
    tick / (ions p) with a standard deviation sqrt(1 - p) times that."""
    mean = tick / (ions * p)
    return mean, mean * math.sqrt((1.0 - p) / n)
