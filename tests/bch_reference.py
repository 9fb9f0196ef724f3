"""Reference Baker-Campbell-Hausdorff by Dynkin's explicit commutator series.

This enumerates every tuple of (r, s) exponent pairs, so it is exponential in
the cutoff (about 50 s at cutoff 5).  It is the oracle that the recursive
``deforma.mc.bch`` must match exactly, at cutoff <= 4, in test_mc.py.
"""

import itertools

from deforma.graded import GVec, vec_add, vec_is_zero, vec_scale
from deforma.linalg import Q


def _nested_bracket(bracket, word: list[GVec]) -> GVec:
    out = word[-1]
    for letter in reversed(word[:-1]):
        out = bracket(letter, out)
    return out


def bch(bracket, x: GVec, y: GVec, cutoff: int) -> GVec:
    """log(e^x e^y) by the explicit commutator series, with all bracket words
    of length > cutoff treated as zero."""
    total: GVec = {}
    for n in range(1, cutoff + 1):
        outer = Q(-1) ** (n - 1) / Q(n)
        pair_choices = [(r, s) for r in range(cutoff + 1)
                        for s in range(cutoff + 1) if r + s >= 1]
        for combo in itertools.product(pair_choices, repeat=n):
            length = sum(r + s for r, s in combo)
            if length > cutoff:
                continue
            denom = Q(length)
            for r, s in combo:
                for t in range(2, r + 1):
                    denom *= t
                for t in range(2, s + 1):
                    denom *= t
            word: list[GVec] = []
            for r, s in combo:
                word.extend([x] * r)
                word.extend([y] * s)
            term = _nested_bracket(bracket, word)
            if not vec_is_zero(term):
                total = vec_add(total, vec_scale(outer / denom, term))
    return total
