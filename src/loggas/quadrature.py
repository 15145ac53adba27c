"""Gauss-Legendre rules, computed once per node count and shared."""

from functools import lru_cache

import numpy as np


@lru_cache(maxsize=32)
def gl_rule(n):
    """n-point Gauss-Legendre nodes and weights on [-1, 1], read-only."""
    x, w = np.polynomial.legendre.leggauss(n)
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w


def composite_gl(edges, n):
    """n-point Gauss-Legendre rule on every panel [edges[i], edges[i+1]],
    flattened panel by panel."""
    xg, wg = gl_rule(n)
    lo, hi = edges[:-1], edges[1:]
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    x = (mid[:, None] + half[:, None] * xg[None, :]).ravel()
    w = (half[:, None] * wg[None, :]).ravel()
    return x, w
