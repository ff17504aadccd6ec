"""Shared pipeline builders, cached so the suite builds each quiver once."""

import functools

from hypothesis import strategies as st

import dimerlab as dl


@functools.lru_cache(maxsize=None)
def pipeline(n, m, diagonals):
    T = dl.Triangulation(n, diagonals)
    D = dl.reduce_dimer(dl.build_dimer(T, m))
    Q = dl.dual_quiver(D)
    R = dl.potential_relations(Q)
    return T, D, Q, R


def fan_key(n):
    return dl.fan_triangulation(n, 1).sorted_diagonals


def fan_pipeline(n, m):
    return pipeline(n, m, fan_key(n))


@functools.lru_cache(maxsize=None)
def presentation(n, m, diagonals):
    _, _, Q, R = pipeline(n, m, diagonals)
    BP = dl.boundary_generators(Q, R)
    match = dl.match_gamma(BP, dl.build_gamma(m, n))
    return BP, match


def fan_presentation(n, m):
    return presentation(n, m, fan_key(n))


CRITERION3_GRID = (
    [(2, n) for n in range(3, 9)]
    + [(3, n) for n in range(3, 7)]
    + [(4, n) for n in range(3, 6)]
    + [(5, n) for n in (3, 4)]
)

CRITERION5_GRID = [(2, n) for n in range(4, 8)] + [(3, n) for n in (4, 5)]


@st.composite
def triangulations(draw, max_n):
    """A triangulation of an n-gon, 3 <= n <= max_n, built through the
    validating constructor: the triangle on each chord (lo, hi) is chosen
    by its third vertex, as in enumerate_triangulations."""
    n = draw(st.integers(3, max_n))
    diagonals = []

    def split(lo, hi):
        if hi - lo < 2:
            return
        k = draw(st.integers(lo + 1, hi - 1))
        diagonals.extend((a, b) for a, b in ((lo, k), (k, hi)) if b - a >= 2)
        split(lo, k)
        split(k, hi)

    split(1, n)
    return dl.Triangulation(n, diagonals)
