"""Hypothesis strategies shared by the test modules."""

from hypothesis import strategies as st


@st.composite
def perms(draw, max_n):
    """A permutation of 1..n as a tuple, n drawn from 0..max_n."""
    n = draw(st.integers(0, max_n))
    return tuple(draw(st.permutations(range(1, n + 1))))
