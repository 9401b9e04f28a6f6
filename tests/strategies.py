"""Hypothesis strategies shared by the test modules."""

from hypothesis import strategies as st


@st.composite
def degree_vector(draw, variables, d):
    """One exponent vector of total degree ``d``, drawn without listing them
    all, so ``d`` may be large; half are pure powers, with exponent d."""
    if draw(st.booleans()):
        j = draw(st.integers(0, variables - 1))
        return tuple(d if i == j else 0 for i in range(variables))
    cut = sorted(draw(st.lists(st.integers(0, d), min_size=variables - 1, max_size=variables - 1)))
    return tuple(b - a for a, b in zip([0, *cut], [*cut, d]))
