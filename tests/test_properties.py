"""Property tests: invariants checked on generated inputs, not single cases."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from looptomo import (
    poisson_binomial_bruteforce,
    poisson_binomial_pmf,
    project_rows_to_simplex,
)

# derandomized and without an example database, so every run checks the
# same examples
PROPERTY = settings(max_examples=200, deadline=None, database=None,
                    derandomize=True)

_rows = st.tuples(st.integers(1, 8), st.integers(1, 16)).flatmap(
    lambda shape: arrays(
        np.float64, shape, elements=st.floats(-100.0, 100.0, allow_nan=False)
    )
)


@PROPERTY
@given(_rows)
def test_simplex_projection_is_feasible(y):
    x = project_rows_to_simplex(y)
    assert x.shape == y.shape
    assert x.min() >= 0.0
    np.testing.assert_allclose(x.sum(axis=1), 1.0, atol=1e-12)


@PROPERTY
@given(_rows)
def test_simplex_projection_is_idempotent(y):
    x = project_rows_to_simplex(y)
    np.testing.assert_allclose(project_rows_to_simplex(x), x, atol=1e-12)


@PROPERTY
@given(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=12))
def test_pmf_matches_enumeration(p):
    pmf = poisson_binomial_pmf(p)
    assert pmf.shape == (len(p) + 1,)
    expected = [poisson_binomial_bruteforce(p, n) for n in range(len(p) + 1)]
    np.testing.assert_allclose(pmf, expected, rtol=0, atol=1e-10)
