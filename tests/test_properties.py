"""Property tests: invariants checked on generated inputs, not single cases."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from looptomo import (
    ConfigError,
    DataError,
    OutcomeMatrix,
    POVMSet,
    UncertaintyBand,
    fileio,
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


# -- artifact CSVs -------------------------------------------------------------

_shapes = st.tuples(st.integers(1, 6), st.integers(1, 5))
_unit_rows = _shapes.flatmap(
    lambda shape: arrays(np.float64, shape, elements=st.floats(1e-300, 1.0))
).map(lambda a: a / a.sum(axis=1, keepdims=True))
_any_floats = _shapes.flatmap(
    lambda shape: arrays(np.float64, shape,
                         elements=st.floats(allow_nan=False, allow_infinity=False))
)


def _rewrite(tmp_path_factory, save, load, obj):
    """Bytes of save(obj), the loaded object, and bytes of save(load(...))."""
    d = tmp_path_factory.mktemp("rt")
    save(obj, d / "a.csv")
    back = load(d / "a.csv")
    save(back, d / "b.csv")
    return (d / "a.csv").read_bytes(), back, (d / "b.csv").read_bytes()


@PROPERTY
@given(_unit_rows, st.data())
def test_povm_csv_round_trip_is_exact(tmp_path_factory, theta, data):
    flags = data.draw(arrays(np.bool_, theta.shape[0]))
    povm = POVMSet(theta, flags)
    first, back, second = _rewrite(
        tmp_path_factory, fileio.save_povm_csv, fileio.load_povm_csv, povm)
    assert first == second
    assert np.array_equal(back.theta, povm.theta)
    assert np.array_equal(back.supported, flags)


@PROPERTY
@given(_unit_rows, st.data())
def test_outcome_matrix_csv_round_trip_is_exact(tmp_path_factory, values, data):
    pulses = data.draw(arrays(np.int64, values.shape[0],
                              elements=st.integers(0, 2**53)))
    matrix = OutcomeMatrix(values, pulses)
    first, back, second = _rewrite(
        tmp_path_factory, fileio.save_outcome_matrix, fileio.load_outcome_matrix,
        matrix)
    assert first == second
    assert np.array_equal(back.values, matrix.values)
    assert np.array_equal(back.n_pulses, pulses)


@PROPERTY
@given(_any_floats, st.data())
def test_band_csv_round_trip_is_exact(tmp_path_factory, lo, data):
    hi = data.draw(arrays(np.float64, lo.shape,
                          elements=st.floats(allow_nan=False, allow_infinity=False)))

    def save(pair, path):
        fileio.save_band(UncertaintyBand(*pair, 2, 0.05), path)

    first, back, second = _rewrite(tmp_path_factory, save, fileio.load_band, (lo, hi))
    assert first == second
    assert np.array_equal(back[0], lo) and np.array_equal(back[1], hi)


_cell = st.one_of(
    st.floats().map(repr),
    st.integers(-3, 3).map(str),
    st.text(st.sampled_from("0123456789.-+eEinfa x#"), max_size=6),
)
_line = st.one_of(
    st.lists(_cell, max_size=6).map(",".join),
    st.text(st.characters(min_codepoint=32, max_codepoint=126), max_size=30),
)
_READERS = [
    (fileio.load_povm_csv, "fock_index,outcome_0,outcome_1,supported"),
    (fileio.load_outcome_matrix, "n_pulses,outcome_0,outcome_1,outcome_2"),
    (fileio.load_band, "fock_index,lo_0,hi_0,lo_1,hi_1"),
]


@pytest.mark.parametrize("reader, header", _READERS)
@PROPERTY
@given(body=st.lists(_line, max_size=5))
def test_csv_readers_fail_only_by_contract(tmp_path_factory, reader, header, body):
    path = tmp_path_factory.mktemp("fuzz") / "f.csv"
    path.write_text("\n".join([header, *body]) + "\n")
    try:
        reader(path)
    except (ConfigError, DataError):
        pass
