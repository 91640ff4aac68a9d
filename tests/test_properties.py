"""Property tests: invariants checked on generated inputs, not single cases."""

import math

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from looptomo import (
    BinningConfig,
    ConfigError,
    DataError,
    OutcomeMatrix,
    POVMSet,
    TimeTagHistogram,
    UncertaintyBand,
    fileio,
    histogram_from_bin_counts,
    integrate_histogram,
    poisson_binomial_bruteforce,
    poisson_binomial_pmf,
    poisson_binomial_rows,
    project_rows_to_simplex,
)
from looptomo.model_fit import _search_positions
from looptomo.probe_states import poisson_pmf, poisson_row
from looptomo.tomography import _active_set_qp, _fw_gap, _objective
from test_tomography import dense_kkt_qp, random_qp, sort_projection

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


# ties come from the sampled values; +-1e6 entries put tau far from the data
_projection_inputs = st.tuples(st.integers(1, 6), st.integers(1, 60)).flatmap(
    lambda shape: arrays(np.float64, shape, elements=st.one_of(
        st.floats(-1e6, 1e6),
        st.sampled_from([0.0, 1.0, -1.0, 0.5, 1 / 3, 1e6, -1e6]),
    ))
)


@PROPERTY
@given(y=_projection_inputs, on_simplex=st.booleans(), fortran=st.booleans())
def test_simplex_projection_matches_sort_based(y, on_simplex, fortran):
    if on_simplex:
        y = sort_projection(y)
    if fortran:
        y = np.asfortranarray(y)
    x = project_rows_to_simplex(y)
    assert x.shape == y.shape and x.flags.f_contiguous == y.flags.f_contiguous
    # both take tau from sums of the same entries, added in different orders
    scale = np.maximum(1.0, np.abs(y).sum(axis=1, keepdims=True))
    assert np.all(np.abs(x - sort_projection(y)) <= 1e-14 * scale)


@PROPERTY
@given(data=st.data(), y=_projection_inputs, fortran=st.booleans(),
       hint=st.sampled_from(["all", "none", "random", "support", "flipped"]))
def test_warm_started_projection_matches_cold(data, y, fortran, hint):
    if fortran:
        y = np.asfortranarray(y)
    cold = project_rows_to_simplex(y)
    if hint == "all":
        support = np.ones(y.shape, dtype=bool)
    elif hint == "none":
        support = np.zeros(y.shape, dtype=bool)
    elif hint == "random":
        support = data.draw(arrays(np.bool_, y.shape))
    else:
        support = cold > 0
        if hint == "flipped":
            support.flat[data.draw(st.integers(0, y.size - 1))] ^= True
    x = project_rows_to_simplex(y, support=support)
    assert x.shape == y.shape and x.flags.f_contiguous == y.flags.f_contiguous
    assert x.min() >= 0.0
    np.testing.assert_allclose(x.sum(axis=1), 1.0, atol=1e-12)
    # a hinted set that is self-consistent gives the same threshold up to
    # the order of one sum, which at a tie may include the tied entry
    assert np.all(np.abs(x - cold) <= 1e-15)


# entries of 1e15-1e17, where 1/N falls below the rounding of a row's sum
_large_projection_inputs = st.tuples(st.integers(1, 6), st.integers(1, 60)).flatmap(
    lambda shape: arrays(np.float64, shape, elements=st.one_of(
        st.floats(1e15, 1e17),
        st.floats(-1e17, -1e15),
        st.sampled_from([0.0, 1e16, -1e16, 1e17]),
    ))
)


@PROPERTY
@given(y=_large_projection_inputs)
def test_simplex_projection_stays_on_simplex_at_large_scale(y):
    x = project_rows_to_simplex(y)
    assert np.all(np.isfinite(x)) and np.all(x >= 0.0)
    np.testing.assert_allclose(x.sum(axis=1), 1.0, rtol=0, atol=1e-13)
    # a common shift of a row leaves its projection unchanged, and the
    # sort-based projection sums only entries near 0 once the maximum is 0
    shifted = y - y.max(axis=1, keepdims=True)
    np.testing.assert_allclose(x, sort_projection(shifted), rtol=0, atol=1e-13)


@PROPERTY
@given(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=12))
def test_pmf_matches_enumeration(p):
    pmf = poisson_binomial_pmf(p)
    assert pmf.shape == (len(p) + 1,)
    expected = [poisson_binomial_bruteforce(p, n) for n in range(len(p) + 1)]
    np.testing.assert_allclose(pmf, expected, rtol=0, atol=1e-10)



_probability_rows = st.tuples(st.integers(1, 64), st.integers(0, 119)).flatmap(
    lambda shape: arrays(np.float64, shape, elements=st.one_of(
        st.floats(0.0, 1.0),
        st.sampled_from([0.0, 1.0, 0.5, 1e-300, 1.0 - 2.0**-53]),
    ))
)


@PROPERTY
@given(pmat=_probability_rows)
def test_batch_rows_equal_rows_computed_alone(pmat):
    # the bright-state search evaluates many draws in one batch and relies
    # on each row being exactly what a one-row call returns
    pmfs = poisson_binomial_rows(pmat)
    assert pmfs.shape == (pmat.shape[0], pmat.shape[1] + 1)
    assert pmfs.min() >= 0.0
    for r, p in enumerate(pmat):
        assert np.array_equal(pmfs[r], poisson_binomial_rows(p[None, :])[0])

@PROPERTY
@given(
    means=st.lists(st.integers(0, 80).map(lambda k: k / 10), min_size=1, max_size=6),
    n_out=st.integers(1, 5),
    epsilon=st.floats(0.0, 1.0),
    data=st.data(),
)
def test_fw_gap_bounds_objective_decrease(means, n_out, epsilon, data):
    f_mat = np.vstack([poisson_row(m, 11) for m in means])

    def draw(shape):
        return data.draw(arrays(np.float64, shape, elements=st.floats(0.0, 1.0)))

    def objective(t):
        return _objective(f_mat, p_mat, t, epsilon)[0]

    theta = project_rows_to_simplex(draw((12, n_out)))
    p_mat = draw((len(means), n_out))
    gap = _fw_gap(f_mat, p_mat, theta, epsilon)
    assert gap >= 0.0
    # weak duality: a step from theta towards random simplex vertices lies
    # at most the gap below it
    vertices = np.eye(n_out)[data.draw(arrays(np.int64, 12,
                                              elements=st.integers(0, n_out - 1)))]
    step = data.draw(st.floats(1e-6, 1.0))
    other = (1.0 - step) * theta + step * vertices
    assert objective(theta) - objective(other) <= gap + 1e-12
    if np.linalg.norm(p_mat - f_mat @ theta) > 1e-3:
        # away from r = 0 the objective is smooth, and the gap is the sum
        # over rows of the steepest slope from theta_i towards a vertex;
        # central differences give each slope without the gradient formula
        h = 1e-6
        fd_gap = 0.0
        for i in range(12):
            slopes = []
            for n in range(n_out):
                direction = np.zeros_like(theta)
                direction[i] = np.eye(n_out)[n] - theta[i]
                slopes.append((objective(theta + h * direction)
                               - objective(theta - h * direction)) / (2 * h))
            fd_gap -= min(slopes)
        assert gap == pytest.approx(fd_gap, rel=1e-6, abs=1e-7)


def _polish_qp(seed, m1, n_out):
    """A QP shaped like the polish's: Q = F^T F / s + 2 eps D^T D for 15
    Poisson probes, b = F^T P / s for data P near F theta. Small s and eps
    put the outcome blocks near condition 1e15; eps = 0 is drawn only with
    fewer Fock rows than probes, where F^T F alone is near it too."""
    rng = np.random.default_rng(seed)
    f_mat = np.vstack([poisson_row(m, m1 - 1)
                       for m in np.linspace(0.0, rng.uniform(2.0, 25.0), 15)])
    s = 10 ** rng.uniform(-4, -2)
    eps = 0.0 if m1 <= 11 and rng.uniform() < 0.5 else 10 ** rng.uniform(-9, -5)
    d = np.diff(np.eye(m1), axis=0)
    p_mat = (f_mat @ rng.dirichlet(np.ones(n_out), size=m1)
             + rng.normal(scale=1e-3, size=(15, n_out)))
    _, _, x0 = random_qp(seed, m1, n_out)
    return f_mat.T @ f_mat / s + 2 * eps * d.T @ d, f_mat.T @ p_mat / s, x0


@PROPERTY
@given(seed=st.integers(0, 2**32 - 1), m1=st.integers(1, 61),
       n_out=st.integers(1, 11), polish_shaped=st.booleans())
def test_active_set_qp_matches_dense_kkt(seed, m1, n_out, polish_shaped):
    q_mat, b, x0 = (_polish_qp if polish_shaped else random_qp)(seed, m1, n_out)
    x_new, ok_new = _active_set_qp(q_mat, b.ravel(), x0, 400, 1e-8)
    x_ref, ok_ref = dense_kkt_qp(q_mat, b.ravel(), x0, 400, 1e-8)
    assert ok_new == ok_ref
    if not ok_ref:
        # an unfinished solve stops wherever its pivot path reached
        return
    # refinement stops once the KKT residual is within the tolerance, so
    # that bounds the row sums, not rounding: at m1 = 42 and N = 1 they are
    # off by 1.8e-13, near condition 1e14 by 4.5e-9
    np.testing.assert_allclose(x_new.sum(axis=1), 1.0, rtol=0, atol=1e-8)
    if not polish_shaped:
        np.testing.assert_allclose(x_new, x_ref, rtol=0, atol=1e-10)
        return

    def qp_objective(x):
        return 0.5 * np.sum(x * (q_mat @ x)) - b.ravel() @ x.ravel()

    # near condition 1e15 the data fix x only to ~cond * 1e-16, but they fix
    # the optimal value
    ref = qp_objective(x_ref)
    assert qp_objective(x_new) <= ref + 1e-10 * abs(ref)


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


_histograms = st.builds(
    TimeTagHistogram,
    arrays(np.int64, st.integers(1, 20), elements=st.integers(0, 2**63 - 1)),
    st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
    st.floats(allow_nan=False, allow_infinity=False),
)


@PROPERTY
@given(hist=_histograms)
def test_histogram_round_trip_is_exact(tmp_path_factory, hist):
    first, back, second = _rewrite(
        tmp_path_factory, fileio.save_histogram_csv, fileio.load_histogram, hist
    )
    assert first == second
    assert np.array_equal(back.counts, hist.counts)
    assert (back.bin_width_ps, back.t0_ps) == (hist.bin_width_ps, hist.t0_ps)


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


def _python_lines(values: np.ndarray, fmt: bytes) -> list[bytes]:
    """One line per value, formatted by Python's ``fmt % v``."""
    return [fmt % v for v in values.tolist()] + [b""]


def _block_lines(values: np.ndarray) -> list[bytes]:
    """One line per value, formatted by the CSV block formatter."""
    return fileio._csv_block([values[:, None]]).split(b"\n")


# every kind of double: subnormals, +-0, +-inf, nan and values >= 1, and
# values in [1e-280, 1), which the formatter computes without Python
_any_doubles = arrays(
    np.float64, st.integers(1, 64),
    elements=st.one_of(st.floats(), st.floats(-1.0, 1.0), st.floats(1e-300, 1e-3)),
)

_DOUBLE_EDGES = [
    0.99999999999999989,  # the largest double below 1
    1e-4, np.nextafter(1e-4, 0.0),  # where %.17g switches to an exponent
    1e-14,  # the double lies below 10^-14 and rounds up to "1e-14"
    5e-324, 2.2250738585072014e-308,  # the smallest subnormal and normal
    0.5, 0.25, 0.125,
    # exact ties at the 17th digit, which %.17g rounds to even
    26215 / 2**18, 26217 / 2**18, 43 / 2**22,
]


@PROPERTY
@given(_any_doubles)
def test_float_block_matches_percent_17g(x):
    assert _block_lines(x) == _python_lines(x, b"%.17g")


def test_float_block_matches_percent_17g_at_edges():
    x = np.array(_DOUBLE_EDGES)
    x = np.concatenate([x, -x])
    assert _block_lines(x) == _python_lines(x, b"%.17g")


def test_float_block_matches_percent_17g_on_random_bits():
    bits = np.random.default_rng(12).integers(0, 2**64, 100_000, dtype=np.uint64)
    x = bits.view(np.float64)
    assert _block_lines(x) == _python_lines(x, b"%.17g")


@PROPERTY
@given(arrays(np.int64, st.integers(1, 64)))
def test_int_block_matches_percent_d(v):
    assert _block_lines(v) == _python_lines(v, b"%d")


# -- ingest and probe rows -----------------------------------------------------

@PROPERTY
@given(
    n_bins=st.integers(1, 12),
    period_ns=st.one_of(st.floats(0.01, 3.0), st.floats(3.0, 200.0)),
    window_ns=st.floats(1.0, 2.5),
    raw_width_ps=st.floats(10.0, 900.0),
    data=st.data(),
)
def test_integration_recovers_synthesized_window_totals(
    n_bins, period_ns, window_ns, raw_width_ps, data
):
    # from the centre of a window, the next one starts at period - window / 2
    # and this one ends at window / 2
    if n_bins > 1 and period_ns - window_ns / 2 < window_ns / 2:
        with pytest.raises(ConfigError, match="^detector windows overlap"):
            BinningConfig(n_bins, window_width_ns=window_ns, bin_period_ns=period_ns)
        return
    cfg = BinningConfig(n_bins, window_width_ns=window_ns, bin_period_ns=period_ns)
    totals = data.draw(arrays(np.int64, n_bins, elements=st.integers(0, 2**53)))
    hist = histogram_from_bin_counts(totals, cfg, bin_width_ps=raw_width_ps)
    assert np.array_equal(integrate_histogram(hist, cfg), totals)


@PROPERTY
@given(log_mean=st.floats(-3.0, 5.0))
def test_poisson_pmf_matches_mpmath(log_mean):
    mpmath = pytest.importorskip("mpmath")
    mean = 10.0 ** log_mean
    # six standard deviations about the mean, padded by 32
    spread = 6.0 * math.sqrt(mean)
    lo, hi = max(0, math.floor(mean - spread)), math.ceil(mean + spread) + 32
    counts = np.unique(np.linspace(lo, hi, 40).round().astype(np.int64))
    with mpmath.workdps(40):
        mu = mpmath.mpf(mean)
        exact = [float(mpmath.exp(k * mpmath.log(mu) - mu - mpmath.loggamma(k + 1)))
                 for k in counts.tolist()]
    # masses below the smallest normal double are flushed to zero
    np.testing.assert_allclose(poisson_pmf(counts, mean), exact, rtol=1e-12,
                               atol=np.finfo(float).tiny)


@PROPERTY
@given(n=st.integers(1, 200_000))
def test_fit_search_rows_are_graded(n):
    pos = _search_positions(n)
    gaps = np.diff(pos)
    assert np.all(gaps > 0)
    head = min(n, 65)
    np.testing.assert_array_equal(pos[:head], np.arange(head))
    assert pos[-1] == n - 1
    assert gaps.size == 0 or gaps.max() <= 32
    if n <= 65:
        np.testing.assert_array_equal(pos, np.arange(n))


def test_fit_search_rows_at_paper_truncations():
    assert _search_positions(2001).size == 158
    assert _search_positions(5329).size == 262
