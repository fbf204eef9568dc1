import hashlib
import io
import math
import warnings

import numpy as np
import pytest
import scipy.linalg.lapack
import scipy.sparse as sp
from scipy.special import expit
from hypothesis import given, settings
from hypothesis import strategies as st

from gscfw import (SparseDataset, covariance_generator, covariance_problem, dwd_problem,
                   gsc_affine_constant, gsc_finite_sum_constant, gsc_sum_constant,
                   libsvm_parse, logistic_problem, portfolio_generator, portfolio_problem,
                   synthetic_classification)
from gscfw.gsc import Objective
from gscfw import problems
from gscfw.problems import LogisticLoss, MarginObjective
from gscfw.solvers import SolverConfig, fw_line_search, smallest_hessian_eigenvalue

from conftest import (NegLogObjective, descent_bounds, fd_gradient_check, fd_hess_vec_check,
                      golden_section_max, libsvm_serialize)


# ---------------------------------------------------------------------------
# LIBSVM parsing
# ---------------------------------------------------------------------------

def test_libsvm_parse_basic():
    data = libsvm_parse("-1 3:1 7:0.5")
    assert data.count == 1 and data.dimension == 7
    assert data.labels[0] == -1.0
    row = data.matrix.getrow(0)
    assert dict(zip(row.indices, row.data)) == {2: 1.0, 6: 0.5}


def test_libsvm_parse_empty_and_errors():
    empty = libsvm_parse("")
    assert empty.count == 0 and empty.dimension == 0
    with pytest.raises(ValueError):
        libsvm_parse("0 1:1")  # labels other than +-1 rejected
    with pytest.raises(ValueError):
        libsvm_parse("+1 3:1 2:5")  # non-ascending
    with pytest.raises(ValueError):
        libsvm_parse("+1 3:1 3:5")  # duplicate index
    with pytest.raises(ValueError):
        libsvm_parse("+1 3:abc")
    with pytest.raises(ValueError):
        libsvm_parse("one 3:1")


def test_libsvm_parse_file_like_and_normalization():
    text = "+1 1:3 2:4\n-1 1:1"
    data = libsvm_parse(io.StringIO(text), normalize=True)
    assert data.row_norms() == pytest.approx([1.0, 1.0])
    assert data.matrix[0, 0] == pytest.approx(0.6)


@settings(max_examples=50, deadline=None)
@given(st.lists(
    st.tuples(st.sampled_from([-1.0, 1.0]),
              st.dictionaries(st.integers(0, 30),
                              st.floats(-5, 5, allow_subnormal=False).filter(lambda v: v != 0.0),
                              min_size=1, max_size=6)),
    min_size=1, max_size=12))
def test_libsvm_round_trip(rows):
    n = 31
    indptr, indices, values, labels = [0], [], [], []
    for label, entries in rows:
        labels.append(label)
        for idx in sorted(entries):
            indices.append(idx)
            values.append(entries[idx])
        indptr.append(len(indices))
    data = SparseDataset(sp.csr_matrix((values, indices, indptr), shape=(len(rows), n)), labels)
    back = libsvm_parse(libsvm_serialize(data), dimension=n)
    assert np.array_equal(back.labels, data.labels)
    assert (back.matrix != data.matrix).nnz == 0


# sha256 over dtype and bytes of indptr, indices, data and labels: the
# generator's random stream feeds every benchmark input and golden trace
@pytest.mark.parametrize("p, n, density, seed, normalize, expected", [
    (500, 50, 0.15, 0, True, "25bfd16dc736b9cecc648ea088511f049be9f791c31427298f1a5621d4c3e69c"),
    (200, 30, 0.15, 7, True, "ace004557b2141facb0995695b9a90b0cf94973f5cd9acdc6afa0276e6c77e93"),
    (60, 40, 0.05, 3, False, "ed82c24526dd14fa666d2ed4e511af3d555c4251def30740131e363daa1c7223"),
    # the DWD design of the benchmark, three blocks, and a draw numpy rejects
    (3000, 300, 0.15, 1, True, "d9b9d2719be28dd215df136767f658b11945efd3ef462315fa5cb86600c33b0b"),
    (40, 10000, 0.02, 217, True, "458a0e984c923810704dabc09f1099e6ce831761af22790d580624d9a6e41773"),
])
def test_synthetic_classification_stream_is_pinned(p, n, density, seed, normalize, expected):
    data = synthetic_classification(p, n, density=density, seed=seed, normalize=normalize)
    digest = hashlib.sha256()
    for arr in (data.matrix.indptr, data.matrix.indices, data.matrix.data, data.labels):
        digest.update(str(arr.dtype).encode())
        digest.update(np.ascontiguousarray(arr).tobytes())
    assert digest.hexdigest() == expected


def _choice_then_normal(rng, p, n, k):
    # the reference stream: one choice and one standard_normal call per row
    indices, values = np.empty((p, k), dtype=np.int64), np.empty((p, k))
    for r in range(p):
        indices[r] = rng.choice(n, size=k, replace=False)
        values[r] = rng.standard_normal(k)
    indices.sort(axis=1)
    return indices, values


def _assert_same_rows_and_generator(got, want, rng, reference):
    assert np.array_equal(got[0], want[0])
    assert np.array_equal(got[1].view(np.uint64), want[1].view(np.uint64))
    # integers draws 32-bit halves, so a wrong kept half shows here
    assert rng.bit_generator.state == reference.bit_generator.state
    assert rng.integers(2**31, size=3).tolist() == reference.integers(2**31, size=3).tolist()
    assert rng.standard_normal(2).tolist() == reference.standard_normal(2).tolist()


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 8), st.integers(1, 9), st.integers(1, 300), st.data(),
       st.integers(0, 2**32 - 1), st.integers(0, 1))
def test_block_rows_draw_the_per_row_stream(block, extra, n, data, seed, lead):
    # at least two block boundaries, odd and even blocks, k = n (the per-row
    # loop) included, and a start on a kept half where lead is 1
    p, k = 2 * block + extra, data.draw(st.integers(1, min(n, 40)))
    rng, reference = np.random.default_rng(seed), np.random.default_rng(seed)
    rng.integers(7, size=lead), reference.integers(7, size=lead)
    got = problems._sparse_rows(rng, p, n, k, block)
    _assert_same_rows_and_generator(got, _choice_then_normal(reference, p, n, k), rng, reference)


def test_a_rejected_draw_sends_its_block_to_the_per_row_loop(monkeypatch):
    # seed 217 at n = 10000, k = 200 has a draw that numpy rejects and redraws
    answers, floyd = [], problems._floyd_rows
    monkeypatch.setattr(problems, "_floyd_rows",
                        lambda *args: answers.append(floyd(*args)) or answers[-1])
    rng, reference = np.random.default_rng(217), np.random.default_rng(217)
    got = problems._sparse_rows(rng, 40, 10000, 200, 16)
    assert answers == [True, False, True]
    _assert_same_rows_and_generator(got, _choice_then_normal(reference, 40, 10000, 200),
                                    rng, reference)


# ---------------------------------------------------------------------------
# logistic regression
# ---------------------------------------------------------------------------

def _tiny_logistic(nu_mode=2):
    data = synthetic_classification(40, 12, density=0.4, seed=3)
    return logistic_problem(data, gamma=1.0 / 40, radius=10.0, nu_mode=nu_mode)


def test_logistic_constants_with_normalized_rows():
    data = synthetic_classification(64, 10, density=0.5, seed=1, normalize=True)
    inst2 = logistic_problem(data, gamma=1.0 / 64, radius=10.0, nu_mode=2)
    inst3 = logistic_problem(data, gamma=1.0 / 64, radius=10.0, nu_mode=3)
    assert inst2.objective.spec.m == pytest.approx(1.0)
    assert inst2.objective.spec.nu == 2.0
    assert inst3.objective.spec.m == pytest.approx(math.sqrt(64.0))
    assert inst3.objective.spec.nu == 3.0
    # constant ratio M2/M3 = sqrt(gamma) = 1/sqrt(p) at gamma = 1/p
    assert inst2.objective.spec.m / inst3.objective.spec.m == pytest.approx(64.0 ** -0.5)


def test_logistic_single_sample_values():
    data = SparseDataset(sp.csr_matrix(np.array([[1.0]])), [1.0])
    inst = logistic_problem(data, gamma=0.5, radius=1.0, nu_mode=2)
    assert inst.objective.value(np.zeros(1)) == pytest.approx(math.log(2.0))
    # gradient at zero: -(1/2p) sum y_i a_i + gamma * 0
    grad = inst.objective.gradient(np.zeros(1))
    assert grad[0] == pytest.approx(-0.5)


def test_logistic_gradient_at_zero_formula():
    data = synthetic_classification(40, 12, density=0.4, seed=3)
    obj = logistic_problem(data, gamma=1.0 / 40, radius=10.0).objective
    expected = -np.asarray(data.matrix.T @ data.labels).ravel() / (2.0 * data.count)
    assert np.allclose(obj.gradient(np.zeros(obj.dimension)), expected)


def test_logistic_finite_difference():
    inst = _tiny_logistic()
    rng = np.random.default_rng(4)
    for _ in range(5):
        x = rng.standard_normal(inst.objective.dimension)
        fd_gradient_check(inst.objective, x)
        fd_hess_vec_check(inst.objective, x, rng.standard_normal(x.size))
    assert inst.objective.in_domain(rng.standard_normal(inst.objective.dimension) * 100)


@pytest.mark.parametrize("z", [0.0, 1e-300, -1e-300, 1.0, -1.0, 30.0, -30.0, 745.0, -745.0,
                               1e3, -1e3])
def test_logistic_kernel_from_one_exponential(z):
    # phi, d1 and d2 from e = exp(-|z|) against logaddexp and expit; d2 is
    # compared with expit(z) expit(-z), since s (1 - s) with s = expit(z)
    # cancels for |z| beyond about 20
    kernel, z = LogisticLoss(), np.array([z])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        w = kernel.prepare(z)
        phi, d1, d2 = kernel.phi(w), kernel.d1(w), kernel.d2(w, 1.0)
        expected = (np.logaddexp(0.0, -z), -expit(-z), expit(z) * expit(-z))
    for actual, want in zip((phi, d1, d2), expected):
        np.testing.assert_array_max_ulp(actual, want, maxulp=4)


def test_logistic_d1_keeps_the_bits_of_its_where_form():
    z = np.array([0.0, -0.0, 745.5, -745.5, 1e3, -1e3, np.inf, -np.inf, 5e-324, -5e-324,
                  1e-300, -1e-300, 0.5, -0.5, 1.0, -1.0, 36.7, -36.7, 709.7, -709.7])
    z = np.concatenate([z, np.random.default_rng(4).standard_normal(200) * 40.0])
    kernel = LogisticLoss()
    e = np.exp(-np.abs(z))
    want = -np.where(z >= 0.0, e, 1.0) / (1.0 + e)
    assert np.array_equal(kernel.d1(kernel.prepare(z)).view(np.uint64), want.view(np.uint64))
    assert np.isnan(kernel.d1(kernel.prepare(np.array([np.nan, -np.nan])))).all()


def test_logistic_rejects_bad_inputs():
    data = synthetic_classification(5, 3, seed=0)
    with pytest.raises(ValueError):
        logistic_problem(data, gamma=0.0, radius=1.0)
    with pytest.raises(ValueError):
        logistic_problem(data, gamma=1.0, radius=1.0, nu_mode=4)
    empty = SparseDataset(sp.csr_matrix((0, 3)), [])
    with pytest.raises(ValueError):
        logistic_problem(empty, gamma=1.0, radius=1.0)


# ---------------------------------------------------------------------------
# portfolio
# ---------------------------------------------------------------------------

def test_portfolio_uniform_returns():
    inst = portfolio_problem(np.ones((6, 4)))
    obj = inst.objective
    x = np.full(4, 0.25)
    assert obj.value(x) == pytest.approx(0.0)
    assert np.allclose(obj.gradient(x), -6.0 * np.ones(4))


def test_portfolio_single_asset():
    r = np.array([[1.1], [0.9], [1.05]])
    inst = portfolio_problem(r)
    assert inst.objective.value(np.array([1.0])) == pytest.approx(-float(np.sum(np.log(r))))


def test_portfolio_two_asset_optimum_matches_scalar_search():
    returns = portfolio_generator(2, 2, seed=21)
    inst = portfolio_problem(returns)
    obj = inst.objective

    def neg_f(t):
        return -obj.value(np.array([t, 1.0 - t]))

    t_best = golden_section_max(neg_f, 1e-9, 1.0 - 1e-9, iters=300)
    trace = fw_line_search(obj, inst.feasible_set, np.array([0.5, 0.5]),
                           SolverConfig(epsilon=1e-14, max_iter=4000))
    assert trace.best_f() == pytest.approx(obj.value(np.array([t_best, 1.0 - t_best])),
                                           abs=1e-8)


def test_portfolio_fd_and_psd(portfolio_toy):
    obj = portfolio_toy.objective
    rng = np.random.default_rng(5)
    for _ in range(5):
        x = rng.dirichlet(np.ones(obj.dimension))
        fd_gradient_check(obj, x)
        v = rng.standard_normal(obj.dimension)
        fd_hess_vec_check(obj, x, v)
        assert float(np.dot(obj.hess_vec(x, v), v)) >= 0.0


def test_portfolio_generator_statistics():
    p, n = 500, 200
    r = portfolio_generator(p, n, seed=9)
    assert r.shape == (p, n)
    assert abs(r.mean() - 1.0) <= 3.0 * 0.1 / math.sqrt(p * n)
    assert r.var() == pytest.approx(0.01, rel=0.1)
    assert np.array_equal(r, portfolio_generator(p, n, seed=9))
    assert not np.array_equal(r, portfolio_generator(p, n, seed=10))


def test_portfolio_sandwich():
    inst = portfolio_problem(portfolio_generator(25, 12, seed=11))
    obj = inst.objective
    rng = np.random.default_rng(6)
    for _ in range(200):
        x = rng.dirichlet(np.ones(12))
        y = x + rng.uniform(0, 1) * (rng.dirichlet(np.ones(12)) - x)
        lower, upper = descent_bounds(obj, x, y)
        fy = obj.value(y)
        scale = 1.0 + abs(fy)
        assert lower <= fy + 1e-8 * scale
        if upper is not None:
            assert fy <= upper + 1e-8 * scale


# ---------------------------------------------------------------------------
# distance weighted discrimination
# ---------------------------------------------------------------------------

def _tiny_dwd_data():
    return synthetic_classification(15, 6, density=0.5, seed=7)


def _tiny_dwd():
    return dwd_problem(_tiny_dwd_data(), q=2.0)


def _dwd_sizes(inst):
    """(d, p): the weight and slack block sizes of a DWD instance."""
    ball, _, slack = inst.feasible_set.blocks
    return ball.dimension, slack.dimension


def test_dwd_order_and_defaults():
    inst = _tiny_dwd()
    assert inst.objective.spec.nu == pytest.approx(2.5)
    assert inst.objective.dimension == 6 + 1 + 15
    # feasible blocks: unit ball, [-5, 5], nonneg ball of radius sqrt(10)
    blocks = inst.feasible_set.blocks
    assert blocks[0].radius == 1.0
    assert blocks[1].radius == 5.0
    assert blocks[2].radius == pytest.approx(math.sqrt(10.0))


def test_dwd_constant_follows_sum_affine_calculus():
    data = _tiny_dwd_data()
    obj = dwd_problem(data, q=2.0).objective
    a, y = data.matrix, data.labels
    q = 2.0
    nu = 2.0 * (q + 3.0) / (q + 2.0)
    m_phi = (q + 2.0) / (q * (q + 1.0)) ** (1.0 / (q + 2.0))
    norms = np.sqrt(np.asarray(a.multiply(a).sum(axis=1)).ravel() + y ** 2 + 1.0)
    expected = data.count ** (1.0 / (q + 2.0)) * m_phi * np.max(norms ** (q / (q + 2.0)))
    assert obj.spec.m == pytest.approx(expected, rel=1e-12)



def _row_norms(b):
    """Row norms of a design as MarginObjective takes them."""
    sq = b.multiply(b).sum(axis=1) if sp.issparse(b) else np.sum(b * b, axis=1)
    return np.sqrt(np.asarray(sq).ravel())


def test_margin_constant_equals_the_per_row_calculus():
    # the constant is taken at the largest row norm; row by row, the affine
    # and sum rules (finite-sum rule for order-3 logistic) give the same float
    data = synthetic_classification(30, 8, density=0.4, seed=2)
    a = data.matrix.tolil()
    a[4, :] = 0.0
    data = SparseDataset(a.tocsr(), data.labels)
    assert data.row_norms()[4] == 0.0
    returns = portfolio_generator(12, 5, seed=3)
    returns[2] = 0.0
    for inst in (logistic_problem(data, gamma=0.05, radius=10.0, nu_mode=2),
                 dwd_problem(data, q=2.0), portfolio_problem(returns)):
        obj = inst.objective
        kernel = obj.kernel
        terms = [(1.0 / obj.count, gsc_affine_constant(kernel.m, kernel.nu, r))
                 for r in _row_norms(obj.b)]
        assert obj.spec.m == gsc_sum_constant(terms, kernel.nu), inst.name
    order3 = logistic_problem(data, gamma=0.05, radius=10.0, nu_mode=3).objective
    assert order3.spec.m == gsc_finite_sum_constant(
        [(1.0, r) for r in data.row_norms()], 2.0, 0.05)


def test_margin_products_are_the_products_with_the_design_bit_for_bit():
    # b_times and bt_times call, on B's arrays, the compiled kernel that scipy's
    # own B @ x ends in; this pins that kernel's signature on every supported scipy
    rng = np.random.default_rng(7)
    dense = rng.standard_normal((9, 6)) * (rng.uniform(size=(9, 6)) < 0.5)
    x, u = rng.standard_normal(6), rng.standard_normal(9)
    counts = np.round(4.0 * dense).astype(np.int64)  # integer data, converted to float64
    for b, stored in ((sp.csr_matrix(dense), "csr"), (sp.csc_matrix(dense), "csc"),
                      (dense, None), (sp.coo_matrix(counts), "csr")):
        obj = MarginObjective("products", LogisticLoss(), b, 9)
        assert obj.b.dtype == np.float64
        assert (obj.b.format if sp.issparse(obj.b) else None) == stored
        assert obj.b_times(x).tobytes() == (b @ x).tobytes()
        assert obj.bt_times(u).tobytes() == (b.T @ u).tobytes()
        if stored == "csc":  # the column arrays the atom lines index
            assert obj.csc[1].dtype == np.intp
        for product, size in ((obj.b_times, 6), (obj.bt_times, 9)):
            with pytest.raises(ValueError):
                product(np.ones(size - 1))


def test_margin_hessian_is_the_column_assembly(portfolio_toy):
    # Objective.hessian, the default, assembles it column by column from hess_vec
    data = synthetic_classification(30, 8, density=0.4, seed=2)
    rng = np.random.default_rng(4)
    dwd = dwd_problem(data, q=2.0)
    d, p = _dwd_sizes(dwd)
    cases = [
        (logistic_problem(data, gamma=0.05, radius=10.0), 0.3 * rng.standard_normal(8)),
        (portfolio_toy, rng.dirichlet(np.ones(portfolio_toy.objective.dimension))),
        (dwd, np.concatenate([0.1 * rng.standard_normal(d), [0.2], 1.0 + rng.uniform(size=p)])),
    ]
    assert cases[0][0].objective.b.format == "csc" and cases[0][0].objective.gamma > 0.0
    assert isinstance(cases[1][0].objective.b, np.ndarray)
    assert sp.issparse(cases[2][0].objective.b) and cases[2][0].objective.c is not None
    for inst, x in cases:
        h, ref = inst.objective.hessian(x), Objective.hessian(inst.objective, x)
        assert isinstance(h, np.ndarray) and h.shape == ref.shape == (x.size, x.size)
        assert np.linalg.norm(h - ref) <= 1e-13 * np.linalg.norm(ref), inst.name


def test_the_default_hessian_is_the_column_assembly():
    obj = NegLogObjective(4)
    x = np.array([0.1, 0.2, 0.3, 0.4])
    assert type(obj).hessian is Objective.hessian
    assert np.array_equal(obj.hessian(x), np.diag(1.0 / (x * x)))


def test_smallest_hessian_eigenvalue_matches_the_column_path(portfolio_toy):
    obj = portfolio_toy.objective
    x = np.full(obj.dimension, 1.0 / obj.dimension)
    ref = Objective.hessian(obj, x)
    expected = float(np.linalg.eigvalsh((ref + ref.T) / 2.0)[0])
    assert smallest_hessian_eigenvalue(obj, x) == pytest.approx(expected, rel=1e-11)


def test_dwd_single_sample_gradient_fd():
    data = SparseDataset(sp.csr_matrix(np.array([[2.0]])), [1.0])
    inst = dwd_problem(data, q=2.0)
    obj = inst.objective
    x = np.array([0.1, 0.05, 0.9])  # (w, mu, xi): margin = 0.2 + 0.05 + 0.9 > 0
    assert obj.in_domain(x)
    fd_gradient_check(obj, x)
    fd_hess_vec_check(obj, x, np.array([0.01, 0.02, 0.05]))


def test_dwd_fd_checks():
    inst = _tiny_dwd()
    obj = inst.objective
    d, p = _dwd_sizes(inst)
    rng = np.random.default_rng(8)
    for _ in range(5):
        x = np.concatenate([0.01 * rng.standard_normal(d), [0.0],
                            1.0 + 0.2 * rng.uniform(size=p)])
        assert obj.in_domain(x)
        fd_gradient_check(obj, x, rel_tol=2e-5)
        fd_hess_vec_check(obj, x, 0.01 * rng.standard_normal(obj.dimension), rel_tol=2e-5)


def test_dwd_sandwich():
    inst = _tiny_dwd()
    obj = inst.objective
    d, p = _dwd_sizes(inst)
    rng = np.random.default_rng(9)
    engaged = 0
    for _ in range(300):
        x = np.concatenate([0.01 * rng.standard_normal(d), [0.0],
                            1.0 + rng.uniform(size=p)])
        step = 0.05 * rng.standard_normal(obj.dimension)
        y = x + step
        if not obj.in_domain(y):
            continue
        lower, upper = descent_bounds(obj, x, y)
        fy = obj.value(y)
        scale = 1.0 + abs(fy)
        assert lower <= fy + 1e-8 * scale
        if upper is not None:
            assert fy <= upper + 1e-8 * scale
            engaged += 1
    assert engaged > 50


def test_dwd_rejects_bad_q():
    data = synthetic_classification(5, 3, seed=0)
    with pytest.raises(ValueError):
        dwd_problem(data, q=0.5)


# ---------------------------------------------------------------------------
# covariance estimation
# ---------------------------------------------------------------------------

def test_covariance_values_at_identity():
    sigma = covariance_generator(5, seed=13)
    inst = covariance_problem(sigma)
    obj = inst.objective
    x = np.eye(5)
    assert obj.value(x) == pytest.approx(float(np.trace(sigma)))
    assert np.allclose(obj.gradient(x), sigma - np.eye(5))


def test_covariance_identity_target_optimum():
    # target = I: unconstrained optimum is X = I with value p (cap loosened)
    p = 3
    inst = covariance_problem(np.eye(p), radius=float(p + 1))
    obj = inst.objective
    x0 = np.diag(np.full(p, 0.5))
    trace = fw_line_search(obj, inst.feasible_set, x0,
                           SolverConfig(epsilon=1e-10, max_iter=4000))
    assert trace.best_f() == pytest.approx(float(p), abs=1e-5)


def test_covariance_radius_default():
    inst = covariance_problem(covariance_generator(7, seed=2))
    assert inst.feasible_set.radius == pytest.approx(math.ceil(math.sqrt(7)))


def test_covariance_fd():
    sigma = covariance_generator(4, seed=14)
    obj = covariance_problem(sigma).objective
    rng = np.random.default_rng(10)
    x = np.eye(4) + 0.1 * np.diag(rng.uniform(size=4))
    fd_gradient_check(obj, x)
    raw = rng.standard_normal((4, 4))
    fd_hess_vec_check(obj, x, (raw + raw.T) / 2.0)


def test_covariance_domain_oracle_matches_eigen_rule():
    sigma = covariance_generator(5, seed=15)
    obj = covariance_problem(sigma).objective
    rng = np.random.default_rng(11)
    x = np.eye(5)
    for _ in range(30):
        raw = rng.standard_normal((5, 5))
        v = (raw + raw.T) / 2.0
        t_max = obj.at(x).restrict(v).max_step()
        assert obj.in_domain(x + t_max * v)
        if t_max < 1.0:
            assert not obj.in_domain(x + (t_max / (1 - 1e-7) + 1e-6) * v)


def test_covariance_generator_spectrum():
    sigma = covariance_generator(12, seed=16)
    assert np.max(np.abs(sigma - sigma.T)) < 1e-12
    eig = np.linalg.eigvalsh(sigma)
    assert np.all(eig >= 0.5 - 1e-10) and np.all(eig <= 1.0 + 1e-10)
    assert np.array_equal(sigma, covariance_generator(12, seed=16))


def test_covariance_sandwich():
    sigma = covariance_generator(4, seed=17)
    obj = covariance_problem(sigma).objective
    rng = np.random.default_rng(12)
    engaged = 0
    for _ in range(200):
        d = rng.uniform(0.5, 2.0, size=4)
        x = np.diag(d)
        raw = 0.1 * rng.standard_normal((4, 4))
        y = x + (raw + raw.T) / 2.0
        if not obj.in_domain(y):
            continue
        lower, upper = descent_bounds(obj, x, y)
        fy = obj.value(y)
        scale = 1.0 + abs(fy)
        assert lower <= fy + 1e-8 * scale
        if upper is not None:
            assert fy <= upper + 1e-8 * scale
            engaged += 1
    assert engaged > 50


def test_covariance_rejects_asymmetric_target():
    with pytest.raises(ValueError):
        covariance_problem(np.array([[1.0, 0.5], [0.0, 1.0]]))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("where", [(0, 0), (0, 1)])
def test_covariance_rejects_non_finite_target(bad, where):
    # NaN passes a tolerance test for symmetry, and then f(I) is NaN
    sigma = np.eye(2)
    sigma[where] = sigma[where[::-1]] = bad
    with pytest.raises(ValueError, match="sigma_hat"):
        covariance_problem(sigma)
    with pytest.raises(ValueError, match="sigma_hat"):
        covariance_problem(np.array([[bad]]))


def test_covariance_near_the_largest_float_is_finite():
    # (X + X^T)/2 overflows there: f was -inf at [[1e308]] and NaN below,
    # and a target [[1e308]] became [[inf]]
    assert covariance_problem(np.array([[1e308]])).objective.value(np.eye(1)) == 1e308
    obj = covariance_problem(np.array([[1.0]])).objective
    x = np.array([[1e308]])
    assert obj.in_domain(x)
    assert obj.value(x) == 1e308 - math.log(1e308)
    assert np.all(np.isfinite(obj.gradient(x)))
    # within the symmetry tolerance but not exactly symmetric
    obj = covariance_problem(np.diag([1.0, 0.5])).objective
    x = np.array([[1e308, 1e-300], [0.0, 1e308]])
    assert obj.in_domain(x)
    value = obj.value(x)
    assert math.isfinite(value) and value == pytest.approx(1.5e308, rel=1e-12)
    assert np.all(np.isfinite(obj.gradient(x)))


def _tolerance_factor(x):
    """The Cholesky factor of sym(x) by the tolerance test alone, as
    ``CovarianceObjective._factor`` decided before its exact-symmetry test."""
    scale = float(np.max(np.abs(x)))
    if not math.isfinite(scale) or float(np.max(np.abs(x - x.T))) > 1e-8 * max(1.0, scale):
        return None
    low, info = scipy.linalg.lapack.dpotrf((x + x.T) / 2.0, lower=1, clean=1)
    return low if info == 0 else None


@settings(max_examples=200, deadline=None)
@given(p=st.integers(1, 6), seed=st.integers(0, 2**31 - 1),
       skew=st.sampled_from([0.0, 1e-13, 1e-9, 1e-7]), shift=st.floats(-1.0, 1.0),
       bad=st.sampled_from([None, math.nan, math.inf, -math.inf]),
       symmetric_bad=st.booleans())
def test_covariance_factor_decides_as_the_tolerance_test(p, seed, skew, shift, bad,
                                                         symmetric_bad):
    # the exact-symmetry shortcut changes no decision and no factor
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((p, p))
    x = a @ a.T / p + shift * np.eye(p) + skew * rng.standard_normal((p, p))
    if bad is not None:
        i, j = (int(k) for k in rng.integers(p, size=2))
        x[i, j] = bad
        if symmetric_bad:
            x[j, i] = bad
    obj = covariance_problem(np.eye(p)).objective
    low, ref = obj._factor(x), _tolerance_factor(x)
    assert (low is None) == (ref is None)
    assert low is None or np.array_equal(low, ref)


def _assert_matches_a_fresh_point(point, obj):
    """Y, f and the gradient of ``point`` against obj.at(x), 1e-12 relative."""
    ref = obj.at(point.x)

    def rel(a, b):
        return float(np.linalg.norm(a - b)) / max(1.0, float(np.linalg.norm(b)))

    assert rel(point.x_inverse(), ref.x_inverse()) <= 1e-12
    assert rel(point.value(), ref.value()) <= 1e-12
    assert rel(point.gradient(), ref.gradient()) <= 1e-12


@pytest.mark.parametrize("p", [6, 30])
def test_carried_inverse_matches_a_fresh_point(p):
    # x walks over convex combinations of vertices of the l1 ball, from
    # (R/p) I: forward steps to diagonal and off-diagonal vertices, away
    # steps, and one drop of the off-diagonal vertex added first
    inst = covariance_problem(covariance_generator(p, seed=p))
    obj, ball = inst.objective, inst.feasible_set
    rng = np.random.default_rng(p)
    weights = {(i, i, 1): 1.0 / p for i in range(p)}
    point, ages, first_off = obj.at(ball.radius / p * np.eye(p)), [], None
    for k in range(3 * p):
        kind = ("diagonal", "off-diagonal", "away")[k % 3] if k != 2 * p else "drop"
        if kind in ("diagonal", "off-diagonal"):
            i, j = (int(m) for m in rng.choice(p, 2, replace=False))
            vid = (i, i, int(rng.choice([-1, 1]))) if kind == "diagonal" else (
                min(i, j), max(i, j), int(rng.choice([-1, 1])))
            line = point.toward_atom(*ball.atom(vid))
            t = rng.uniform(0.05, 0.5) * min(line.max_step(), 0.5)
            weights = {v: w * (1.0 - t) for v, w in weights.items()}
            weights[vid] = weights.get(vid, 0.0) + t
            if first_off is None and kind == "off-diagonal":
                first_off = vid
        else:
            vid = first_off if kind == "drop" else list(weights)[int(rng.integers(len(weights)))]
            line, mu = point.toward_atom(*ball.atom(vid)), weights[vid]
            t_bar = mu / (1.0 - mu)  # the drop step
            high = max(line.lam)  # the away step's domain edge is 1 - t high
            t = t_bar if kind == "drop" else rng.uniform(0.2, 0.8) * min(
                t_bar, 0.5 / high if high > 0.0 else t_bar)
            weights = {v: w * (1.0 + t) for v, w in weights.items()}
            weights[vid] -= t
            if kind == "drop":
                del weights[vid]
            t = -t
        assert line.vertex is not None and line.in_domain(t)
        nxt = line.at(t)
        ages.append(nxt.age)
        assert nxt.age == (point.age + 1 if point.age < p else 0)
        y = nxt.x_inverse()
        assert (y == y.T).all()  # by construction
        _assert_matches_a_fresh_point(nxt, obj)
        recon = sum(w * ball.vertex(v) for v, w in weights.items())
        assert np.allclose(recon, nxt.x, rtol=0.0, atol=1e-12 * ball.radius)
        point = nxt
    assert ages.count(0) >= 2 and sum(age > 0 for age in ages) >= 2 * p
    assert first_off not in weights


@pytest.mark.parametrize("p", [6, 30])
def test_an_off_diagonal_step_carries_a_symmetric_inverse_up_to_the_edge(p):
    # two Sherman-Morrison terms, the one that adds to X first: Y stays
    # exactly symmetric, and its error grows no faster than 1/edge as
    # X + tV nears the boundary of the cone
    inst = covariance_problem(covariance_generator(p, seed=p), radius=1.5 * p)
    obj, ball = inst.objective, inst.feasible_set
    point, rng = obj.at(ball.radius / p * np.eye(p)), np.random.default_rng(p)
    for _ in range(4):
        i, j = sorted(int(m) for m in rng.choice(p, 2, replace=False))
        line = point.toward_atom(*ball.atom((i, j, int(rng.choice([-1, 1])))))
        assert line.vertex is not None and len(line.lam) == 2
        for edge in (0.5, 1e-2, 1e-4, 2e-6):
            t = (1.0 - edge) / -min(line.lam + [-1.0])
            nxt = line.at(t)
            assert nxt.age == 1  # carried, not refactored
            y, ref = nxt.x_inverse(), obj.at(nxt.x).x_inverse()
            assert (y == y.T).all()
            assert np.linalg.norm(y - ref) <= 1e-15 / edge * np.linalg.norm(ref)


def test_the_adding_sherman_morrison_term_goes_first():
    # X = diag(1, 1/2, 2) and s = b (e_0 e_1^T + e_1 e_0^T) at b = 2: at t = 1/4,
    # X + tV = (1 - t)(X + q (e_0 e_1^T + e_1 e_0^T)), q = t b/(1 - t) = 2/3,
    # is positive definite (det of its 2 x 2 block 1/2 - q^2 = 1/18, as
    # Y_00 != Y_11), but h = q/2 = 1/(Y_00 + Y_11) makes X - h u- u-^T, u- = e_0 - e_1,
    # singular: the subtracting term, applied first, divides by about 0
    inst = covariance_problem(covariance_generator(3, seed=1), radius=4.0)
    obj, ball = inst.objective, inst.feasible_set
    point = obj.at(np.diag([1.0, 0.5, 2.0]))
    y = point.x_inverse()
    line = point.toward_atom(*ball.atom((0, 1, 1)))
    assert line.vertex == (0, 1, 2.0)
    assert 0.5 * (0.25 * 2.0 / 0.75) * (y[0, 0] + y[1, 1]) == pytest.approx(1.0, abs=1e-15)
    nxt = line.at(0.25)
    assert nxt.age == 1  # carried, not refactored
    _assert_matches_a_fresh_point(nxt, obj)


def test_a_carried_step_leaves_its_parent_as_it_was():
    # a carried step forms Y -+ w w^T in the outer product's own array and
    # divides it in place: the parent's X, Y and gradient keep their bytes,
    # and asking for the same t again gives the same point bit for bit
    p = 6
    inst = covariance_problem(covariance_generator(p, seed=3), radius=9.0)
    obj, ball = inst.objective, inst.feasible_set
    point = obj.at(ball.radius / p * np.eye(p))
    before = [a.tobytes() for a in (point.x, point.x_inverse(), point.gradient())]
    t1, t2 = 0.1, 0.2  # inside the domain, which ends at t = 1/4 toward (0, 3, 1)
    for vid in ((1, 1, 1), (0, 3, 1)):
        line = point.toward_atom(*ball.atom(vid))
        assert line.vertex is not None and len(line.lam) == (1 if vid[0] == vid[1] else 2)
        first, _, again = line.at(t1), line.at(t2), line.at(t1)
        assert first is not again and first.age == again.age == 1  # carried, not refactored
        for a, b in ((first.x, again.x), (first.x_inverse(), again.x_inverse())):
            assert a.tobytes() == b.tobytes()
        assert first.value() == again.value()
        assert [a.tobytes() for a in (point.x, point.x_inverse(), point.gradient())] == before


def test_a_step_near_the_domain_edge_gets_a_factored_point():
    # within _LOGDET_EDGE of the edge, rounding may decide whether X + tV
    # factors: at(t) factors it and in_domain answers what dpotrf says
    p = 6
    inst = covariance_problem(covariance_generator(p, seed=5))
    obj, ball = inst.objective, inst.feasible_set
    point = obj.at(ball.radius / p * np.eye(p))
    for vid in ((0, 0, -1), (1, 3, 1), (2, 4, -1)):
        line = point.toward_atom(*ball.atom(vid))
        low = min(line.lam + [-1.0])
        for edge in (5e-7, 1e-9, 1e-13):
            t = (1.0 - edge) / -low
            nxt = line.at(t)
            assert nxt.age == 0
            assert line.in_domain(t) == (obj._factor(nxt.x) is not None)
        t = (1.0 - 1e-3) / -low  # away from the edge: carried
        assert line.at(t).age == 1
        _assert_matches_a_fresh_point(line.at(t), obj)


# ---------------------------------------------------------------------------
# logistic sandwich (executable GSC-membership proxy)
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("nu_mode", [2, 3])
def test_logistic_sandwich(nu_mode):
    inst = _tiny_logistic(nu_mode)
    obj = inst.objective
    rng = np.random.default_rng(13)
    engaged = 0
    for _ in range(300):
        x = rng.standard_normal(obj.dimension)
        y = x + 0.5 * rng.standard_normal(obj.dimension)
        lower, upper = descent_bounds(obj, x, y)
        fy = obj.value(y)
        scale = 1.0 + abs(fy)
        assert lower <= fy + 1e-8 * scale
        if upper is not None:
            assert fy <= upper + 1e-8 * scale
            engaged += 1
    assert engaged > 50


def test_value_finite_iff_in_domain():
    # portfolio: nonpositive yields escape the domain and get value +inf
    inst = portfolio_problem(np.array([[1.0, -1.0], [1.0, 1.0]]))
    bad = np.array([0.0, 1.0])  # second row fine, first row yields -1
    assert not inst.objective.in_domain(bad)
    assert inst.objective.value(bad) == math.inf
    good = np.array([0.9, 0.1])
    assert inst.objective.in_domain(good)
    assert math.isfinite(inst.objective.value(good))

    dwd = _tiny_dwd().objective
    x_bad = np.zeros(dwd.dimension)  # zero slack: margins are 0, not > 0
    assert not dwd.in_domain(x_bad)
    assert dwd.value(x_bad) == math.inf

    cov = covariance_problem(covariance_generator(3, seed=1)).objective
    assert cov.value(np.diag([1.0, 1.0, -1.0])) == math.inf
    assert not cov.in_domain(np.diag([1.0, 1.0, -1.0]))
    assert not cov.in_domain(np.array([[1.0, 0.5, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]))
    assert math.isfinite(cov.value(np.eye(3)))

    logi = _tiny_logistic().objective
    x = np.full(logi.dimension, 1e3)
    assert logi.in_domain(x) and math.isfinite(logi.value(x))
