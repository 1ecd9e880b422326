"""SPD inverse, the n < p capacitance solve and the single-thread BLAS pin
every fit runs under."""

import ctypes
import sys
import threading

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from vbpoisson import bernoulli, laplace, linalg, spike_slab
from vbpoisson.core import Dataset
from vbpoisson.errors import DivergenceError, NumericalError
from vbpoisson.likelihood import approx_loglik, refresh
from vbpoisson.linalg import capacitance_inverse, gaussian_factor, pd_inverse, single_blas_thread


class _FakePool:
    """Stands in for one OpenBLAS library: a thread count with get and set."""

    def __init__(self, count):
        self.count = count
        self.sets = []

    def get(self):
        return self.count

    def set(self, n):
        self.sets.append(n)
        self.count = n


@pytest.fixture()
def fake_pools(monkeypatch):
    pools = [_FakePool(2), _FakePool(3)]
    monkeypatch.setattr(linalg, "_BLAS_POOLS", [(p.get, p.set) for p in pools])
    return pools


def _small_data(seed=0, n=40, p=6):
    rng = np.random.default_rng(seed)
    x = np.column_stack([np.ones(n), rng.standard_normal((n, p - 1))])
    y = rng.poisson(np.exp(0.4 + 0.7 * x[:, 1])).astype(float)
    return Dataset(x, y)


def test_pd_inverse_matches_numpy_inverse():
    rng = np.random.default_rng(0)
    for p in (1, 2, 7, 60):
        a = rng.standard_normal((p + 3, p))
        precision = a.T @ a + np.diag(rng.uniform(0.01, 2.0, size=p))
        inv, logdet = pd_inverse(precision)
        np.testing.assert_allclose(inv, np.linalg.inv(precision), rtol=1e-10, atol=1e-12)
        np.testing.assert_array_equal(inv, inv.T)
        assert logdet == pytest.approx(-np.linalg.slogdet(precision)[1], rel=1e-12)


def test_pd_inverse_jitter_retry_and_failure():
    # singular PSD: the first Cholesky fails, the jittered one succeeds
    precision = np.ones((2, 2))
    inv, logdet = pd_inverse(precision)
    jittered = precision + 1e-10 * np.eye(2)
    np.testing.assert_allclose(inv, np.linalg.inv(jittered), rtol=1e-5)
    assert logdet == pytest.approx(-np.linalg.slogdet(jittered)[1], rel=1e-6)
    with pytest.raises(NumericalError) as info:
        pd_inverse(np.array([[1.0, 0.0], [0.0, -1.0]]))
    assert info.value.condition == pytest.approx(1.0)


def test_blas_pin_nests_and_restores_counts(fake_pools):
    with single_blas_thread():
        assert [p.count for p in fake_pools] == [1, 1]
        with single_blas_thread():
            assert [p.count for p in fake_pools] == [1, 1]
        assert [p.count for p in fake_pools] == [1, 1]
    assert [p.count for p in fake_pools] == [2, 3]
    assert [p.sets for p in fake_pools] == [[1, 2], [1, 3]]


def test_blas_pin_restores_when_holders_leave_out_of_order(fake_pools):
    # two concurrent fits: the first to start may finish first
    first, second = single_blas_thread(), single_blas_thread()
    first.__enter__()
    second.__enter__()
    first.__exit__(None, None, None)
    assert [p.count for p in fake_pools] == [1, 1]
    second.__exit__(None, None, None)
    assert [p.count for p in fake_pools] == [2, 3]


def test_blas_pin_restores_after_an_exception_inside_a_fit(fake_pools):
    # log1p of the count puts the first expansion point past the overflow guard
    diverging = Dataset(np.ones((1, 1)), np.array([1e305]))
    for fit in (laplace.fit_laplace, spike_slab.fit_cs, bernoulli.fit_bernoulli):
        with pytest.raises(DivergenceError):
            fit(diverging)
        assert [p.count for p in fake_pools] == [2, 3]


@pytest.mark.parametrize(
    "module, fit",
    [(laplace, "fit_laplace"), (spike_slab, "fit_cs"), (bernoulli, "fit_bernoulli")],
)
def test_every_fit_runs_single_threaded(monkeypatch, fake_pools, module, fit):
    # n >= p runs pd_inverse, n < p the capacitance solve: record inside each
    seen = {"pd_inverse": [], "capacitance_inverse": []}
    for name in seen:
        def recording(*args, _name=name, _inner=getattr(linalg, name)):
            seen[_name].append([p.count for p in fake_pools])
            return _inner(*args)

        monkeypatch.setattr(linalg, name, recording)
    wide = _small_data(n=12, p=30)
    for data, path in ((_small_data(), "pd_inverse"), (wide, "capacitance_inverse")):
        before = {name: len(calls) for name, calls in seen.items()}
        getattr(module, fit)(data)
        assert len(seen[path]) > before[path]
        assert all(len(seen[name]) == before[name] for name in seen if name != path)
    assert all(counts == [1, 1] for calls in seen.values() for counts in calls)
    assert [p.count for p in fake_pools] == [2, 3]


def _capacitance_case(seed, n, p, masked):
    """A quad bound with n rows and p columns, weights e^xi for xi in [-5, 5],
    a diagonal spread over 1e-6 to 1e6 and, if masked, column scales in (0, 1)."""
    rng = np.random.default_rng(seed)
    x = np.column_stack([np.ones(n), rng.standard_normal((n, p - 1))])
    xi = rng.uniform(-5.0, 5.0, size=n)
    quad = refresh(xi, Dataset(x, rng.poisson(2.0, size=n).astype(float)))
    d = 10.0 ** rng.uniform(-6.0, 6.0, size=p)
    col = rng.uniform(0.0, 1.0, size=p) if masked else None
    return quad, d, rng.standard_normal(p), col


def _root(quad, col):
    """W^(1/2) X diag(col), formed here and not by QuadApprox.root."""
    root = np.sqrt(np.exp(quad.xi))[:, None] * quad.design
    return root if col is None else root * col[None, :]


def _omega(col):
    """The mask's second moments col col^T + diag(col (1 - col)), which meet
    S = X^T W X elementwise; all ones without a mask."""
    if col is None:
        return 1.0
    return np.outer(col, col) + np.diag(col * (1.0 - col))


def _solve_diagonal(quad, d, col):
    """The diagonal D of the precision D + R^T R that the capacitance solve
    sees: d, plus col (1 - col) o diag S for a mask."""
    return d if col is None else d + col * (1.0 - col) * np.sum(_root(quad, None) ** 2, axis=0)


def _precision(quad, d, col):
    """S o Omega + diag(d) in extended precision, S assembled here."""
    root = _root(quad, None).astype(np.longdouble)
    precision = (root.T @ root) * _omega(col)
    precision[np.diag_indices_from(precision)] += d
    return precision


def _long_inverse(a):
    """Inverse and log|inverse| of SPD `a` by pd_inverse's algorithm (Cholesky,
    then the inverse of the factor) in extended precision."""
    a = np.asarray(a, dtype=np.longdouble)
    p = a.shape[0]
    chol = np.zeros_like(a)
    for j in range(p):
        v = a[j:, j] - chol[j:, :j] @ chol[j, :j]
        chol[j:, j] = v / np.sqrt(v[0])
    inv_chol = np.zeros_like(a)
    for i in range(p):
        unit = np.zeros(p, dtype=np.longdouble)
        unit[i] = 1.0
        inv_chol[i] = (unit - chol[i, :i] @ inv_chol[:i]) / chol[i, i]
    return inv_chol.T @ inv_chol, -2.0 * np.sum(np.log(np.diag(chol)))


@pytest.mark.skipif(np.finfo(np.longdouble).eps > 1e-18, reason="needs an 80-bit long double")
@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(data=st.data(), seed=st.integers(0, 2**32 - 1), n=st.integers(1, 30), masked=st.booleans())
def test_the_capacitance_solve_matches_the_dense_inverse(data, seed, n, masked):
    # the yardstick is the dense inverse of the assembled S o Omega + diag(d)
    # in extended precision: in float64 it misses by up to 1e-8 of max|Sigma|
    # on these inputs
    p = data.draw(st.integers(n + 1, 60), label="p")
    quad, d, score, col = _capacitance_case(seed, n, p, masked)
    post = gaussian_factor(d, quad, score, col=col)
    sigma, logdet_ref = _long_inverse(_precision(quad, d, col))
    mean = (sigma @ score).astype(float)
    sigma = sigma.astype(float)
    # D^-1 - V^T V cancels where the data pin a coefficient its prior leaves
    # loose: its rounding is that of V, eps sqrt(cond C) relative to max 1/D
    d = _solve_diagonal(quad, d, col)
    g = _root(quad, col) / np.sqrt(d)
    cond = np.linalg.cond(np.eye(n) + g @ g.T)
    floor = 4.0 * np.finfo(float).eps * np.max(1.0 / d) * np.sqrt(cond)
    np.testing.assert_allclose(
        post.covariance, sigma, rtol=0, atol=1e-10 * np.max(np.abs(sigma)) + floor)
    np.testing.assert_allclose(
        post.mean, mean, rtol=0, atol=1e-10 * np.max(np.abs(mean)) + floor * np.sum(np.abs(score)))
    np.testing.assert_array_equal(post.covariance, post.covariance.T)
    assert post.logdet == pytest.approx(float(logdet_ref), rel=1e-10)


@pytest.mark.skipif(np.finfo(np.longdouble).eps > 1e-18, reason="needs an 80-bit long double")
@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(data=st.data(), seed=st.integers(0, 2**32 - 1), n=st.integers(1, 30), masked=st.booleans())
def test_the_capacitance_solve_meets_its_rounding_bound(data, seed, n, masked):
    # V = L^-1 R D^-1 against forward substitution with the same L in extended
    # precision: a triangular solve's computed x has |x - L^-1 b| <= gamma_n
    # |L^-1| |L| |x| (Higham 2002, thm. 8.5), gamma_n under (n + 1) eps / 2;
    # eps in its place leaves a factor 2 for the bound's own float64 rounding
    p = data.draw(st.integers(n + 1, 60), label="p")
    quad, d, _, col = _capacitance_case(seed, n, p, masked)
    root = quad.root(col)
    v = capacitance_inverse(d, root)[0]
    scaled = root / d
    chol = scipy.linalg.cholesky(scaled @ root.T + np.eye(n), lower=True)
    exact = np.zeros((n, p), dtype=np.longdouble)
    chol_long = chol.astype(np.longdouble)
    for i in range(n):
        exact[i] = (scaled[i] - chol_long[i, :i] @ exact[:i]) / chol_long[i, i]
    inv_chol = np.abs(scipy.linalg.solve_triangular(chol, np.eye(n), lower=True))
    bound = (n + 1) * np.finfo(float).eps * (inv_chol @ np.abs(chol) @ np.abs(v))
    assert np.all(np.abs(v - exact).astype(float) <= bound)


@pytest.mark.parametrize("bad", [0.0, -1e-3, np.nan, np.inf, -np.inf])
def test_the_capacitance_solve_rejects_a_diagonal_that_is_not_positive_and_finite(bad):
    quad, d, score, _ = _capacitance_case(0, 5, 12, False)
    d[3] = bad
    with pytest.raises(NumericalError):
        gaussian_factor(d, quad, score)
    with pytest.raises(NumericalError):
        capacitance_inverse(d, quad.root())


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(data=st.data(), seed=st.integers(0, 2**32 - 1), n=st.integers(1, 30), masked=st.booleans())
def test_the_low_rank_factor_matches_its_dense_covariance(data, seed, n, masked):
    # as in an ELBO: the factor is solved at one xi (and mask), the bound it
    # meets is refreshed at another
    p = data.draw(st.integers(n + 1, 60), label="p")
    quad, d, score, col = _capacitance_case(seed, n, p, masked)
    factor = gaussian_factor(d, quad, score, col=col)
    d = _solve_diagonal(quad, d, col)
    rng = np.random.default_rng([seed, 1])
    ds = Dataset(quad.design, rng.poisson(2.0, size=n).astype(float))
    later = refresh(quad.xi + rng.normal(0.0, 0.5, size=n), ds)
    mask = None if col is None else np.clip(col + rng.uniform(-0.2, 0.2, size=p), 0.0, 1.0)
    mu, sigma = factor.mean, factor.covariance
    d_beta = np.outer(mu, mu) + sigma
    coef = mu if mask is None else mask * mu
    dense = approx_loglik(later, coef, np.vdot(later.s_x_xi * _omega(mask), d_beta))
    # both forms read the same score, so they differ only in the rounding of
    # the trace term: (n + p) eps times the sizes of its summands, which far
    # exceed the term where |R mu|^2 or sum r^2 / d cancels (the dense form
    # then misses an extended-precision value by up to 1e-4 relative)
    root, v = np.abs(later.root(mask)), np.abs(capacitance_inverse(d, quad.root(col))[0])
    sums = np.sum((root @ np.abs(mu)) ** 2) + np.sum(root**2 / d) + np.sum((v @ root.T) ** 2)
    if mask is not None:
        s_diag = np.sum(later.root() ** 2, axis=0)
        sums += np.sum(mask * (1.0 - mask) * s_diag * (mu**2 + 1.0 / d))
    tol = 1e-10 * abs(dense) + (n + p) * np.finfo(float).eps * sums
    assert abs(factor.expected_loglik(later, col=mask) - dense) <= tol
    # mu and diag Sigma from V against the dense Sigma of the same V, within
    # the floor of the test above
    g = quad.root(col) / np.sqrt(d)
    floor = 4.0 * np.finfo(float).eps * np.max(1.0 / d) * np.sqrt(np.linalg.cond(np.eye(n) + g @ g.T))
    np.testing.assert_allclose(
        mu, sigma @ score, rtol=0,
        atol=1e-10 * np.max(np.abs(sigma @ score)) + floor * np.sum(np.abs(score)))
    np.testing.assert_allclose(
        factor.variances, np.diag(sigma), rtol=0, atol=1e-10 * np.max(np.abs(sigma)) + floor)
    # the refined mean solves (D + R^T R) mu = score to the rounding of forming
    # that product, entry by entry; score / d - V^T V score alone misses it
    r = quad.root(col)
    residual = score - d * mu - r.T @ (r @ mu)
    scale = np.abs(score) + d * np.abs(mu) + np.abs(r).T @ (np.abs(r) @ np.abs(mu))
    assert np.all(np.abs(residual) <= (n + 2) * np.finfo(float).eps * scale)


@pytest.mark.skipif(np.finfo(np.longdouble).eps > 1e-18, reason="needs an 80-bit long double")
@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(data=st.data(), seed=st.integers(0, 2**32 - 1), n=st.integers(1, 30), wide=st.booleans())
def test_a_masked_factor_meets_the_mask_moments_on_both_paths(data, seed, n, wide):
    # under a mask the factor's precision is S o Omega + diag(prior), Omega the
    # mask's second moments (Carbonetto & Stephens 2012), and its expected
    # log-likelihood's trace is tr((S o Omega)(mu mu^T + Sigma)), whichever
    # path solves it; the yardsticks are assembled here in extended precision
    p = data.draw(st.integers(n + 1, 60) if wide else st.integers(1, n), label="p")
    quad, prior, score, col = _capacitance_case(seed, n, p, True)
    post = gaussian_factor(prior, quad, score, col=col)
    precision = _precision(quad, prior, col)
    sigma, logdet_ref = _long_inverse(precision)
    mean, sigma = (sigma @ score).astype(float), sigma.astype(float)
    # a solve's rounding, eps cond(precision) relative to Sigma; on these
    # inputs it reaches 1.7 such units
    eps = np.finfo(float).eps
    unit = eps * np.linalg.cond(precision.astype(float))
    atol = 8.0 * unit * np.max(np.abs(sigma))
    np.testing.assert_allclose(post.covariance, sigma, rtol=0, atol=atol)
    np.testing.assert_allclose(post.mean, mean, rtol=0, atol=atol * np.sum(np.abs(score)))
    assert abs(post.logdet - float(logdet_ref)) <= 8.0 * unit * max(abs(float(logdet_ref)), 1.0)
    mu = post.mean
    s_x = _root(quad, None).astype(np.longdouble)
    s_x = s_x.T @ s_x
    trace = np.sum(s_x * _omega(col) * (np.outer(mu, mu) + post.covariance).astype(np.longdouble))
    # the trace's rounding: (n + p) eps times the sizes of its summands, with
    # |R|^T |R| for S and, for a capacitance factor, diag(1 / D) + |V|^T |V|
    # for Sigma; on these inputs it reaches 0.8 such units
    root = np.abs(_root(quad, col))
    if wide:
        d = _solve_diagonal(quad, prior, col)
        v = np.abs(capacitance_inverse(d, quad.root(col))[0])
        size = np.diag(1.0 / d) + v.T @ v
    else:
        size = np.abs(post.covariance)
    sums = np.sum((root.T @ root) * (np.outer(np.abs(mu), np.abs(mu)) + size))
    sums += np.sum(col * (1.0 - col) * np.diag(s_x).astype(float) * (mu**2 + np.diag(size)))
    expected = approx_loglik(quad, col * mu, float(trace))
    # both sides then round the same terms' sum, so they may differ by its ulp
    tol = 4.0 * (n + p) * eps * sums + eps * abs(expected)
    assert abs(post.expected_loglik(quad, col=col) - expected) <= tol


def _real_pools():
    with single_blas_thread():
        return list(linalg._BLAS_POOLS)


def test_blas_pin_is_a_no_op_without_libraries(monkeypatch):
    real_getters = [getter for getter, _ in _real_pools()]
    before = [getter() for getter in real_getters]
    monkeypatch.setattr(linalg, "_BLAS_POOLS", [])
    with single_blas_thread():
        assert [getter() for getter in real_getters] == before
        result = laplace.fit_laplace(_small_data())
    assert [getter() for getter in real_getters] == before
    assert result.iterations > 0


def test_blas_pin_sets_and_restores_the_loaded_libraries():
    pools = _real_pools()
    if not pools:
        pytest.skip("no OpenBLAS library found in this process")
    before = [getter() for getter, _ in pools]
    with pytest.raises(RuntimeError):
        with single_blas_thread():
            assert [getter() for getter, _ in pools] == [1] * len(pools)
            raise RuntimeError("inside the pin")
    assert [getter() for getter, _ in pools] == before


def test_blas_pin_finds_each_library_once():
    # scipy's OpenBLAS is mapped under three file names that export one setter
    setters = [ctypes.cast(s, ctypes.c_void_p).value for _, s in linalg._find_blas_pools()]
    assert len(set(setters)) == len(setters)


def test_blas_pin_under_concurrent_fits(fake_pools):
    # more threads than cores, switching often: a lost update to the depth
    # counter would restore the counts while another holder is still inside
    errors = []

    def worker():
        try:
            for _ in range(300):
                with single_blas_thread():
                    if [p.count for p in fake_pools] != [1, 1]:
                        errors.append([p.count for p in fake_pools])
        except Exception as exc:  # reported below; a thread cannot raise into the test
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    assert [p.count for p in fake_pools] == [2, 3]
    assert linalg._pin_depth == 0


def _scipy_pd_inverse(precision):
    """pd_inverse through scipy.linalg.cholesky: the reference for its LAPACK calls."""
    precision = np.asarray(precision, dtype=float)
    p = precision.shape[0]
    try:
        chol = scipy.linalg.cholesky(precision, lower=True)
    except scipy.linalg.LinAlgError:
        jitter = 1e-10 * np.trace(precision) / p
        try:
            chol = scipy.linalg.cholesky(precision + jitter * np.eye(p), lower=True)
        except scipy.linalg.LinAlgError:
            raise NumericalError("not PD", condition=float(np.linalg.cond(precision))) from None
    lower = scipy.linalg.lapack.dpotri(chol, lower=1)[0]
    inv = lower + lower.T
    inv.flat[:: p + 1] *= 0.5
    return inv, -2.0 * np.sum(np.log(np.diag(chol)))


def _scipy_capacitance_inverse(d, root):
    """capacitance_inverse through scipy.linalg.cholesky and solve_triangular."""
    scaled = root / d
    cap = scaled @ root.T
    cap.flat[:: cap.shape[0] + 1] += 1.0
    try:
        chol = scipy.linalg.cholesky(cap, lower=True)
    except (scipy.linalg.LinAlgError, ValueError):
        raise NumericalError("not PD") from None
    v = scipy.linalg.solve_triangular(chol, scaled, lower=True, check_finite=False)
    return v, -float(np.sum(np.log(d))) - 2.0 * float(np.sum(np.log(np.diag(chol))))


def _same(got, ref):
    """Bit-for-bit equal results, the matrix in the same memory order."""
    assert got[0].tobytes(order="A") == ref[0].tobytes(order="A")
    assert got[0].flags.f_contiguous == ref[0].flags.f_contiguous
    assert np.array(got[1]).tobytes() == np.array(ref[1]).tobytes()


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1), p=st.integers(1, 40), rank=st.integers(0, 45))
def test_pd_inverse_is_the_scipy_cholesky_inverse_bit_for_bit(seed, p, rank):
    # below full rank the first Cholesky may fail and the jittered one run
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((rank, p)) * 10.0 ** rng.uniform(-3.0, 3.0, size=p)
    precision = a.T @ a + np.diag(rng.uniform(0.0, 1.0, size=p) * (rng.uniform(size=p) < 0.5))
    try:
        ref = _scipy_pd_inverse(precision)
    except NumericalError as exc:
        with pytest.raises(NumericalError) as info:
            pd_inverse(precision)
        assert info.value.condition == exc.condition
        return
    _same(pd_inverse(precision), ref)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 30), masked=st.booleans())
def test_the_capacitance_solve_is_the_scipy_one_bit_for_bit(seed, n, masked):
    quad, d, _, col = _capacitance_case(seed, n, n + 1 + seed % 40, masked)
    root = quad.root() if col is None else quad.root() * col
    _same(capacitance_inverse(d, root), _scipy_capacitance_inverse(d, root))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_the_solves_refuse_non_finite_input_as_scipy_did(bad):
    precision = np.eye(3)
    precision[0, 2] = bad  # in the triangle the factorisation does not read
    with pytest.raises(ValueError, match="infs or NaNs"):
        _scipy_pd_inverse(precision)
    with pytest.raises(ValueError, match="infs or NaNs"):
        pd_inverse(precision)
    quad, d, _, _ = _capacitance_case(0, 5, 12, False)
    for at, value in [((2, 3), bad), ((1, 4), 1e200)]:  # 1e200 overflows C to inf
        root = quad.root().copy()
        root[at] = value
        with pytest.raises(NumericalError), np.errstate(over="ignore", invalid="ignore"):
            _scipy_capacitance_inverse(d, root)
        with pytest.raises(NumericalError), np.errstate(over="ignore", invalid="ignore"):
            capacitance_inverse(d, root)


def test_pd_inverse_refuses_a_matrix_that_jitter_cannot_save_as_scipy_did():
    precision = np.diag([1.0, -1.0, 2.0])
    with pytest.raises(NumericalError) as ref:
        _scipy_pd_inverse(precision)
    with pytest.raises(NumericalError) as got:
        pd_inverse(precision)
    assert got.value.condition == ref.value.condition
    _same(pd_inverse(np.ones((2, 2))), _scipy_pd_inverse(np.ones((2, 2))))
