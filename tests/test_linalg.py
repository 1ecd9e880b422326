"""SPD inverse and the single-thread BLAS pin every fit runs under."""

import sys
import threading

import numpy as np
import pytest

from vbpoisson import bernoulli, laplace, linalg, spike_slab
from vbpoisson.core import Dataset
from vbpoisson.errors import DivergenceError, NumericalError
from vbpoisson.linalg import pd_inverse, single_blas_thread


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
    seen = []

    def recording_inverse(precision):
        seen.append([p.count for p in fake_pools])
        return pd_inverse(precision)

    monkeypatch.setattr(linalg, "pd_inverse", recording_inverse)
    getattr(module, fit)(_small_data())
    assert seen and all(counts == [1, 1] for counts in seen)
    assert [p.count for p in fake_pools] == [2, 3]


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
