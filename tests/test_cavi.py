"""The shared coordinate-ascent loop's stop, divergence and expansion-point rules."""

from dataclasses import dataclass

import numpy as np
import pytest

from vbpoisson import cavi
from vbpoisson.bernoulli import fit_bernoulli
from vbpoisson.core import Dataset, GaussianPosterior, Hyperparameters, Method
from vbpoisson.errors import DivergenceError, NumericalError
from vbpoisson.laplace import fit_laplace
from vbpoisson.likelihood import QuadApprox, refresh
from vbpoisson.spike_slab import fit_cs

_DATA = Dataset(np.ones((3, 1)), np.array([1.0, 2.0, 0.0]))


@dataclass
class _Scripted:
    """A one-coefficient state whose sweep counts itself; its mean sets xi."""

    posterior: GaussianPosterior
    quad: QuadApprox
    sweeps: int = 0

    @property
    def linear_coef(self):
        return self.posterior.mean


def _engine(elbos, diverge_at=None, overflow_at=None):
    """Sweep and ELBO-terms functions replaying a scripted ELBO sequence.

    Sweep number `diverge_at` raises a DivergenceError itself; sweep number
    `overflow_at` moves the mean past the guard the xi refresh enforces.
    """
    values = iter(elbos)

    def update(state, dataset, hp):
        state.sweeps = state.sweeps + 1
        if state.sweeps == diverge_at:
            raise DivergenceError("scripted")
        mean = 800.0 if state.sweeps == overflow_at else 0.25 * state.sweeps
        state.posterior = GaussianPosterior(np.array([mean]), np.eye(1))
        return state

    def elbo_terms(state, dataset, hp):
        return {"scripted": next(values)}

    return update, elbo_terms


def _start():
    return _Scripted(GaussianPosterior(np.zeros(1), np.eye(1)), refresh(np.zeros(3), _DATA))


def _result(run):
    return run.fit_result(Method.LAPLACE, np.ones(1), {})


def test_stops_at_the_first_relative_change_below_epsilon():
    hp = Hyperparameters(epsilon=1e-3)
    # relative changes 0.5, 2e-3, 2e-4: the third is the first below epsilon
    run = cavi.run(_start(), _DATA, hp, *_engine([-100.0, -50.0, -49.9, -49.89, -49.88]))
    fit = _result(run)
    assert run.converged and fit.converged
    assert run.divergence is None and fit.divergence is None
    assert run.trace == [-100.0, -50.0, -49.9, -49.89]
    assert fit.iterations == len(fit.elbo_trace) == 4
    assert run.state.sweeps == 4
    # the expansion points follow the mean of the last sweep
    np.testing.assert_array_equal(run.state.quad.xi, np.full(3, 1.0))


def test_stops_unconverged_at_max_iter():
    hp = Hyperparameters(epsilon=1e-3, max_iter=4)
    run = cavi.run(_start(), _DATA, hp, *_engine([-2.0**k for k in range(10, 0, -1)]))
    fit = _result(run)
    assert not run.converged and not fit.converged
    assert run.divergence is None
    assert fit.iterations == len(run.trace) == 4


@pytest.mark.parametrize("how", ["diverge_at", "overflow_at"])
def test_divergence_in_the_first_sweep_propagates(how):
    with pytest.raises(DivergenceError):
        cavi.run(_start(), _DATA, Hyperparameters(), *_engine([-1.0], **{how: 1}))


@pytest.mark.parametrize("how", ["diverge_at", "overflow_at"])
def test_later_divergence_returns_the_last_complete_state(how):
    start = _start()
    run = cavi.run(start, _DATA, Hyperparameters(), *_engine([-100.0, -50.0], **{how: 3}))
    assert not run.converged
    reason = {"diverge_at": "scripted", "overflow_at": "linear predictor exceeded the overflow guard"}
    assert run.divergence == reason[how]
    assert _result(run).divergence == reason[how]
    assert run.trace == [-100.0, -50.0]
    assert run.state.sweeps == 2
    np.testing.assert_array_equal(run.state.posterior.mean, [0.5])
    np.testing.assert_array_equal(run.state.quad.xi, np.full(3, 0.5))
    # sweeps work on copies, so the caller's state is left as it was
    assert start.sweeps == 0


def test_non_finite_elbo_term_is_named():
    with pytest.raises(NumericalError, match="non-finite ELBO term: beta_prior"):
        cavi.elbo({"likelihood": -1.0, "beta_prior": np.nan})
    assert cavi.elbo({"a": -1.5, "b": 0.25}) == -1.25


def _diverging_dataset():
    """n=20, p=8 counts up to e^12 on which the Laplace fit's xi overflows."""
    rng = np.random.default_rng(268)
    n, p = 20, 8
    x = np.column_stack([np.ones(n), rng.standard_normal((n, p - 1)) * rng.uniform(0.5, 3)])
    beta = rng.normal(0.0, 1.5, p)
    y = rng.poisson(np.exp(np.minimum(x @ beta, 12.0))).astype(float)
    return Dataset(x, y)


def test_laplace_diverges_after_eleven_iterations():
    fit = fit_laplace(_diverging_dataset())
    assert fit.iterations == 11 and not fit.converged
    assert np.all(np.isfinite(fit.posterior.mean))


@pytest.mark.parametrize(
    "fit, reason",
    [(fit_laplace, "overflow guard"), (fit_cs, None), (fit_bernoulli, None)],
)
def test_a_divergence_is_reported(fit, reason):
    result = fit(_diverging_dataset())
    if reason is None:
        assert result.converged and result.divergence is None
    else:
        assert not result.converged and reason in result.divergence


@pytest.mark.parametrize("fit", [fit_laplace, fit_cs, fit_bernoulli])
@pytest.mark.parametrize("shape", [(0, 3), (5, 0)])
def test_fits_reject_an_empty_dataset(fit, shape):
    with pytest.raises(ValueError, match="non-empty"):
        fit(Dataset(np.ones(shape), np.zeros(shape[0])))


def test_damped_step_saturates_cleanly_at_huge_arguments():
    # half way from p = 0.5 toward the logistic of -800, 0 and 800
    with np.errstate(all="raise"):
        step = cavi.damped_step(np.full(3, 0.5), np.array([-800.0, 0.0, 800.0]))
    np.testing.assert_array_equal(step, [0.25, 0.5, 0.75])
