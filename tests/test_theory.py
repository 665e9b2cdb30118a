"""Tests for the bound evaluators, influence functions and calibration."""

import sys
from math import comb

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from rsdnet.contamination import noisy_posterior
from rsdnet.data_io import posterior_example1
from rsdnet.divergence import (PROB_CLIP, InvalidTuningError, _risk_terms,
                               conditional_sd_risk, make_tuning, sd_loss)
from rsdnet.network import example_model
from rsdnet.theory import (
    BoundGrid,
    CalibrationError,
    RELU_KINK_TOL,
    _min_plus,
    _nudge_off_kinks,
    _runner_up,
    big_psi,
    bound_grid,
    calibration_check,
    default_feature_sample,
    excess_risk_bound,
    influence_function,
    psi,
    simplex_grid,
)

from reference import (loss_bounds, reference_calibration_check,
                       runner_up_quadratic)
from test_divergence import admissible_tunings


class TestExcessRiskBound:
    def test_anchor_beta_one(self):
        t = make_tuning(1.0, 0.0)
        assert excess_risk_bound(t, 0.2, 10) == pytest.approx(
            0.2571428571428572, abs=1e-12)

    def test_anchor_beta_zero(self):
        t = make_tuning(0.0, -0.5)
        assert excess_risk_bound(t, 0.2, 10) == pytest.approx(
            0.24711744687638626, abs=1e-12)

    def test_zero_at_eta_zero(self):
        for beta, lam in [(1.0, 0.0), (0.5, -0.5), (0.1, -0.8)]:
            assert excess_risk_bound(make_tuning(beta, lam), 0.0, 10) == 0.0

    def test_eta_domain(self):
        t = make_tuning(0.5, 0.0)
        with pytest.raises(ValueError):
            excess_risk_bound(t, 0.9, 10)  # limit is (J-1)/J = 0.9
        with pytest.raises(ValueError):
            excess_risk_bound(t, -0.1, 10)
        assert np.isfinite(excess_risk_bound(t, 0.89, 10))

    def test_bounds_the_clean_risk_gap_of_the_noisy_minimiser(self):
        # J = 3: the grid minimiser of the noisy expected one-hot loss is
        # within the bound of the clean grid minimum, in clean risk
        rng = np.random.default_rng(0)
        grid = simplex_grid(3, 0.005)
        labels = [np.full(len(grid), j) for j in range(3)]
        for _ in range(200):
            p_star = rng.dirichlet(np.ones(3))
            eta = rng.uniform(0.0, 2.0 / 3.0)
            # A = u (1 + beta), B = (1 - u)(1 + beta): an admissible tuning
            beta, u = rng.uniform(0.0, 1.0), rng.uniform(0.02, 0.98)
            t = make_tuning(beta, (u * (1.0 + beta) - 1.0) / (1.0 - beta))
            losses = np.column_stack([sd_loss(y, grid, t) for y in labels])
            clean = losses @ p_star
            trained = np.argmin(losses @ noisy_posterior(p_star, eta))
            assert clean[trained] - clean.min() <= excess_risk_bound(t, eta, 3)

    @given(J=st.integers(2, 10), beta=st.floats(0.0, 0.99),
           u=st.floats(0.02, 0.98), share=st.floats(0.0, 0.99))
    def test_is_ghosh_et_als_form(self, J, beta, u, share):
        # eta (C_U - C_L) / (J - 1 - J eta), with (C_L, C_U) the bounds on
        # sum_j sd_loss(e_j, p) (Ghosh, Kumar & Sastry 2017); A = u (1 + beta)
        # and B = (1 - u)(1 + beta) are both at least 0.02 (1 + beta)
        t = make_tuning(beta, (u * (1.0 + beta) - 1.0) / (1.0 - beta))
        eta = share * (J - 1) / J
        lower, upper = loss_bounds(t, J)
        assert excess_risk_bound(t, eta, J) == pytest.approx(
            eta * (upper - lower) / (J - 1 - J * eta), rel=1e-12, abs=0)

    def test_monotone_in_beta_for_negative_lambda(self):
        # the bound decreases in beta at lambda = -1 and for small negative
        # lambda; in between (e.g. lambda = -0.5) it has an interior bump,
        # since the beta = 1 value 9*eta/(J-1-J*eta) is lambda-free and can
        # exceed the beta = 0 value
        betas = np.linspace(0.0, 1.0, 50)
        for lam in (-1.0, -0.25, 0.0):
            vals = []
            for beta in betas:
                try:
                    vals.append(excess_risk_bound(make_tuning(beta, lam), 0.4, 10))
                except Exception:
                    vals.append(np.nan)
            vals = np.array(vals)
            ok = np.isfinite(vals)
            assert np.all(np.diff(vals[ok]) <= 1e-12)


class TestBoundGrid:
    def test_shapes_and_mask(self):
        grid = bound_grid(0.2, 10, resolution=11)
        assert isinstance(grid, BoundGrid)
        assert grid.values.shape == (11, 11)
        # inadmissible cells carry NaN, admissible cells are finite
        assert np.all(np.isnan(grid.values[~grid.admissible]))
        assert np.all(np.isfinite(grid.values[grid.admissible]))

    def test_known_inadmissible_corner(self):
        grid = bound_grid(0.2, 10, resolution=11)
        # beta = 0, lambda = -1 makes A = 0
        assert grid.betas[0] == 0.0 and grid.lambdas[0] == -1.0
        assert not grid.admissible[0, 0]
        # beta = 1 is admissible for every lambda
        assert grid.admissible[-1].all()

    @staticmethod
    def assert_matches_per_cell(grid, eta, J):
        for i, beta in enumerate(grid.betas):
            for j, lam in enumerate(grid.lambdas):
                try:
                    t = make_tuning(beta, lam)
                except InvalidTuningError:
                    assert not grid.admissible[i, j]
                    assert np.isnan(grid.values[i, j])
                    continue
                assert grid.admissible[i, j]
                assert grid.values[i, j] == excess_risk_bound(t, eta, J)

    @pytest.mark.parametrize("eta, J, beta_range, lambda_range, resolution", [
        (0.4, 10, (0.0, 1.0), (-1.0, 1.0), 50),
        (0.3, 4, (-0.5, 1.5), (-3.0, 2.0), 37),
        (0.0, 2, (1.0, 0.0), (5.0, -5.0), 9),
        (0.1, 3, (-2.0, -1.0), (-1.0, 1.0), 5),
    ])
    def test_matches_per_cell_reference(self, eta, J, beta_range, lambda_range,
                                        resolution):
        grid = bound_grid(eta, J, beta_range, lambda_range, resolution)
        self.assert_matches_per_cell(grid, eta, J)

    @given(J=st.integers(2, 12), eta_share=st.floats(0.0, 0.999),
           beta_range=st.tuples(st.floats(-1.0, 2.0), st.floats(-1.0, 2.0)),
           lambda_range=st.tuples(st.floats(-4.0, 4.0), st.floats(-4.0, 4.0)),
           resolution=st.integers(1, 8))
    def test_matches_per_cell_reference_property(self, J, eta_share, beta_range,
                                                 lambda_range, resolution):
        eta = eta_share * (J - 1) / J
        grid = bound_grid(eta, J, beta_range, lambda_range, resolution)
        self.assert_matches_per_cell(grid, eta, J)

    @pytest.mark.parametrize("eta, J", [(0.95, 10), (-0.1, 10), (0.2, 1), (0.2, 0)])
    def test_eta_and_classes_checked_before_the_grid(self, eta, J):
        # beta in [-2, -1] has no admissible cell, so only an up-front check
        # can reject the call
        with pytest.raises(ValueError):
            bound_grid(eta, J, beta_range=(-2.0, -1.0), resolution=5)

    @pytest.mark.parametrize("beta_range, lambda_range, resolution", [
        ((0.0, 1.0), (-1.0, 1.0), 0),
        ((0.0, 1.0), (-1.0, 1.0), -3),
        ((np.nan, 1.0), (-1.0, 1.0), 5),
        ((0.0, 1.0), (-1.0, np.inf), 5),
        ((0.0, -np.inf), (-1.0, 1.0), 5),
    ], ids=["no_points", "negative", "nan_end", "infinite_end", "minus_inf_end"])
    def test_empty_or_non_finite_grid_rejected(self, beta_range, lambda_range,
                                               resolution):
        with pytest.raises(ValueError, match="resolution"):
            bound_grid(0.2, 10, beta_range, lambda_range, resolution)


def psi_loop_reference(model, theta, t, sample, p_star_fn):
    """big_psi as a per-sample loop over the scalar model calls, with the
    reference evaluated on one point at a time."""
    total = np.zeros((model.n_params, model.n_params))
    for x in sample:
        p = np.clip(model.probs(theta, x), PROB_CLIP, 1.0 - PROB_CLIP)
        p_star = p_star_fn(np.array([x]))[0]
        u = p ** t.beta - p_star ** t.a * p ** (t.b - 1.0)
        du = (t.beta * p ** (t.beta - 1.0)
              - p_star ** t.a * (t.b - 1.0) * p ** (t.b - 2.0))
        g = model.grad_prob1(theta, x)
        total += ((du[0] + du[1]) * np.outer(g, g)
                  + (u[0] - u[1]) * model.hess_prob1(theta, x))
    return total / len(sample)


def nudge_loop_reference(theta, sample):
    sample = sample.copy()
    for i in range(len(sample)):
        for _ in range(5):
            a1 = theta[0] + theta[1] * sample[i]
            a2 = theta[2] + theta[3] * sample[i]
            if min(abs(a1), abs(a2)) >= RELU_KINK_TOL:
                break
            sample[i] += RELU_KINK_TOL
    return sample


def p_star_example1(xs):
    """The (n, 2) example-1 posteriors at the (n,) points xs."""
    p1 = posterior_example1(xs)
    return np.column_stack([p1, 1.0 - p1])


def mean_psi(model, theta, t, sample):
    return psi(model, theta, t, sample, p_star_example1).mean(axis=0)


class TestInfluenceFunction:
    @pytest.mark.parametrize("name", ["M1", "M2", "M3"])
    def test_big_psi_matches_fd_of_psi(self, name):
        # big_psi is the Jacobian of the sample mean of psi: central
        # differences agree to rounding, with the example-1 reference given
        # and by default
        model = example_model(name)
        t = make_tuning(0.5, -0.5)
        for theta, sample, p_star_fn in (
            (np.ones(model.n_params), default_feature_sample(40, seed=1),
             p_star_example1),
            (np.full(model.n_params, 0.7), default_feature_sample(), None),
        ):
            an = big_psi(model, theta, t, sample, p_star_fn)
            np.testing.assert_allclose(an, an.T, atol=1e-12)
            h = 1e-6
            fd = np.zeros_like(an)
            for k in range(model.n_params):
                step = np.zeros(model.n_params)
                step[k] = h
                fd[:, k] = (mean_psi(model, theta + step, t, sample)
                            - mean_psi(model, theta - step, t, sample)) / (2 * h)
            np.testing.assert_allclose(fd, an, rtol=0.0, atol=1e-9)

    @pytest.mark.parametrize("beta,lam", [(0.5, -0.5), (0.1, -0.8)])
    def test_m1_matches_the_contaminated_functional(self, beta, lam):
        # the functional solves mean psi = 0; moving a mass eps of the
        # feature distribution to x_t moves the root by about eps * IF(x_t)
        model = example_model("M1")
        t = make_tuning(beta, lam)
        sample = default_feature_sample()
        x_t, eps = 2.0, 1e-5

        def root(eps):
            theta = np.ones(2)
            for _ in range(20):
                value = ((1.0 - eps) * mean_psi(model, theta, t, sample)
                         + eps * psi(model, theta, t, x_t, p_star_example1)[0])
                jac = ((1.0 - eps) * big_psi(model, theta, t, sample, None)
                       + eps * big_psi(model, theta, t, [x_t], None))
                theta = theta - np.linalg.solve(jac, value)
            assert np.max(np.abs(value)) < 1e-14
            return theta

        theta0 = root(0.0)
        curve = influence_function(model, theta0, t, np.array([x_t]), sample)
        np.testing.assert_allclose((root(eps) - theta0) / eps, curve[0],
                                   rtol=1e-4)

    def test_zero_when_correctly_specified(self):
        # if the reference posterior is the model itself, psi vanishes
        model = example_model("M1")
        theta = np.array([0.3, -0.7])
        t = make_tuning(0.1, -0.8)
        curves = influence_function(model, theta, t, np.linspace(-3, 3, 7),
                                    default_feature_sample(),
                                    lambda xs: model.probs(theta, xs))
        np.testing.assert_allclose(curves, 0.0, atol=1e-10)

    @pytest.mark.parametrize("name", ["M1", "M3"])
    @pytest.mark.parametrize("beta,lam", [(0.5, -0.5), (0.1, -0.8)])
    def test_finite_curves(self, name, beta, lam):
        model = example_model(name)
        curves = influence_function(model, np.ones(model.n_params),
                                    make_tuning(beta, lam),
                                    np.linspace(-10, 10, 41),
                                    default_feature_sample())
        assert curves.shape == (41, model.n_params)
        assert np.all(np.isfinite(curves))

    def test_bad_theta_shape(self):
        with pytest.raises(ValueError):
            influence_function(example_model("M1"), np.ones(3),
                               make_tuning(0.5, 0.0), np.zeros(1),
                               default_feature_sample())

    @pytest.mark.parametrize("name", ["M1", "M2", "M3"])
    def test_reference_called_once_per_array(self, name):
        # one call on the feature sample (inside big_psi), one on the grid
        model = example_model(name)
        sample = default_feature_sample(50, seed=3)
        x_grid = np.linspace(-2.0, 2.0, 9)
        calls = []

        def p_star_fn(xs):
            calls.append(np.array(xs))
            return p_star_example1(xs)

        curves = influence_function(model, np.ones(model.n_params),
                                    make_tuning(0.5, -0.5), x_grid, sample,
                                    p_star_fn)
        assert [c.shape for c in calls] == [sample.shape, x_grid.shape]
        np.testing.assert_array_equal(calls[1], x_grid)
        np.testing.assert_array_equal(
            curves, influence_function(model, np.ones(model.n_params),
                                       make_tuning(0.5, -0.5), x_grid, sample))

    @pytest.mark.parametrize("name", ["M1", "M2", "M3"])
    def test_big_psi_matches_per_sample_loop(self, name):
        model = example_model(name)
        t = make_tuning(0.3, -0.4)
        theta = np.linspace(-1.0, 1.5, model.n_params)
        sample = default_feature_sample(200, seed=4)
        if name == "M2":
            # points on both ReLU kinks, nudged before evaluation
            sample = np.concatenate([sample, [-theta[0] / theta[1],
                                              -theta[2] / theta[3]]])
            ref_sample = nudge_loop_reference(theta, sample)
        else:
            ref_sample = sample
        for p_star_fn in (p_star_example1, None):
            ref = psi_loop_reference(model, theta, t, ref_sample,
                                     p_star_fn or p_star_example1)
            np.testing.assert_allclose(
                big_psi(model, theta, t, sample, p_star_fn), ref, rtol=1e-12,
                atol=1e-12 * np.max(np.abs(ref)))

    @pytest.mark.parametrize("name", ["M1", "M2", "M3"])
    def test_curves_match_per_point_loop(self, name):
        model = example_model(name)
        theta = np.linspace(1.2, -0.8, model.n_params)
        t = make_tuning(0.5, -0.5)
        sample = default_feature_sample(60, seed=2)
        x_grid = np.linspace(-4.0, 4.0, 17)
        pinv = np.linalg.pinv(big_psi(model, theta, t, sample, p_star_example1),
                              rcond=1e-10)
        ref = np.array([-pinv @ psi(model, theta, t, x, p_star_example1)[0]
                        for x in x_grid])
        for p_star_fn in (p_star_example1, None):
            curves = influence_function(model, theta, t, x_grid, sample,
                                        p_star_fn)
            np.testing.assert_allclose(curves, ref, rtol=1e-12,
                                       atol=1e-12 * np.max(np.abs(ref)))

    def test_nudge_matches_per_element_loop(self):
        model = example_model("M2")
        # kinks at x = -0.5 (a nudge moves a1 by only 1e-7, so the five
        # passes run out) and x = 0.25 (one nudge clears it)
        theta = np.array([0.05, 0.1, -1.0, 4.0, 0.0, 1.0, 1.0])
        sample = np.array([-0.5, 0.25, -0.5 + 3e-6, 0.0, 1.0, np.nan])
        nudged = _nudge_off_kinks(model, theta, sample)
        np.testing.assert_array_equal(nudged, nudge_loop_reference(theta, sample))
        np.testing.assert_allclose(nudged[:2] - sample[:2],
                                   [5 * RELU_KINK_TOL, RELU_KINK_TOL], rtol=1e-6)
        assert nudged[3] == sample[3]
        assert _nudge_off_kinks(example_model("M3"), theta, sample) is sample

    def test_empty_sample_rejected(self):
        model = example_model("M1")
        with pytest.raises(ValueError):
            big_psi(model, np.ones(2), make_tuning(0.5, 0.0), np.array([]),
                    p_star_example1)


class TestSimplexGrid:
    def test_binary_grid(self):
        grid = simplex_grid(2, 0.25)
        assert grid.shape == (5, 2)
        np.testing.assert_allclose(grid.sum(axis=1), 1.0)

    def test_ternary_grid_count(self):
        grid = simplex_grid(3, 0.5)
        # compositions of 2 into 3 parts: C(4,2) = 6
        assert grid.shape == (6, 3)
        np.testing.assert_allclose(grid.sum(axis=1), 1.0)

    @staticmethod
    def recursive_reference(J, step):
        m = int(round(1.0 / step))

        def compositions(total, parts):
            if parts == 1:
                yield (total,)
                return
            for head in range(total + 1):
                for tail in compositions(total - head, parts - 1):
                    yield (head, *tail)

        return np.array(list(compositions(m, J)), dtype=np.float64) / m

    @pytest.mark.parametrize("J", [1, 2, 3, 4])
    @pytest.mark.parametrize("step", [1.0, 0.5, 0.25, 0.1, 0.05, 1 / 3])
    def test_matches_recursive_order(self, J, step):
        np.testing.assert_array_equal(simplex_grid(J, step),
                                      self.recursive_reference(J, step))

    def test_fine_ternary_matches_recursive_order(self):
        np.testing.assert_array_equal(simplex_grid(3, 0.01),
                                      self.recursive_reference(3, 0.01))

    def test_no_classes_rejected(self):
        with pytest.raises(ValueError):
            simplex_grid(0, 0.1)

    @pytest.mark.parametrize("step", [0, 0.0, -0.1, 2.0, 5.0, np.inf, -np.inf,
                                      np.nan, 5e-324, np.float64(5e-324)])
    def test_bad_step_rejected(self, step):
        # not positive, not finite, round(1/step) < 1, or 1/step overflows
        with pytest.raises(ValueError, match="step must be positive"):
            simplex_grid(3, step)

    # round(1/step) >= 1 holds for every step below 2 (round(0.5) is 0)
    @pytest.mark.parametrize("step, m", [(1.9, 1), (1.5, 1), (0.67, 1), (0.6, 2)])
    def test_coarsest_steps_accepted(self, step, m):
        np.testing.assert_array_equal(simplex_grid(2, step),
                                      self.recursive_reference(2, 1.0 / m))


class TestCalibration:
    def test_binary_argmin_matches_reference(self):
        t = make_tuning(0.5, -0.5)
        p_star = np.array([0.6, 0.4])
        res = calibration_check(p_star, t, step=0.01)
        np.testing.assert_allclose(res.argmin_point, p_star, atol=1e-12)
        assert res.argmax_class == 0
        assert res.gap > 0

    def test_ternary_argmin_matches_reference(self):
        t = make_tuning(0.1, -0.8)
        p_star = np.array([0.5, 0.3, 0.2])
        res = calibration_check(p_star, t, step=0.01)
        np.testing.assert_allclose(res.argmin_point, p_star, atol=1e-12)
        assert res.argmax_class == 0

    def test_off_grid_reference_is_close(self):
        t = make_tuning(0.3, 0.2)
        p_star = np.array([0.333, 0.667])
        res = calibration_check(p_star, t, step=0.01)
        assert np.max(np.abs(res.argmin_point - p_star)) <= 0.01

    def test_grid_minimum_agrees_with_scalar_risk(self):
        t = make_tuning(0.7, -0.3)
        p_star = np.array([0.25, 0.75])
        res = calibration_check(p_star, t, step=0.05)
        grid = simplex_grid(2, 0.05)
        risks = [conditional_sd_risk(p_star, row[None], t)[0] for row in grid]
        np.testing.assert_allclose(
            res.argmin_point, grid[int(np.argmin(risks))], atol=1e-12)

    @pytest.mark.parametrize("beta, lam", [(0.5, -0.5), (0.1, -0.8), (0.05, -1.0)])
    def test_ten_classes_at_step_001(self, beta, lam):
        # the paper's class count, on a grid of C(109, 9) ~ 4e12 points;
        # p_star has a clear top class, as in the theory-figures benchmark
        rng = np.random.default_rng(10)
        for _ in range(4):
            p_star = rng.dirichlet(np.ones(10))
            while np.diff(np.sort(p_star)[-2:])[0] < 0.1:
                p_star = rng.dirichlet(np.ones(10))
            res = calibration_check(p_star, make_tuning(beta, lam), step=0.01)
            assert res.argmax_class == p_star.argmax()
            assert np.max(np.abs(res.argmin_point - p_star)) <= 0.01
            assert res.argmin_point.sum() == pytest.approx(1.0)
            assert res.gap > 0

    @pytest.mark.parametrize("beta, lam", [(0.5, -0.5), (0.1, -0.8)])
    def test_more_classes_than_the_recursion_limit(self, beta, lam):
        # the search keeps its own stack: J is not bounded by Python's
        # recursion limit
        J = 1200
        assert sys.getrecursionlimit() < J
        p_star = np.full(J, 1.0 / J)
        p_star[0] += 0.5
        res = calibration_check(p_star / p_star.sum(), make_tuning(beta, lam),
                                step=0.5)
        np.testing.assert_array_equal(res.argmin_point, np.eye(J)[0])
        assert res.argmax_class == 0

    @pytest.mark.parametrize("p_star", [
        [1.2, -0.2],            # negative entry
        [np.nan, 0.5, 0.5],     # not finite
        [np.inf, 0.0],
        [0.3, 0.3],             # sums to 0.6
        [0.5, 0.5 + 2e-9],      # sums to 1 + 2e-9
        [[0.5, 0.5]],           # not 1-D
        0.5,
        [],
    ])
    def test_non_distribution_rejected(self, p_star):
        # a ValueError, not a warning, a NaN gap or a CalibrationError
        with pytest.raises(ValueError, match="p_star must be"):
            calibration_check(p_star, make_tuning(0.5, -0.5))

    def test_distribution_within_tolerance_accepted(self):
        res = calibration_check([0.7, 0.3 + 5e-10], make_tuning(0.5, -0.5),
                                step=0.1)
        np.testing.assert_array_equal(res.argmin_point, [0.7, 0.3])

    @pytest.mark.parametrize("step", [0, -0.1, 5.0, np.inf, np.nan])
    def test_bad_step_rejected(self, step):
        # step 5.0 gave a [nan, nan, nan] argmin_point, with a warning
        with pytest.raises(ValueError, match="step must be positive"):
            calibration_check([0.5, 0.3, 0.2], make_tuning(0.5, -0.5), step=step)

    @pytest.mark.parametrize("step, first", [(0.1, [0.2, 0.3, 0.5]),
                                             (0.02, [0.24, 0.26, 0.5])])
    @pytest.mark.parametrize("beta, lam", [(0.5, -0.5), (0.1, -0.8)])
    def test_ties_go_to_the_first_minimiser_in_grid_order(self, step, first,
                                                          beta, lam):
        # p_star is off the grid and symmetric in its first two classes,
        # so the points first and first[[1, 0, 2]] have equal risks
        res = calibration_check([0.25, 0.25, 0.5], make_tuning(beta, lam), step)
        np.testing.assert_array_equal(res.argmin_point, first)
        assert res.argmax_class == 2
        assert res.gap == 0.0

    @pytest.mark.parametrize("beta, lam", [(0.5, -0.5), (0.1, -0.8)])
    def test_any_of_p_stars_tied_top_classes_is_accepted(self, beta, lam):
        # the first minimiser in grid order gives the second tied class
        res = calibration_check([0.45, 0.45, 0.1], make_tuning(beta, lam), step=0.1)
        np.testing.assert_array_equal(res.argmin_point, [0.4, 0.5, 0.1])
        assert res.argmax_class == 1
        assert res.gap == 0.0

    @pytest.mark.parametrize("beta, lam", [(0.5, -0.5), (0.1, -0.8)])
    def test_minimiser_outside_p_stars_top_classes_raises(self, beta, lam):
        # at step 0.5 the minimiser is (0.5, 0.5), whose argmax is class 0
        with pytest.raises(CalibrationError, match="predicts class 0"):
            calibration_check([0.4, 0.6], make_tuning(beta, lam), step=0.5)


def outcome(check, p_star, t, step):
    """What a calibration check returns or raises, in exactly comparable
    form: the argmin point's bytes, the class and the gap's hex, or the
    CalibrationError's message."""
    try:
        res = check(p_star, t, step)
    except CalibrationError as exc:
        return "CalibrationError", str(exc)
    return (res.argmin_point.shape, res.argmin_point.tobytes(),
            res.argmax_class, float.hex(res.gap))


@st.composite
def calibration_cases(draw):
    """(p_star, step): a distribution over J <= 10 classes, as drawn, moved
    onto the grid, or with its first two classes equal (ties), and a step
    whose grid has at most 2e5 points: every step for J <= 4, down to
    step 0.1 (92,378 points) for J = 10."""
    J = draw(st.integers(1, 10))
    step = draw(st.sampled_from([s for s in (0.01, 0.02, 0.05, 0.1, 1 / 3)
                                 if comb(round(1 / s) + J - 1, J - 1) <= 2 * 10**5]))
    weights = np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=J, max_size=J)))
    assume(weights.sum() > 0.0)
    kind = draw(st.sampled_from(["drawn", "on grid", "tied"]))
    if kind == "tied" and J >= 2:
        weights[1] = weights[0]
    p_star = weights / weights.sum()
    if kind == "on grid":
        m = round(1.0 / step)
        k = np.floor(p_star * m)
        k[-1] = m - k[:-1].sum()
        p_star = k / m
    return p_star, step


class TestCalibrationMatchesReference:
    @settings(max_examples=300)
    @example(case=(np.array([0.25, 0.25, 0.5]), 0.1), t=make_tuning(0.5, -0.5))
    @example(case=(np.array([0.25, 0.25, 0.5]), 0.02), t=make_tuning(0.5, -0.5))
    @example(case=(np.array([0.45, 0.45, 0.1]), 0.1), t=make_tuning(0.1, -0.8))
    @example(case=(np.array([0.25, 0.25, 0.25, 0.25]), 0.1), t=make_tuning(0.3, 0.2))
    @example(case=(np.array([1.0]), 0.01), t=make_tuning(0.5, -0.5))
    @given(case=calibration_cases(), t=admissible_tunings())
    def test_same_result_as_the_float_grid(self, case, t):
        p_star, step = case
        assert (outcome(calibration_check, p_star, t, step)
                == outcome(reference_calibration_check, p_star, t, step))


class TestRunnerUp:
    @settings(max_examples=300)
    @given(J=st.integers(1, 11), m=st.integers(1, 50),
           weights=st.lists(st.floats(0.0, 1.0), min_size=11, max_size=11),
           cuts=st.lists(st.integers(0, 50), min_size=10, max_size=10),
           t=admissible_tunings())
    def test_same_bits_as_the_quadratic_form(self, J, m, weights, cuts, t):
        # any grid point, not only the minimiser, over calibration_check's
        # table and forward min-plus pass
        weights = np.array(weights[:J])
        assume(weights.sum() > 0.0)
        p_star = weights / weights.sum()
        table = _risk_terms(np.arange(m + 1) / m, p_star[:, None], t)
        prefix = [table[0]]
        for row in table[1:-1]:
            prefix.append(_min_plus(prefix[-1], row))
        point = np.diff([0, *sorted(min(c, m) for c in cuts[:J - 1]), m]).tolist()
        got, want = _runner_up(table, prefix, point), runner_up_quadratic(
            table, prefix, point)
        assert float.hex(float(got)) == float.hex(float(want))


def expected_one_hot_risk(p_star, grid, t):
    """sum_j p*_j sd_loss(j, p) at every row p of grid: the population
    objective that training on labels drawn from p_star minimises."""
    return sum(p_star[j] * sd_loss(np.full(len(grid), j), grid, t)
               for j in range(len(p_star)))


class TestTrainingObjective:
    """The expected one-hot sd_loss, unlike conditional_sd_risk, is not
    minimised at p_star when A != 1, but its minimiser keeps the argmax."""

    @example(p_star=[0.5, 0.3, 0.2], beta=0.05, share=0.0)
    @given(p_star=st.lists(st.floats(0.01, 1.0), min_size=3, max_size=3),
           beta=st.floats(0.0, 0.99), share=st.floats(0.0, 1.0))
    def test_grid_minimiser_keeps_the_argmax(self, p_star, beta, share):
        p_star = np.array(p_star) / np.sum(p_star)
        top2 = np.sort(p_star)[-2:]
        assume(top2[1] - top2[0] >= 0.1)  # a clear top class
        # A = u (1 + beta) and B = (1 - u)(1 + beta), u in [0.02, 0.98]:
        # every admissible tuning with A and B away from 0
        u = 0.02 + 0.96 * share
        t = make_tuning(beta, (u * (1.0 + beta) - 1.0) / (1.0 - beta))
        grid = simplex_grid(3, 0.01)
        best = grid[np.argmin(expected_one_hot_risk(p_star, grid, t))]
        assert best.argmax() == p_star.argmax()

    def test_minimiser_is_not_p_star_when_a_differs_from_one(self):
        t = make_tuning(0.05, -1.0)  # A = 0.05
        p_star = np.array([0.5, 0.3, 0.2])
        grid = simplex_grid(3, 0.01)
        best = grid[np.argmin(expected_one_hot_risk(p_star, grid, t))]
        np.testing.assert_allclose(best, [0.99, 0.01, 0.0], atol=1e-12)
        assert calibration_check(p_star, t).argmin_point == pytest.approx(p_star)
