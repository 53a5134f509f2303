"""GP surrogate vs dense linear-algebra oracle, expected-improvement
properties, and optimizer behavior on a known objective."""

import logging

import numpy as np
import pytest

from fpnn import hyperopt as H
from fpnn.errors import FpnnError

from oracles import gp_posterior_dense


class TestSearchSpace:
    def test_unit_round_trip_continuous(self):
        dim = H.Dimension("x", -2.0, 6.0)
        for u in (0.0, 0.25, 1.0):
            assert abs(dim.to_unit(dim.from_unit(u)) - u) < 1e-12

    def test_log_dimension(self):
        dim = H.Dimension("lr", 1e-4, 1e-2, log=True)
        assert abs(dim.from_unit(0.5) - 1e-3) / 1e-3 < 1e-12
        assert dim.from_unit(0.0) == pytest.approx(1e-4)

    def test_integer_rounding(self):
        dim = H.Dimension("n", 0, 4, integer=True)
        assert dim.from_unit(0.0) == 0
        assert dim.from_unit(1.0) == 4
        assert isinstance(dim.from_unit(0.6), int)

    def test_invalid_bounds(self):
        with pytest.raises(ValueError):
            H.Dimension("x", 1.0, 1.0)
        with pytest.raises(ValueError):
            H.Dimension("x", -1.0, 1.0, log=True)
        with pytest.raises(ValueError):
            H.SearchSpace(())

    def test_default_space_includes_unit_count(self):
        space = H.default_search_space()
        names = {d.name for d in space.dims}
        assert "noi" in names
        noi = next(d for d in space.dims if d.name == "noi")
        assert (noi.low, noi.high, noi.integer) == (0, 4, True)


class TestGp:
    def test_interpolates_observations_low_noise(self):
        x = np.array([[0.2], [0.8]])
        y = np.array([1.0, -0.5])
        kernel = H.KernelParams(np.array([0.3]), 1.0, 1e-10)
        surr = H.gp_fit(x, y, kernel)
        for xi, yi in zip(x, y):
            mean, var = H.gp_predict(surr, xi[None, :])
            assert abs(mean[0] - yi) < 1e-6
            assert var[0] < 1e-6

    def test_constant_objectives(self):
        x = np.array([[0.1], [0.5], [0.9]])
        surr = H.gp_fit(x, np.full(3, 7.5))
        for q in (0.0, 0.33, 1.0):
            mean, _ = H.gp_predict(surr, np.array([[q]]))
            assert abs(mean[0] - 7.5) < 1e-9

    def test_matches_dense_oracle(self):
        # 5 points from a seeded quadratic, fixed kernel, 20 probes
        rng = np.random.default_rng(17)
        x = rng.uniform(0, 1, (5, 2))
        y = ((x[:, 0] - 0.3) ** 2 + 0.5 * (x[:, 1] - 0.6) ** 2) * 10.0
        kernel = H.KernelParams(np.array([0.4, 0.7]), 2.0, 1e-6)
        surr = H.gp_fit(x, y, kernel)

        # oracle works on the standardized objective, then undoes the
        # standardization; the solve itself is an independent dense inverse
        y_mean, y_std = y.mean(), y.std()
        probes = rng.uniform(0, 1, (20, 2))
        om, ov = gp_posterior_dense(x, (y - y_mean) / y_std, probes,
                                    kernel.lengthscales, kernel.signal_var, kernel.noise_var)
        got_mean, got_var = H.gp_predict(surr, probes)
        np.testing.assert_allclose(got_mean, y_mean + y_std * om, atol=1e-8)
        np.testing.assert_allclose(got_var, y_std**2 * np.maximum(ov, 0.0), atol=1e-8)

    def test_matches_dense_oracle_ten_points(self):
        rng = np.random.default_rng(3)
        x = rng.uniform(0, 1, (10, 3))
        y = np.sin(3 * x[:, 0]) + x[:, 1] ** 2 - x[:, 2]
        kernel = H.KernelParams(np.array([0.5, 0.5, 0.5]), 1.5, 1e-5)
        surr = H.gp_fit(x, y, kernel)
        probes = rng.uniform(0, 1, (20, 3))
        ym, ys = y.mean(), y.std()
        om, ov = gp_posterior_dense(x, (y - ym) / ys, probes,
                                    kernel.lengthscales, kernel.signal_var, kernel.noise_var)
        gm, gv = H.gp_predict(surr, probes)
        np.testing.assert_allclose(gm, ym + ys * om, atol=1e-8)
        np.testing.assert_allclose(gv, ys**2 * np.maximum(ov, 0.0), atol=1e-8)

    def test_variance_grows_away_from_data(self):
        x = np.array([[0.5, 0.5], [0.52, 0.5]])
        kernel = H.KernelParams(np.array([0.1, 0.1]), 1.0, 1e-8)
        surr = H.gp_fit(x, np.array([1.0, 1.1]), kernel)
        _, v_near = H.gp_predict(surr, np.array([[0.5, 0.5]]))
        _, v_far = H.gp_predict(surr, np.array([[0.0, 0.0]]))
        assert v_near[0] < 1e-6
        prior_var = kernel.signal_var * surr.y_std**2
        assert v_far[0] > 0.99 * prior_var

    def test_fitted_kernel_interpolates(self):
        # noise fixed near zero after fitting: |mu(x_i) - y_i| < 1e-5
        rng = np.random.default_rng(8)
        x = rng.uniform(0, 1, (6, 1))
        y = np.cos(4 * x[:, 0])
        surr = H.gp_fit(x, y)
        low_noise = H.KernelParams(surr.kernel.lengthscales, surr.kernel.signal_var, 1e-10)
        surr0 = H.gp_fit(x, y, low_noise)
        for xi, yi in zip(x, y):
            mean, _ = H.gp_predict(surr0, xi[None, :])
            assert abs(mean[0] - yi) < 1e-5

    def test_too_few_or_duplicate_points(self):
        with pytest.raises(ValueError):
            H.gp_fit(np.array([[0.5]]), np.array([1.0]))
        with pytest.raises(FpnnError):
            H.gp_fit(np.array([[0.5], [0.5]]), np.array([1.0, 2.0]))

    def test_dimension_mismatch(self):
        surr = H.gp_fit(np.array([[0.1, 0.2], [0.6, 0.7]]), np.array([1.0, 2.0]),
                        H.KernelParams(np.array([0.5, 0.5]), 1.0, 1e-4))
        with pytest.raises(ValueError):
            H.gp_predict(surr, np.array([[0.5]]))


def ei_at(mean, sigma, best):
    """EI of one posterior point, passed as 1-element arrays."""
    return H.ei_value(np.array([mean]), np.array([sigma]), best)[0]


class TestExpectedImprovement:
    def test_zero_sigma_deterministic_limit(self):
        assert ei_at(1.0, 0.0, 3.0) == 2.0
        assert ei_at(5.0, 0.0, 3.0) == 0.0

    def test_at_best_with_unit_sigma(self):
        # z = 0: EI = phi(0) = 1/sqrt(2*pi)
        want = 1.0 / np.sqrt(2 * np.pi)
        assert abs(ei_at(2.0, 1.0, 2.0) - want) < 1e-12

    def test_nonnegative_everywhere(self):
        rng = np.random.default_rng(0)
        mu = rng.uniform(-50, 50, 1000)
        sigma = rng.uniform(0, 10, 1000)
        best = rng.uniform(-50, 50, 1000)
        for m, s, b in zip(mu, sigma, best):
            assert ei_at(m, s, b) >= 0.0

    def test_monotone_in_sigma_for_promising_mean(self):
        # strictly increasing where float precision can resolve dEI = phi(z)
        sigmas = np.linspace(0.5, 5.0, 60)
        values = [ei_at(1.0, s, 2.0) for s in sigmas]
        assert all(b > a for a, b in zip(values, values[1:]))
        # never decreasing even deep in the saturated small-sigma regime
        wide = [ei_at(1.0, s, 2.0) for s in np.linspace(1e-4, 5.0, 200)]
        assert all(b >= a for a, b in zip(wide, wide[1:]))

    def test_matches_scipy_normal_cdf(self):
        """The normal CDF agrees with ``scipy.special.ndtr`` to 1e-10 relative
        wherever ndtr is nonzero, and so does EI for z >= -20; further down,
        EI's two terms cancel and amplify any CDF rounding about z**2-fold."""
        from scipy.special import ndtr  # the oracle only

        z = np.linspace(-37, 37, 20001)
        np.testing.assert_allclose(H._normal_cdf(z), ndtr(z), rtol=1e-10, atol=0)
        rng = np.random.default_rng(3)
        sigma = 10.0 ** rng.uniform(-3, 2, 5000)
        best = 1.5
        mean = best - rng.uniform(-20, 8, 5000) * sigma
        improve = best - mean
        z = improve / sigma
        want = improve * ndtr(z) + sigma * np.exp(-0.5 * z * z) / np.sqrt(2 * np.pi)
        np.testing.assert_allclose(H.ei_value(mean, sigma, best), want, rtol=1e-10, atol=0)

    def test_tail_form_matches_scipy_erfcx(self):
        """Below ``EI_TAIL_Z``, EI agrees with sigma * pdf(z) * (1 - x * M(x)),
        x = -z, the Mills ratio M(x) = sqrt(pi / 2) * erfcx(x / sqrt(2)) from
        ``scipy.special.erfcx``, to 1e-12 relative down to z = -37, beyond
        which EI underflows. That form cancels about x**2-fold too, which
        erfcx's accuracy keeps below 1e-12 here; the two-term form is off by
        up to 1e-10."""
        from scipy.special import erfcx  # the oracle only

        for sigma, best in ((1.0, 0.0), (2.5, 1.5), (1e-3, -4.0)):
            mean = best - np.linspace(-37.0, H.EI_TAIL_Z, 3201)[:-1] * sigma
            z = (best - mean) / sigma
            sig = np.full_like(mean, sigma)
            assert (z < H.EI_TAIL_Z).all()
            mills = np.sqrt(np.pi / 2) * erfcx(-z / np.sqrt(2))
            want = sigma * np.exp(-0.5 * z * z) / np.sqrt(2 * np.pi) * (1 + z * mills)
            np.testing.assert_allclose(H.ei_value(mean, sig, best), want, rtol=1e-12, atol=0)

    def test_untouched_above_the_tail_cutoff(self):
        """From ``EI_TAIL_Z`` up, EI is the two-term form, bit for bit."""
        rng = np.random.default_rng(8)
        sigma = 10.0 ** rng.uniform(-3, 2, 4000)
        best = 0.25
        mean = best - np.append(rng.uniform(H.EI_TAIL_Z, 8, 3999), H.EI_TAIL_Z) * sigma
        improve = best - mean
        z = improve / sigma
        keep = z >= H.EI_TAIL_Z
        want = improve * H._normal_cdf(z) + sigma * np.exp(-0.5 * z * z) / H._SQRT_2PI
        got = H.ei_value(mean, sigma, best)
        assert keep.sum() > 3900
        assert got[keep].tobytes() == want[keep].tobytes()

    def test_negative_sigma_rejected(self):
        with pytest.raises(ValueError):
            ei_at(0.0, -1.0, 1.0)

    def test_surrogate_ei(self):
        x = np.array([[0.2], [0.9]])
        surr = H.gp_fit(x, np.array([5.0, 1.0]),
                        H.KernelParams(np.array([0.3]), 1.0, 1e-6))
        mean, var = H.gp_predict(surr, np.array([[0.5]]))
        assert H.ei_value(mean, np.sqrt(var), 1.0)[0] >= 0.0


class TestBayesOptimize:
    def space(self):
        return H.SearchSpace((H.Dimension("x", 0.0, 1.0),))

    def test_finds_quadratic_optimum(self):
        best, trials = H.bayes_optimize(lambda p: (p["x"] - 0.3) ** 2,
                                        self.space(), budget=20, seed=1)
        assert abs(best.point["x"] - 0.3) < 0.05
        assert len(trials) == 20

    def test_budget_four_is_initial_design_only(self):
        best, trials = H.bayes_optimize(lambda p: (p["x"] - 0.3) ** 2,
                                        self.space(), budget=4, seed=0)
        assert len(trials) == 4
        assert best.objective == min(t.objective for t in trials)

    def test_deterministic(self):
        run = lambda: H.bayes_optimize(lambda p: (p["x"] - 0.6) ** 2,
                                       self.space(), budget=12, seed=5)
        _, a = run()
        _, b = run()
        assert [(t.point["x"], t.objective) for t in a] == [
            (t.point["x"], t.objective) for t in b
        ]

    def test_proposals_stay_in_bounds(self):
        space = H.SearchSpace((H.Dimension("x", -2.0, 3.0), H.Dimension("k", 1, 5, integer=True)))
        _, trials = H.bayes_optimize(lambda p: p["x"] ** 2 + p["k"],
                                     space, budget=15, seed=2)
        for t in trials:
            assert -2.0 <= t.point["x"] <= 3.0
            assert 1 <= t.point["k"] <= 5
            assert isinstance(t.point["k"], int)

    def test_failed_trials_recorded_and_excluded(self, caplog):
        calls = {"n": 0}

        def flaky(point):
            calls["n"] += 1
            if calls["n"] % 3 == 0:
                raise RuntimeError("boom")
            return (point["x"] - 0.5) ** 2

        with caplog.at_level(logging.WARNING, logger=H.__name__):
            best, trials = H.bayes_optimize(flaky, self.space(), budget=12, seed=3)
        failed = [t for t in trials if t.status == "failed"]
        assert failed and all(np.isnan(t.objective) for t in failed)
        assert {t.message for t in failed} == {"RuntimeError: boom"}
        assert best.status == "ok"
        # each failure is also logged, with its traceback
        records = [r for r in caplog.records if r.name == H.__name__]
        assert len(records) == len(failed)
        assert all(r.levelno == logging.WARNING and r.exc_info[0] is RuntimeError
                   for r in records)

    def test_all_failures_raise(self):
        def bad(point):
            raise RuntimeError("nope")

        with pytest.raises(FpnnError):
            H.bayes_optimize(bad, self.space(), budget=4, seed=0)

    def test_budget_too_small(self):
        with pytest.raises(ValueError):
            H.bayes_optimize(lambda p: 0.0, self.space(), budget=3, seed=0)

    def test_quadratic_success_rate_across_seeds(self):
        hits = 0
        for seed in range(10):
            best, _ = H.bayes_optimize(lambda p: (p["x"] - 0.3) ** 2,
                                       self.space(), budget=20, seed=seed)
            hits += abs(best.point["x"] - 0.3) < 0.05
        assert hits >= 9
