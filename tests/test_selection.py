"""Selection paths: scoring, budgets, sensitivity proxy, serialization."""

import dataclasses
import hashlib
import itertools
import json
import math
import re
import sys
import tracemalloc

import numpy as np
import pytest

from dpms import (
    ConfigError,
    DataError,
    Dataset,
    ModelMask,
    PrivacyBudget,
    RngStream,
    ScoredCandidate,
    SelectionConfig,
    SolverError,
    all_subsets,
    exponential_mechanism,
    fit_masks,
    from_explicit,
    noisy_argmin,
    pcls_select,
    pcpl_select,
    sample_laplace,
    sufficient_stats,
)
from dpms.mechanisms import _uniform_rows
from dpms.selection import (
    _calibration,
    _profile_sensitivity_value,
    _score_matrix,
    _select_rows,
)


def _slack(n, d, r, radius):
    """Public certificate slack, recomputed: the level 1e-10 * max(1, n r^2)
    plus twice the round-off allowance, 64 eps per coordinate on the loss
    scale n (r + R)^2."""
    return 1e-10 * max(1.0, n * r * r) + 2 * 64 * np.finfo(float).eps * d * n * (r + radius) ** 2


def _law(algorithm, cfg, ds, d, count=1):
    """The calibration record of ``count`` selection-core rows that each
    run ``cfg`` on ``ds``, ``d`` covariates wide."""
    return _calibration(
        algorithm, cfg.mechanism, [cfg.budget.epsilon] * count, [cfg.budget.delta] * count,
        ds.response_bound, ds.n, d, cfg.radius,
    )


def _rows(algorithm, cfg, ds, fits, models, seed, streams):
    """The selection core on one row per stream, each running ``cfg`` on ``ds``."""
    law = _law(algorithm, cfg, ds, models.d, len(streams))
    return _select_rows(law, fits, [cfg.penalty] * len(streams), models, seed, streams)


def _noisy(picks, clean):
    """Each row's keys at the clean-score rows ``clean`` (one row, or one
    per row of ``picks``), as a debug report evaluates them: noisy argmin's
    noisy scores.  NaN on fallback rows, which no group keys."""
    clean = np.broadcast_to(clean, (len(picks.winners), clean.shape[-1]))
    noisy = np.full(clean.shape, np.nan)
    for rows, keys in picks.keys:
        noisy[rows] = keys(clean[rows], clean[rows])
    return noisy


def _proxy(min_loss, epsilon, delta, unit):
    """pcpl's proxy at n=100, d=4, r=2 and R=1, from one standard Laplace
    ``unit``; stage 1 spends ``epsilon``."""
    law = _calibration("pcpl", "noisy_argmin", [epsilon], [delta], 2.0, 100, 4, 1.0)
    return _profile_sensitivity_value(min_loss, law, unit)[0]


def _dataset(n=120, d=4, seed=0, beta=(0.9, -0.7, 0.0, 0.0), noise=0.4):
    rng = np.random.default_rng(seed)
    x = rng.uniform(-1, 1, (n, d))
    y = x @ np.asarray(beta) + rng.normal(0, noise, n)
    return Dataset.from_arrays(x, y), x, y


def _ols_rss(x, y, mask):
    cols = mask.column_positions()
    if cols.size == 0:
        return float(y @ y)
    sub = x[:, cols]
    beta = np.linalg.lstsq(sub, y, rcond=None)[0]
    return float(np.sum((y - sub @ beta) ** 2))


class TestProfileSensitivityValue:
    def test_worked_example(self):
        # Independent recomputation: n=100, d=4, min loss 100, r=2, R=1,
        # stage epsilon 1, delta 0.05, zero noise draw.  The certificate
        # slack t is 1e-10 * n r^2 = 4e-8 plus 2 * 64 eps * d * n * 9, so
        # the width is w = 9 + t and the minimum 100 - t; the margin
        # log(1/(2 delta)) = log(10), so the value must be
        # 100 w / (100 - t - w - w ln 10).
        got = _proxy(100.0, 1.0, 0.05, 0.0)
        t = 4e-8 + 128 * np.finfo(float).eps * 4 * 100 * 9
        w = 9.0 + t
        oracle = 100.0 * w / (100.0 - t - w - w * math.log(10.0))
        assert got == pytest.approx(oracle, rel=1e-12)
        assert got == pytest.approx(12.8065, abs=5e-4)

    def test_sentinel_on_small_loss(self):
        # Fit too good: denominator dies, sentinel comes back.
        assert math.isinf(_proxy(5.0, 1.0, 0.05, 0.0))

    def test_monotone_in_min_loss(self):
        values = [_proxy(loss, 1.0, 0.05, 0.0) for loss in (80.0, 120.0, 200.0)]
        assert values[0] > values[1] > values[2] > 0

    def test_noise_draw_shifts_value(self):
        lo = _proxy(100.0, 1.0, 0.05, -1.0)
        hi = _proxy(100.0, 1.0, 0.05, +1.0)
        # A larger draw inflates the denominator and so shrinks the bound.
        assert hi < lo

    def test_infinite_stage_epsilon_drops_noise_term(self):
        exact = _proxy(100.0, math.inf, 0.05, 123.0)
        t = _slack(100, 4, 2.0, 1.0)
        w = 9.0 + t
        assert exact == pytest.approx(100 * w / (100.0 - t - w), rel=1e-12)


class TestSelectionConfig:
    def test_rejects_wrong_types(self):
        # A float budget used to be accepted and pcls_select then raised a
        # bare AttributeError; a string radius and a None penalty raised a
        # bare TypeError.
        base = dict(radius=2.0, penalty=1.0, budget=PrivacyBudget(1.0))
        for field, value in (("budget", 1.0), ("radius", "2"), ("penalty", None)):
            with pytest.raises(ConfigError, match=field):
                SelectionConfig(**{**base, field: value})
        # pcpl spends epsilon on each stage; the split is no option.
        with pytest.raises(TypeError, match="stage1_fraction"):
            SelectionConfig(**base, stage1_fraction=0.5)
        assert SelectionConfig(radius=2, penalty=np.float64(0.0), budget=PrivacyBudget(1)).radius == 2

    @pytest.mark.parametrize("field, value, message", [
        ("radius", 0.0, "radius must be a positive finite float"),
        ("radius", -1.0, "radius must be a positive finite float"),
        ("radius", math.inf, "radius must be a positive finite float"),
        ("radius", math.nan, "radius must be a positive finite float"),
        ("penalty", -1.0, "penalty must be a nonnegative finite float"),
        ("penalty", math.inf, "penalty must be a nonnegative finite float"),
        ("penalty", math.nan, "penalty must be a nonnegative finite float"),
    ])
    def test_rejects_a_radius_or_penalty_out_of_range(self, field, value, message):
        base = dict(radius=2.0, penalty=1.0, budget=PrivacyBudget(1.0))
        with pytest.raises(ConfigError, match=message):
            SelectionConfig(**{**base, field: value})

    @pytest.mark.parametrize("algorithm, delta", [("pcls", 0.0), ("pcpl", 1e-3)])
    def test_every_real_type_prints_the_same_report(self, algorithm, delta):
        # The config used to keep the caller's objects: radius=2 printed
        # "R": 2, radius=2.0 printed "R": 2.0, and np.float32 made
        # to_json() raise a bare TypeError.
        ds, _, _ = _dataset(n=200, seed=5, noise=1.0)
        select = pcls_select if algorithm == "pcls" else pcpl_select
        texts = set()
        for kind in (int, float, np.float32):
            cfg = SelectionConfig(radius=kind(2), penalty=kind(3), budget=PrivacyBudget(1.0, delta))
            assert type(cfg.radius) is float and type(cfg.penalty) is float
            report = select(ds, all_subsets(4), cfg, RngStream(3, 1))
            texts.add((report.to_json(), report.to_json(include_clean_scores=True)))
        assert len(texts) == 1
        release = json.loads(texts.pop()[0])
        assert (release["R"], release["phi_n"]) == (2.0, 3.0)


def _no_work(monkeypatch, what):
    """Make the statistics and the bounds fail the test if they run."""
    from dpms import selection

    def spy(name):
        def wrapper(*args, **kwargs):
            raise AssertionError(f"{name} ran before the {what} check")
        monkeypatch.setattr(selection, name, wrapper)

    spy("sufficient_stats")
    spy("bound_masks")


class TestBudgetCheckedFirst:
    # A rejected budget used to pay for the sufficient statistics (their
    # eigenvalues included) and a bound pass over the whole family first.
    @pytest.mark.parametrize("select, budget", [
        (pcls_select, PrivacyBudget(1.0, 0.1)),
        (pcpl_select, PrivacyBudget(1e308, 1e-6)),
        (pcpl_select, PrivacyBudget(1.0, 0.0)),
    ])
    def test_no_work_before_a_rejected_budget(self, select, budget, monkeypatch):
        _no_work(monkeypatch, "budget")
        ds, _, _ = _dataset(n=200, seed=5, noise=1.0)
        cfg = SelectionConfig(radius=1.0, penalty=3.0, budget=budget)
        with pytest.raises(ConfigError):
            select(ds, all_subsets(4), cfg, RngStream(3, 1))


class TestPcplEpsilonCeiling:
    def test_an_epsilon_whose_double_overflows_is_rejected(self):
        # pcpl spends 2 * epsilon.  Above max float / 2 that total used to be
        # inf, stage 2's epsilon NaN, every key NaN and the release the
        # family's first mask under "epsilon_total": "inf".
        ds, _, _ = _dataset(n=200, seed=5, noise=1.0)
        family = all_subsets(4)
        cfg = SelectionConfig(radius=1.0, penalty=3.0, budget=PrivacyBudget(1e308, 1e-6))
        with pytest.raises(ConfigError, match="overflows for epsilon = 1e[+]308"):
            pcpl_select(ds, family, cfg, RngStream(3, 1))
        # The largest epsilon whose double is finite is spent in full, and
        # pcls, which spends epsilon itself, accepts 1e308.
        top = sys.float_info.max / 2
        cfg = SelectionConfig(radius=1.0, penalty=3.0, budget=PrivacyBudget(top, 1e-6))
        assert pcpl_select(ds, family, cfg, RngStream(3, 1)).epsilon_total == sys.float_info.max
        cfg = SelectionConfig(radius=1.0, penalty=3.0, budget=PrivacyBudget(1e308))
        assert pcls_select(ds, family, cfg, RngStream(3, 1)).epsilon_total == 1e308


class TestNoiseLawOverflow:
    # Each of these used to release: an infinite width or Laplace scale
    # made every key +-inf (R = 1e200 ended in a bare OverflowError), and
    # a debug report ended in a bare ValueError on inf.
    @staticmethod
    def _bounded(n=1000, d=4, seed=3):
        rng = np.random.default_rng(seed)
        x = rng.uniform(-1, 1, (n, d))
        return Dataset(x, np.clip(x[:, 0] + rng.normal(0, 1, n), -4.0, 4.0), 4.0)

    @pytest.mark.parametrize("radius", [1e154, 1e200])
    @pytest.mark.parametrize("select, delta", [(pcls_select, 0.0), (pcpl_select, 1e-6)])
    def test_a_width_that_overflows_is_rejected_before_any_work(self, radius, select, delta,
                                                                monkeypatch):
        _no_work(monkeypatch, "noise law")
        cfg = SelectionConfig(radius=radius, penalty=1.0, budget=PrivacyBudget(1.0, delta))
        with pytest.raises(ConfigError, match="score width .* overflows"):
            select(self._bounded(), all_subsets(4), cfg, RngStream(3, 1))

    @pytest.mark.parametrize("select, delta, mechanism, factor", [
        (pcls_select, 0.0, "noisy_argmin", "2"),
        (pcpl_select, 1e-6, "noisy_argmin", "1"),
        (pcpl_select, 1e-6, "exponential", "1"),
    ])
    def test_an_epsilon_whose_laplace_scale_overflows_is_rejected(self, select, delta, mechanism,
                                                                  factor, monkeypatch):
        _no_work(monkeypatch, "noise law")
        budget = PrivacyBudget(1e-320, delta)
        cfg = SelectionConfig(radius=2.0, penalty=1.0, budget=budget, mechanism=mechanism)
        with pytest.raises(ConfigError, match=f"Laplace scale {factor} [*] width / epsilon "
                                              "overflows for epsilon = 1e-320"):
            select(self._bounded(), all_subsets(4), cfg, RngStream(3, 1))

    def test_the_record_rejects_what_the_selects_reject(self):
        # The sweep's rows go through the same record.
        with pytest.raises(ConfigError, match="Laplace scale 2"):
            _calibration("pcls", "noisy_argmin", [1.0, 1e-320], [0.0, 0.0], 4.0, 1000, 4, 2.0)
        with pytest.raises(ConfigError, match="score width"):
            _calibration("pcpl", "exponential", [1.0], [1e-6], 4.0, 1000, 4, 1e200)
        # A tiny but representable scale, and no scale at all, pass.
        _calibration("pcls", "noisy_argmin", [1e-300, math.inf], [0.0, 0.0], 4.0, 1000, 4, 2.0)
        _calibration("pcls", "exponential", [1e-320], [0.0], 4.0, 1000, 4, 2.0)

    @pytest.mark.parametrize("radius", [1.2e154, 1.3e154])
    def test_an_exponential_width_whose_double_overflows_is_rejected(self, radius, monkeypatch):
        # The width (1 + R)**2 is finite, but 2 * width is not: the keys
        # used to warn of an overflow and release the uniform draw that
        # zero weights give.
        _no_work(monkeypatch, "noise law")
        ds = Dataset(np.array([[0.5]]), np.array([1.0]), 1.0)
        cfg = SelectionConfig(radius=radius, penalty=0.0, budget=PrivacyBudget(1.0),
                              mechanism="exponential")
        message = f"2 * width overflows for r = 1.0 and R = {radius}"
        with pytest.raises(ConfigError, match=re.escape(message)):
            pcls_select(ds, all_subsets(1), cfg, RngStream(3, 1))
        # No noise is drawn at epsilon = inf, so no scale can overflow.
        _calibration("pcls", "exponential", [math.inf], [0.0], 1.0, 1, 1, radius)

    def test_the_exponential_mechanism_underflows_to_a_uniform_draw(self):
        # At epsilon = 1e-320 every log-weight underflows to (nearly) zero:
        # the winner is the one equal scores give, with no warning.
        import warnings

        ds, family = self._bounded(), all_subsets(4)
        budget = PrivacyBudget(1e-320)
        cfg = SelectionConfig(radius=2.0, penalty=1.0, budget=budget, mechanism="exponential")
        flat = [ScoredCandidate(m, 0.0, 0.0) for m in family]
        for sid in range(8):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                report = pcls_select(ds, family, cfg, RngStream(5, sid))
                debug = json.loads(report.to_json(include_clean_scores=True))
            chosen, _ = exponential_mechanism(flat, 1.0, PrivacyBudget(1.0), RngStream(5, sid))
            assert report.chosen == chosen
            assert debug["chosen"] == list(chosen.indices())


class TestPenaltyOverflow:
    # phi * |model| used to overflow in the score matrix: a select warned,
    # and its debug report ended in a bare ValueError on inf.
    @pytest.mark.parametrize("select, delta", [(pcls_select, 0.0), (pcpl_select, 1e-6)])
    def test_a_penalty_whose_scores_overflow_is_rejected_before_any_work(self, select, delta,
                                                                         monkeypatch):
        _no_work(monkeypatch, "penalty")
        ds, _, _ = _dataset(n=200, seed=5, noise=1.0)
        cfg = SelectionConfig(radius=1.0, penalty=1e308, budget=PrivacyBudget(1.0, delta))
        with pytest.raises(ConfigError, match="penalty [*] d overflows for penalty = 1e[+]308"):
            select(ds, all_subsets(4), cfg, RngStream(3, 1))

    def test_the_largest_penalty_whose_scores_stay_finite_is_accepted(self):
        ds, _, _ = _dataset(n=200, seed=5, noise=1.0)
        cfg = SelectionConfig(radius=1.0, penalty=sys.float_info.max / 4,
                              budget=PrivacyBudget(1.0))
        report = pcls_select(ds, all_subsets(4), cfg, RngStream(3, 1))
        assert np.isfinite(report.clean_scores).all()


class TestComputeGofD:
    def test_matches_manual_replay(self):
        # pcpl's released proxy; stage 1 spends epsilon = 1.0.  The
        # small sample's proxy is degenerate, the large one's finite.

        for n, noise in ((300, 0.4), (2000, 1.0)):
            ds, x, y = _dataset(n=n, seed=3, noise=noise)
            models = all_subsets(4)
            cfg = SelectionConfig(radius=1.5, penalty=0.0, budget=PrivacyBudget(1.0, 1e-4))
            got = pcpl_select(ds, models, cfg, RngStream(42, 7)).g_of_d

            fits = fit_masks(sufficient_stats(ds), models, 1.5)
            min_loss = min(f.neg2_loglik for f in fits)
            z = sample_laplace(RngStream(42, 7), 1.0)
            slack = _slack(n, 4, ds.response_bound, 1.5)
            width = (ds.response_bound + 1.5) ** 2 + slack
            denom = min_loss - slack - width + width * (z - math.log(1.0 / (2.0 * 1e-4))) / 1.0
            oracle = n * width / denom if denom > 0 else math.inf
            assert math.isfinite(oracle) == (n == 2000)
            assert got == pytest.approx(oracle, rel=1e-12)

    def test_block_matches_per_row_reference(self):
        # One block of 1,200 streams (ids past 2^63) against one stage-1
        # draw, proxy and pick per row.  At n=90 some rows' proxies are
        # degenerate and fall back, the rest select with their proxy.
        rng = np.random.default_rng(5)
        n, radius, delta = 90, 1.0, 1e-3
        ds = Dataset(rng.uniform(-1, 1, (n, 3)), rng.uniform(-1, 1, n), 1.0)
        models = all_subsets(3)
        fits = fit_masks(sufficient_stats(ds), models, radius)
        clean = _score_matrix("pcpl", fits.neg2_loglik, n, [1.0], models.sizes)
        # The certificate slack widens the bound and lowers the minimum.
        slack = _slack(n, 3, 1.0, radius)
        min_loss = float(fits.neg2_loglik.min()) - slack
        width = (1.0 + radius) ** 2 + slack
        seed, streams = 2**100 + 3, [2**63 + 7 * i for i in range(1200)]
        for mechanism in ("noisy_argmin", "exponential"):
            # Stage 1 and stage 2 each spend 2 * 1.0 * 0.5 = 1.0.
            budget = PrivacyBudget(1.0, delta)
            cfg = SelectionConfig(radius=radius, penalty=1.0, budget=budget, mechanism=mechanism)
            picks = _rows("pcpl", cfg, ds, fits, models, seed, streams)
            noisy_rows = _noisy(picks, clean)
            assert 0 < picks.fallback.sum() < len(streams)
            for i, sid in enumerate(streams):
                stream = RngStream(seed, sid)
                z = sample_laplace(stream, 1.0)
                denom = min_loss - width + width * (z - math.log(1.0 / (2.0 * delta))) / 1.0
                proxy = n * width / denom if denom > 0 else math.inf
                assert picks.g_of_d[i] == proxy
                assert picks.fallback[i] == math.isinf(proxy)
                if math.isinf(proxy):
                    assert picks.winners[i] == _uniform_rows(seed, [sid], models)[0]
                    if mechanism == "noisy_argmin":
                        assert np.isnan(noisy_rows[i]).all()
                elif mechanism == "noisy_argmin":
                    scale = 2.0 * proxy / 1.0
                    cands = [ScoredCandidate(m, c, scale) for m, c in zip(models, clean[0])]
                    chosen, noisy = noisy_argmin(cands, PrivacyBudget(1.0), stream)
                    assert models[picks.winners[i]] == chosen
                    assert np.array_equal(noisy_rows[i], noisy)
                else:
                    cands = [ScoredCandidate(m, c, 0.0) for m, c in zip(models, clean[0])]
                    chosen, _ = exponential_mechanism(cands, proxy, PrivacyBudget(1.0), stream)
                    assert models[picks.winners[i]] == chosen

    def test_requires_usable_delta(self):
        ds, _, _ = _dataset()
        models = all_subsets(4)
        cfg = SelectionConfig(radius=1.0, penalty=0.0, budget=PrivacyBudget(1.0, 0.0))
        with pytest.raises(ConfigError):
            pcpl_select(ds, models, cfg, RngStream(0, 0))


class TestCertificateSlack:
    def test_both_noise_scales_carry_the_slack(self, monkeypatch):
        # A certified loss sits within the public slack tau of the exact
        # one (see _slack), so pcls calibrates to (r + R)^2 + tau, and pcpl
        # widens its bound to w = (r + R)^2 + tau and lowers the minimum
        # by tau.  Here n = 200, d = 4 and r = max|y|.
        from dpms import selection

        ds, _, _ = _dataset(n=200, seed=5, noise=1.0)
        models = all_subsets(4)
        r = ds.response_bound
        seen = {}

        def spy(name, function):
            def wrapper(*args):
                seen[name] = args
                return function(*args)
            monkeypatch.setattr(selection, name, wrapper)

        spy("_noisy_keys", selection._noisy_keys)
        spy("_gumbel_keys", selection._gumbel_keys)
        cfg = SelectionConfig(radius=2.0, penalty=3.0, budget=PrivacyBudget(0.5))
        pcls_select(ds, models, cfg, RngStream(3, 1))
        tau = _slack(200, 4, r, 2.0)
        scale = seen["_noisy_keys"][0]
        assert scale.tolist() == [[2.0 * ((r + 2.0) ** 2 + tau) / 0.5]]
        assert scale[0, 0] - 2.0 * (r + 2.0) ** 2 / 0.5 == pytest.approx(4.0 * tau, rel=1e-6)

        cfg = SelectionConfig(
            radius=1.0, penalty=3.0, budget=PrivacyBudget(5.0, 1e-3), mechanism="exponential"
        )
        report = pcpl_select(ds, models, cfg, RngStream(3, 1))
        min_loss = float(fit_masks(sufficient_stats(ds), models, 1.0).neg2_loglik.min())
        tau = _slack(200, 4, r, 1.0)
        w = (r + 1.0) ** 2 + tau
        z = sample_laplace(RngStream(3, 1), 1.0)
        # Stage 1 spends epsilon = 5.
        proxy = 200 * w / ((min_loss - tau) - w + w * (z - math.log(1.0 / 2e-3)) / 5.0)
        assert report.g_of_d == proxy
        assert seen["_gumbel_keys"][1].tolist() == [[proxy]]
        assert report.g_of_d == pytest.approx(22.960257448247336, rel=1e-12)


class TestPclsSelect:
    def test_noiseless_matches_ols_oracle(self):
        # Route A: the implementation at epsilon = inf.  Route B: score
        # every candidate with plain least squares (radius loose enough to
        # be slack) and take the penalized argmin by hand.
        ds, x, y = _dataset(n=250, seed=11)
        models = all_subsets(4)
        penalty = 6.0
        radius = 25.0  # loose for this data
        cfg = SelectionConfig(radius=radius, penalty=penalty, budget=PrivacyBudget(math.inf))
        report = pcls_select(ds, models, cfg, RngStream(1, 1))

        oracle_scores = {
            m.bits: _ols_rss(x, y, m) + penalty * m.size for m in models
        }
        oracle_pick = min(
            models, key=lambda m: (oracle_scores[m.bits], m.size, m.bits)
        )
        assert report.chosen == oracle_pick
        for bits, clean, noisy in zip(
            report.models.bits.tolist(), report.clean_scores, report.noisy_scores
        ):
            assert clean == pytest.approx(oracle_scores[bits], abs=1e-5)
            assert noisy == clean  # zero noise

    def test_budget_echo_and_flags(self):
        ds, _, _ = _dataset()
        cfg = SelectionConfig(radius=2.0, penalty=1.0, budget=PrivacyBudget(0.7))
        report = pcls_select(ds, all_subsets(4), cfg, RngStream(5, 5))
        assert report.epsilon_total == 0.7
        assert report.delta == 0.0
        assert report.fallback_uniform is False
        assert report.g_of_d is None
        assert report.mechanism == "noisy_argmin"
        assert report.response_bound_data_dependent is True

    def test_rejects_nonzero_delta(self):
        ds, _, _ = _dataset()
        cfg = SelectionConfig(radius=2.0, penalty=1.0, budget=PrivacyBudget(0.7, 1e-6))
        with pytest.raises(ConfigError):
            pcls_select(ds, all_subsets(4), cfg, RngStream(5, 5))

    def test_noise_calibration_on_entries(self):
        # The reported noisy scores must sit at clean + Laplace noise with
        # scale exactly 2 * (r + R)^2 / epsilon.  One fit; row i is
        # pcls_select(ds, models, cfg, RngStream(77, i)).
        ds, _, _ = _dataset(n=40, d=2, seed=9, beta=(0.5, -0.5))
        models = from_explicit([[1], [2], [1, 2]], 2)
        eps = 2.0
        cfg = SelectionConfig(radius=1.0, penalty=0.0, budget=PrivacyBudget(eps))
        scale = 2.0 * (ds.response_bound + 1.0) ** 2 / eps
        trials = 3000
        fits = fit_masks(sufficient_stats(ds), models, cfg.radius)
        clean = _score_matrix("pcls", fits.neg2_loglik, ds.n, [cfg.penalty], models.sizes)
        picks = _rows("pcls", cfg, ds, fits, models, 77, range(trials))
        noisy = _noisy(picks, clean)
        for i in (0, 1, 1234, trials - 1):
            report = pcls_select(ds, models, cfg, RngStream(77, i))
            assert np.array_equal(report.clean_scores, clean[0])
            assert np.array_equal(report.noisy_scores, noisy[i])
            assert report.chosen == models[picks.winners[i]]
        residuals = (noisy - clean).ravel()
        assert abs(np.mean(residuals)) < 0.1 * scale
        assert np.var(residuals) == pytest.approx(2.0 * scale**2, rel=0.1)

    def test_configured_bound_must_cover_data(self):
        # A public bound r lives on the Dataset, which refuses data above
        # it: a bound below max|y| would understate the sensitivity.
        ds, x, y = _dataset()
        with pytest.raises(DataError):
            Dataset(x, y, ds.response_bound * 0.5)

    def test_configured_bound_is_reported_unflagged(self):
        ds, x, y = _dataset()
        high = ds.response_bound * 2.0
        cfg = SelectionConfig(radius=2.0, penalty=1.0, budget=PrivacyBudget(1.0))
        report = pcls_select(Dataset(x, y, high), all_subsets(4), cfg, RngStream(0, 0))
        assert report.response_bound == high
        assert report.response_bound_data_dependent is False

    def test_deterministic_replay_and_stream_divergence(self):
        ds, _, _ = _dataset()
        cfg = SelectionConfig(radius=2.0, penalty=3.0, budget=PrivacyBudget(1.0))
        fam = all_subsets(4)
        a = pcls_select(ds, fam, cfg, RngStream(3, 1))
        b = pcls_select(ds, fam, cfg, RngStream(3, 1))
        c = pcls_select(ds, fam, cfg, RngStream(3, 2))
        assert a.to_json(include_clean_scores=True) == b.to_json(include_clean_scores=True)
        assert a.noisy_scores.tolist() != c.noisy_scores.tolist()

    def test_family_order_does_not_change_winner(self):
        ds, _, _ = _dataset()
        cfg = SelectionConfig(radius=2.0, penalty=3.0, budget=PrivacyBudget(0.5))
        forward = from_explicit([[1], [2], [3], [1, 2], [2, 3]], 4)
        backward = from_explicit([[2, 3], [1, 2], [3], [2], [1]], 4)
        a = pcls_select(ds, forward, cfg, RngStream(9, 9))
        b = pcls_select(ds, backward, cfg, RngStream(9, 9))
        assert a.chosen == b.chosen

    def test_exponential_mechanism_path(self):
        ds, _, _ = _dataset()
        cfg = SelectionConfig(
            radius=2.0, penalty=3.0, budget=PrivacyBudget(1.0), mechanism="exponential"
        )
        report = pcls_select(ds, all_subsets(4), cfg, RngStream(2, 2))
        assert report.mechanism == "exponential"
        assert report.noisy_scores is None
        assert report.chosen in list(all_subsets(4))

    def test_family_dimension_mismatch(self):
        ds, _, _ = _dataset(d=4)
        cfg = SelectionConfig(radius=1.0, penalty=0.0, budget=PrivacyBudget(1.0))
        with pytest.raises(DataError):
            pcls_select(ds, all_subsets(3), cfg, RngStream(0, 0))


class TestPcplSelect:
    def test_small_sample_falls_back_to_uniform(self):
        # Tiny n with a small delta: the safety margin swamps the denominator.
        ds, _, _ = _dataset(n=50, seed=2)
        cfg = SelectionConfig(radius=3.0, penalty=2.0, budget=PrivacyBudget(1.0, 1e-6))
        report = pcpl_select(ds, all_subsets(4), cfg, RngStream(4, 4))
        assert report.fallback_uniform is True
        assert math.isinf(report.g_of_d)
        assert report.noisy_scores is None
        assert report.chosen in list(all_subsets(4))
        assert report.epsilon_total == 2.0

    def test_large_sample_releases_finite_proxy(self):
        ds, _, _ = _dataset(n=2000, seed=6, noise=1.0)
        cfg = SelectionConfig(radius=2.0, penalty=5.0, budget=PrivacyBudget(1.0, 1e-6))
        report = pcpl_select(ds, all_subsets(4), cfg, RngStream(8, 8))
        assert report.fallback_uniform is False
        assert report.g_of_d is not None and math.isfinite(report.g_of_d)
        assert report.epsilon_total == 2.0
        assert report.delta == 1e-6
        assert report.noisy_scores is not None
        assert np.isfinite(report.noisy_scores).all() and len(report.noisy_scores) == 15

    def test_requires_delta_strictly_inside_unit_interval(self):
        ds, _, _ = _dataset()
        cfg = SelectionConfig(radius=1.0, penalty=0.0, budget=PrivacyBudget(1.0, 0.0))
        with pytest.raises(ConfigError):
            pcpl_select(ds, all_subsets(4), cfg, RngStream(0, 0))

    def test_noiseless_limit_is_profile_argmin(self):
        ds, x, y = _dataset(n=400, seed=14)
        models = all_subsets(4)
        penalty = 8.0
        cfg = SelectionConfig(
            radius=25.0, penalty=penalty, budget=PrivacyBudget(math.inf, 1e-6)
        )
        report = pcpl_select(ds, models, cfg, RngStream(0, 3))
        n = ds.n
        oracle_scores = {
            m.bits: n * math.log(_ols_rss(x, y, m) / n) + penalty * m.size for m in models
        }
        oracle_pick = min(models, key=lambda m: (oracle_scores[m.bits], m.size, m.bits))
        assert report.chosen == oracle_pick
        assert report.fallback_uniform is False
        assert math.isinf(report.epsilon_total)
        for bits, clean in zip(report.models.bits.tolist(), report.clean_scores):
            assert clean == pytest.approx(oracle_scores[bits], abs=1e-4)

    def test_noiseless_limit_never_falls_back(self):
        # Interpolating data makes the proxy degenerate, but with no noise
        # to calibrate there is nothing to protect against.
        rng = np.random.default_rng(21)
        x = rng.uniform(-1, 1, (30, 2))
        y = x @ np.array([0.4, -0.3])  # exact linear response
        ds = Dataset.from_arrays(x, y)
        cfg = SelectionConfig(radius=2.0, penalty=1.0, budget=PrivacyBudget(math.inf, 1e-6))
        report = pcpl_select(ds, all_subsets(2), cfg, RngStream(1, 2))
        assert report.fallback_uniform is False
        assert math.isinf(report.g_of_d)
        assert report.chosen == ModelMask.from_indices([1, 2], 2)

    def test_high_budget_agrees_with_noiseless(self):
        ds, _, _ = _dataset(n=2000, seed=19, noise=1.0)
        models = all_subsets(4)
        noiseless = pcpl_select(
            ds, models,
            SelectionConfig(radius=2.0, penalty=10.0, budget=PrivacyBudget(math.inf, 1e-6)),
            RngStream(0, 0),
        )
        agree = 0
        for i in range(20):
            rich = pcpl_select(
                ds, models,
                SelectionConfig(radius=2.0, penalty=10.0, budget=PrivacyBudget(200.0, 1e-6)),
                RngStream(50, i),
            )
            agree += rich.chosen == noiseless.chosen
        assert agree >= 18


class TestReportSerialization:
    def test_schema_keys_and_order_pcls(self):
        ds, _, _ = _dataset()
        cfg = SelectionConfig(radius=2.0, penalty=1.5, budget=PrivacyBudget(1.0))
        report = pcls_select(ds, all_subsets(4), cfg, RngStream(12, 34))
        doc = json.loads(report.to_json())
        assert list(doc.keys()) == [
            "chosen", "epsilon_total", "delta", "R", "phi_n", "r",
            "r_data_dependent", "mechanism", "fallback_uniform",
            "n_models", "key_sha256", "stream_id",
        ]
        assert doc["key_sha256"] == hashlib.sha256((12).to_bytes(16, "little")).hexdigest()
        assert doc["stream_id"] == 34
        assert doc["R"] == 2.0 and doc["phi_n"] == 1.5
        assert doc["r_data_dependent"] is True
        assert doc["n_models"] == 15

    def test_gofd_key_only_on_two_stage_path(self):
        ds, _, _ = _dataset(n=2000, noise=1.0)
        pure = pcls_select(
            ds, all_subsets(4),
            SelectionConfig(radius=2.0, penalty=1.0, budget=PrivacyBudget(1.0)),
            RngStream(0, 0),
        )
        staged = pcpl_select(
            ds, all_subsets(4),
            SelectionConfig(radius=2.0, penalty=1.0, budget=PrivacyBudget(1.0, 1e-6)),
            RngStream(0, 0),
        )
        assert "g_of_d" not in json.loads(pure.to_json())
        doc = json.loads(staged.to_json())
        assert isinstance(doc["g_of_d"], float)

    def test_fallback_serializes_null_proxy(self):
        ds, _, _ = _dataset(n=50)
        report = pcpl_select(
            ds, all_subsets(4),
            SelectionConfig(radius=3.0, penalty=1.0, budget=PrivacyBudget(1.0, 1e-6)),
            RngStream(4, 4),
        )
        doc = json.loads(report.to_json())
        assert report.fallback_uniform and doc["g_of_d"] is None
        assert doc["fallback_uniform"] is True

    def test_clean_scores_redacted_by_default(self):
        ds, _, _ = _dataset()
        cfg = SelectionConfig(radius=2.0, penalty=1.0, budget=PrivacyBudget(1.0))
        report = pcls_select(ds, all_subsets(4), cfg, RngStream(1, 1))
        assert "clean_score" not in report.to_json()
        unsafe = json.loads(report.to_json(include_clean_scores=True))
        assert all("clean_score" in m for m in unsafe["models"])

    def test_infinite_budget_serializes_as_string(self):
        ds, _, _ = _dataset()
        cfg = SelectionConfig(radius=2.0, penalty=1.0, budget=PrivacyBudget(math.inf))
        report = pcls_select(ds, all_subsets(4), cfg, RngStream(1, 1))
        doc = json.loads(report.to_json())
        assert doc["epsilon_total"] == "inf"

    def test_text_round_trips_and_ends_with_newline(self):
        ds, _, _ = _dataset()
        cfg = SelectionConfig(radius=2.0, penalty=1.0, budget=PrivacyBudget(1.0))
        report = pcls_select(ds, all_subsets(4), cfg, RngStream(1, 1))
        text = report.to_json()
        assert text.endswith("\n")
        doc = json.loads(text)
        assert doc["chosen"] == list(report.chosen.indices())


def _keys(node):
    """Every key of a parsed JSON document, at any depth."""
    if isinstance(node, dict):
        return set(node) | {k for v in node.values() for k in _keys(v)}
    if isinstance(node, list):
        return {k for v in node for k in _keys(v)}
    return set()


class TestReleaseHoldsOnlyTheIndex:
    # The budget pays for the winner's index alone: a default report must
    # not carry the key, the (seed, stream) pair or any per-model score.
    KEY = 2**100 + 12345

    @pytest.mark.parametrize("case", ("pcls", "pcpl", "fallback"))
    def test_default_report_has_no_key_and_no_scores(self, case, monkeypatch):
        if case == "pcls":
            ds, select = _dataset()[0], pcls_select
            cfg = SelectionConfig(radius=2.0, penalty=1.0, budget=PrivacyBudget(1.0))
        elif case == "pcpl":
            ds, select = _dataset(n=2000, noise=1.0)[0], pcpl_select
            cfg = SelectionConfig(radius=2.0, penalty=1.0, budget=PrivacyBudget(1.0, 1e-6))
        else:
            ds, select = _dataset(n=50)[0], pcpl_select
            cfg = SelectionConfig(radius=3.0, penalty=1.0, budget=PrivacyBudget(1.0, 1e-6))
        family = all_subsets(4)
        report = select(ds, family, cfg, RngStream(self.KEY, 4))
        assert report.fallback_uniform == (case == "fallback")
        # The release never lays out the family it does not print.
        monkeypatch.setattr("dpms.selection.member_matrix", None)
        text = report.to_json()
        doc = json.loads(text)
        assert "seed" not in doc
        assert not _keys(doc) & {"models", "mask", "noisy_score", "clean_score"}
        assert str(self.KEY) not in text
        assert doc["n_models"] == len(family) == 15
        assert doc["stream_id"] == 4
        # Printing the report object shows no more than its release.
        shown = repr(report)
        assert str(self.KEY) not in shown and "RngStream" not in shown
        assert "clean_scores" not in shown and "noisy_scores" not in shown

    def test_commitment_binds_the_key(self):
        ds, _, _ = _dataset()
        cfg = SelectionConfig(radius=2.0, penalty=1.0, budget=PrivacyBudget(1.0))
        a, b, c = (
            json.loads(pcls_select(ds, all_subsets(4), cfg, rng).to_json())
            for rng in (RngStream(self.KEY, 0), RngStream(self.KEY, 1), RngStream(self.KEY + 1, 0))
        )
        assert a["key_sha256"] == b["key_sha256"] != c["key_sha256"]
        assert len(a["key_sha256"]) == 64


class TestCanonicalOrder:
    # The noise of a mask is keyed by its rank in the family's canonical
    # order (by size, then bit value), which also breaks ties.  A family
    # knows that order, and an all_subsets family is in it already.
    @staticmethod
    def _configs():
        for mechanism in ("noisy_argmin", "exponential"):
            yield pcls_select, SelectionConfig(radius=1.0, penalty=2.0, budget=PrivacyBudget(1.0),
                                               mechanism=mechanism)
            yield pcpl_select, SelectionConfig(radius=1.0, penalty=2.0, mechanism=mechanism,
                                               budget=PrivacyBudget(1.0, 1e-4))

    def test_a_select_on_all_subsets_sorts_nothing(self, monkeypatch):
        ds, _, _ = _dataset(n=200, d=5, seed=4, beta=(1.2, -0.8, 0.5, 0.0, 0.0))
        family = all_subsets(5)
        sorts = []
        lexsort = np.lexsort

        def counted(*args, **kwargs):
            sorts.append(args)
            return lexsort(*args, **kwargs)

        monkeypatch.setattr(np, "lexsort", counted)
        for select, cfg in self._configs():
            for sid in range(3):
                json.loads(select(ds, family, cfg, RngStream(12, sid)).to_json())
        assert sorts == []

    def test_a_shuffled_family_draws_the_same_noise_per_mask(self):
        ds, _, _ = _dataset(n=200, d=5, seed=4, beta=(1.2, -0.8, 0.5, 0.0, 0.0))
        family = all_subsets(5)
        perm = np.random.default_rng(6).permutation(len(family))
        shuffled = from_explicit([family[j].indices() for j in perm], 5)
        assert np.array_equal(shuffled.bits, family.bits[perm])
        assert shuffled.canonical_order is not None
        picks = fallbacks = 0
        for select, cfg in self._configs():
            for sid in range(4):
                ordered = select(ds, family, cfg, RngStream(12, sid))
                report = select(ds, shuffled, cfg, RngStream(12, sid))
                assert report.fallback_uniform == ordered.fallback_uniform
                # pcpl's uniform fallback draws a rank too.
                fallbacks += ordered.fallback_uniform
                picks += 1
                assert report.chosen == ordered.chosen
                if ordered.noisy_scores is not None:
                    assert np.array_equal(report.noisy_scores, ordered.noisy_scores[perm])
        assert picks == 16 and fallbacks >= 1


class TestReportArrays:
    def test_select_builds_at_most_the_winning_mask(self, monkeypatch):
        # Scores stay arrays from the fits to the JSON text; the one
        # ModelMask a select makes is the released winner.
        made = []
        post_init = ModelMask.__post_init__

        def counted(self):
            made.append(self.bits)
            post_init(self)

        ds, _, _ = _dataset(n=300, d=10, beta=(0.9, -0.7) + (0.0,) * 8)
        cfg = SelectionConfig(radius=2.0, penalty=3.0, budget=PrivacyBudget(1.0))
        family = all_subsets(10)
        monkeypatch.setattr(ModelMask, "__post_init__", counted)
        report = pcls_select(ds, family, cfg, RngStream(6, 6))
        text = report.to_json(include_clean_scores=True)
        monkeypatch.undo()
        assert made == [report.chosen.bits]
        doc = json.loads(text)
        assert len(doc["models"]) == 1023
        assert [m["mask"] for m in doc["models"]] == [list(m.indices()) for m in family]
        assert not report.clean_scores.flags.writeable
        assert not report.noisy_scores.flags.writeable


# sha256 of to_json(include_clean_scores=True), pinned so that a change to
# how families, fits or draws are passed around cannot move a single byte
# of a report.  Re-pinned once when fits became exact and certified and the
# certificate slack entered the calibration.
REPORT_SHA256 = {
    "pcls-all": "b53eeec3743a3e9b3e229b24c8e39bacdf300e3d4e3ec243cfee924fe763d499",
    "pcls-reversed": "03bda14a7859a576cee3dd92589beff70b7c28392a1f32d0d464199daa26216f",
    "pcpl-exponential": "d7815d743863a113ee12438ae56b81ca3710d57d110c471aef97dcdc5e8a7e62",
    "pcls-exponential": "88192ee2257d65dca550a5af8b6bd9b2231cc192f5c61aca2e2e7fa37201213b",
    "pcpl-noisy_argmin": "dd4b3db26f56317e7072314838494db4dc81b2d533f5447e89462e14b0ab8257",
    "pcpl-fallback": "34cff23392abf36a8cda98e38903d4dee68e0d70d2e82109dbe31bb780d3a240",
    "pcls-inf": "a163e5bb59367b17f77b04741e06ca8d7ab022cdb69ca89e06f373d57019fe56",
    "pcpl-inf": "6fe8cc328e8247323fee00e7efce3ece865c52b8a581100ceccad746bcce8f7e",
}

# Each case's (algorithm, mechanism, epsilon, n) on top of the shared
# radius, penalty and delta of its algorithm.
REPORT_CASES = {
    "pcls-all": ("pcls", "noisy_argmin", 1.0, 200),
    "pcls-reversed": ("pcls", "noisy_argmin", 1.0, 200),
    "pcls-exponential": ("pcls", "exponential", 1.0, 200),
    "pcls-inf": ("pcls", "noisy_argmin", math.inf, 200),
    "pcpl-exponential": ("pcpl", "exponential", 5.0, 200),
    "pcpl-noisy_argmin": ("pcpl", "noisy_argmin", 5.0, 200),
    "pcpl-fallback": ("pcpl", "noisy_argmin", 0.5, 40),
    "pcpl-inf": ("pcpl", "noisy_argmin", math.inf, 200),
}


class TestReportDigests:
    @pytest.mark.parametrize("case", sorted(REPORT_SHA256))
    def test_report_digest_is_pinned(self, case):
        algorithm, mechanism, epsilon, n = REPORT_CASES[case]
        ds, _, _ = _dataset(n=n, seed=5, noise=1.0)
        family = all_subsets(4)
        if case == "pcls-reversed":
            family = from_explicit([m.indices() for m in reversed(list(family))], 4)
        if algorithm == "pcls":
            select = pcls_select
            cfg = SelectionConfig(radius=2.0, penalty=3.0, budget=PrivacyBudget(epsilon),
                                  mechanism=mechanism)
        else:
            select = pcpl_select
            cfg = SelectionConfig(
                radius=1.0, penalty=3.0, budget=PrivacyBudget(epsilon, 1e-3), mechanism=mechanism,
            )
        report = select(ds, family, cfg, RngStream(3, 1))
        assert report.fallback_uniform == (case == "pcpl-fallback")
        text = report.to_json(include_clean_scores=True)
        assert hashlib.sha256(text.encode("utf-8")).hexdigest() == REPORT_SHA256[case]


def _debug_oracle(report):
    """The debug dump the way json prints it, from a dict built out of the
    report's public fields and arrays."""
    doc = {
        "chosen": list(report.chosen.indices()),
        "epsilon_total": "inf" if math.isinf(report.epsilon_total) else report.epsilon_total,
        "delta": report.delta,
        "R": report.radius,
        "phi_n": report.penalty,
        "r": report.response_bound,
        "r_data_dependent": report.response_bound_data_dependent,
        "seed": [report.rng.seed, report.rng.stream_id],
        "mechanism": report.mechanism,
        "fallback_uniform": report.fallback_uniform,
    }
    if report.g_of_d is not None:
        doc["g_of_d"] = None if math.isinf(report.g_of_d) else report.g_of_d
    clean = report.clean_scores.tolist()
    noisy = [None] * len(clean) if report.noisy_scores is None else report.noisy_scores.tolist()
    doc["models"] = [
        {"mask": list(mask.indices()), "noisy_score": ns, "clean_score": cs}
        for mask, ns, cs in zip(report.models, noisy, clean)
    ]
    return json.dumps(doc, indent=2, allow_nan=False) + "\n"


# Each case's (algorithm, mechanism, epsilon, n, family) for the dump's
# byte oracle.
DUMP_CASES = {
    "include-empty": ("pcls", "noisy_argmin", 1.0, 200, lambda: all_subsets(4, include_empty=True)),
    "reversed": ("pcls", "noisy_argmin", 1.0, 200, lambda: from_explicit(
        [m.indices() for m in reversed(list(all_subsets(5, include_empty=True)))], 5)),
    "pcpl-fallback": ("pcpl", "noisy_argmin", 0.5, 40, lambda: all_subsets(4)),
    "pcls-exponential": ("pcls", "exponential", 1.0, 200, lambda: all_subsets(4)),
    "pcpl-exponential": ("pcpl", "exponential", 5.0, 200, lambda: all_subsets(4)),
    "pcls-inf": ("pcls", "noisy_argmin", math.inf, 200, lambda: all_subsets(4)),
    "pcpl-inf": ("pcpl", "noisy_argmin", math.inf, 200, lambda: all_subsets(4)),
    "d12": ("pcls", "noisy_argmin", 1.0, 300, lambda: all_subsets(12)),
}


class TestDebugDump:
    # The dump writes its models array straight from the report's arrays;
    # it used to build one dict per model for json's indent=2 encoder.
    @staticmethod
    def _report(case):
        algorithm, mechanism, epsilon, n, family = DUMP_CASES[case]
        family = family()
        d = family.d
        ds, _, _ = _dataset(n=n, d=d, seed=5, beta=(0.9, -0.7) + (0.0,) * (d - 2), noise=1.0)
        if algorithm == "pcls":
            cfg = SelectionConfig(radius=2.0, penalty=3.0, budget=PrivacyBudget(epsilon),
                                  mechanism=mechanism)
            return pcls_select(ds, family, cfg, RngStream(3, 1))
        cfg = SelectionConfig(radius=1.0, penalty=3.0, budget=PrivacyBudget(epsilon, 1e-3),
                              mechanism=mechanism)
        return pcpl_select(ds, family, cfg, RngStream(3, 1))

    @pytest.mark.parametrize("case", sorted(DUMP_CASES))
    def test_prints_what_json_prints(self, case):
        report = self._report(case)
        text = report.to_json(include_clean_scores=True)
        assert text == _debug_oracle(report)
        models = json.loads(text)["models"]
        if case == "include-empty":
            assert models[0]["mask"] == [] and '"mask": [],' in text
        if case == "reversed":
            assert models[-1]["mask"] == []
        if case == "pcpl-fallback":
            assert report.fallback_uniform and json.loads(text)["g_of_d"] is None
        if case in ("pcpl-fallback", "pcls-exponential", "pcpl-exponential"):
            assert all(m["noisy_score"] is None for m in models)
        else:
            assert all(isinstance(m["noisy_score"], float) for m in models)
        if case == "d12":
            assert len(models) == 4095

    @pytest.mark.parametrize("which", ["clean", "noisy"])
    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_a_non_finite_score_raises_what_json_raises(self, which, value):
        report = self._report("include-empty")
        clean, noisy = report.clean_scores.copy(), report.noisy_scores.copy()
        (clean if which == "clean" else noisy)[3] = value
        broken = dataclasses.replace(report, settle_scores=lambda: (clean, noisy))
        with pytest.raises(ValueError, match="^Out of range float values are not JSON compliant"):
            _debug_oracle(broken)
        with pytest.raises(ValueError) as got:
            broken.to_json(include_clean_scores=True)
        assert str(got.value) == f"Out of range float values are not JSON compliant: {value!r}"

    def test_peak_memory_stays_within_five_texts(self):
        # The dict-per-model dump peaked near 8.9 times its text at d = 10.
        ds, _, _ = _dataset(n=300, d=10, beta=(0.9, -0.7) + (0.0,) * 8)
        cfg = SelectionConfig(radius=2.0, penalty=3.0, budget=PrivacyBudget(1.0))
        report = pcls_select(ds, all_subsets(10), cfg, RngStream(6, 6))
        report.clean_scores  # settle first: only the writing is measured
        tracemalloc.start()
        try:
            text = report.to_json(include_clean_scores=True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 5 * len(text)


class TestDebugSelectRunsOnce:
    # A debug dump evaluates the release's own keys at the settled scores.
    # It used to replay the whole selection on them: a second SHAKE-256
    # read, a second stage 1 for pcpl and a second argmin.
    @pytest.mark.parametrize("case", sorted(DUMP_CASES))
    def test_one_selection_core_call(self, case, monkeypatch):
        from dpms import selection

        calls = []
        select_rows = selection._select_rows

        def counted(*args):
            calls.append(args)
            return select_rows(*args)

        monkeypatch.setattr(selection, "_select_rows", counted)
        report = TestDebugDump._report(case)
        text = report.to_json(include_clean_scores=True)
        assert len(calls) == 1
        noisy = report.noisy_scores
        if noisy is not None:
            assert report.chosen == report.models[int(np.argmin(noisy))]
        assert text == _debug_oracle(report)


class TestFiniteMechanismBudgets:
    # The selection core decides the noiseless limit once: rows with
    # epsilon = inf are keyed by their scores, and the mechanisms' key
    # builders see only the finite rows.  They used to get every row, with
    # a zero Laplace scale or an infinite epsilon on the noiseless ones.
    @pytest.mark.parametrize("mechanism", ("noisy_argmin", "exponential"))
    @pytest.mark.parametrize("algorithm, deltas", [("pcls", (0.0,)), ("pcpl", (1e-6, 1e-2))])
    def test_keys_get_finite_positive_budgets(self, algorithm, deltas, mechanism, monkeypatch):
        from dpms import selection

        seen = []

        def spy(name, function):
            def wrapper(*args):
                seen.append((name, args))
                return function(*args)
            monkeypatch.setattr(selection, name, wrapper)

        spy("_noisy_keys", selection._noisy_keys)
        spy("_gumbel_keys", selection._gumbel_keys)
        ds, _, _ = _dataset(n=200, seed=5, noise=1.0)
        family = all_subsets(4)
        fits = fit_masks(sufficient_stats(ds), family, 1.0)
        cells = list(itertools.product((0.5, 5.0, math.inf), deltas, (0.0, 3.0), range(3)))
        epsilons, row_deltas, penalties, streams = (list(axis) for axis in zip(*cells))
        law = _calibration(algorithm, mechanism, epsilons, row_deltas, ds.response_bound, ds.n,
                           4, 1.0)
        picks = _select_rows(law, fits, penalties, family, 17, streams)
        assert [name for name, _ in seen] == [
            "_noisy_keys" if mechanism == "noisy_argmin" else "_gumbel_keys"
        ]
        name, args = seen[0]
        # noisy_argmin gets each row's scale; exponential its epsilon and
        # sensitivity.
        values = args[:1] if name == "_noisy_keys" else args[:2]
        live = np.isfinite(epsilons) & ~picks.fallback
        for value in values:
            assert (np.isfinite(value) & (value > 0)).all()
            assert value.shape == (np.count_nonzero(live), 1)
        # The stream ids are those of the noisy rows, in order.
        assert args[-1] == np.asarray(streams)[live].tolist()


class TestMixedBudgetRows:
    # One selection-core call whose rows spend different budgets releases,
    # row by row, what one-budget calls release.
    @pytest.mark.parametrize("mechanism", ("noisy_argmin", "exponential"))
    @pytest.mark.parametrize("algorithm, deltas", [("pcls", (0.0,)), ("pcpl", (1e-6, 1e-2))])
    def test_each_row_is_its_one_budget_call(self, algorithm, deltas, mechanism):
        ds, _, _ = _dataset(n=200, seed=5, noise=1.0)
        family = all_subsets(4)
        fits = fit_masks(sufficient_stats(ds), family, 1.0)
        cells = list(itertools.product((0.5, 5.0, math.inf), deltas, (0.0, 3.0), range(3)))
        epsilons, row_deltas, penalties, streams = (list(axis) for axis in zip(*cells))
        law = _calibration(algorithm, mechanism, epsilons, row_deltas, ds.response_bound, ds.n,
                           4, 1.0)
        mixed = _select_rows(law, fits, penalties, family, 17, streams)
        clean = _score_matrix(algorithm, fits.neg2_loglik, ds.n, penalties, family.sizes)
        mixed_noisy = _noisy(mixed, clean)
        for i, (eps, delta, phi, sid) in enumerate(cells):
            one_cfg = SelectionConfig(
                radius=1.0, penalty=phi, budget=PrivacyBudget(eps, delta), mechanism=mechanism
            )
            one = _rows(algorithm, one_cfg, ds, fits, family, 17, [sid])
            assert mixed.winners[i] == one.winners[0]
            assert mixed.fallback[i] == one.fallback[0]
            if algorithm == "pcpl":
                assert mixed.g_of_d[i] == one.g_of_d[0]
            # The row's keys, and so its noisy scores, are those of its
            # one-budget call.
            one_noisy = _noisy(one, clean[i])
            assert np.array_equal(mixed_noisy[i], one_noisy[0], equal_nan=True)
            assert mixed.fallback[i] == np.isnan(one_noisy).all()
        finite = np.isfinite(epsilons)
        assert not mixed.fallback[~finite].any()
        if algorithm == "pcpl":
            # Both kinds of finite row: fallback (epsilon 0.5) and not.
            assert mixed.fallback[finite].any() and not mixed.fallback[finite].all()

    @pytest.mark.parametrize("algorithm, deltas", [("pcls", (0.0,)), ("pcpl", (1e-6, 0.2))])
    def test_each_record_row_is_its_one_budget_record(self, algorithm, deltas):
        # Row i of a mixed record is the one-row record of its budget, bit
        # for bit, and its epsilon_total is what that select's ledger prints.
        ds, _, _ = _dataset(n=200, seed=5, noise=1.0)
        family = all_subsets(4)
        cells = list(itertools.product((0.5, 5.0, math.inf), deltas))
        epsilons, row_deltas = (list(axis) for axis in zip(*cells))
        law = _calibration(algorithm, "exponential", epsilons, row_deltas, ds.response_bound,
                           ds.n, 4, 1.0)
        select = pcls_select if algorithm == "pcls" else pcpl_select
        for i, (eps, delta) in enumerate(cells):
            cfg = SelectionConfig(radius=1.0, penalty=3.0, budget=PrivacyBudget(eps, delta),
                                  mechanism="exponential")
            one = _law(algorithm, cfg, ds, 4)
            for name, value in law._asdict().items():
                if isinstance(value, np.ndarray):
                    assert np.array_equal(value[i:i + 1], getattr(one, name)), name
                else:
                    assert value == getattr(one, name), name
            report = select(ds, family, cfg, RngStream(3, i))
            assert law.epsilon_total[i] == report.epsilon_total
        assert (law.margin is None) == (algorithm == "pcls")
        # The ledger adds pcpl's two stages: 2 * epsilon, or inf.
        spend = 1.0 if algorithm == "pcls" else 2.0
        assert law.epsilon_total.tolist() == [spend * e for e in epsilons]


def _duplicate_column_dataset(seed, n=200):
    # Column 2 copies column 1, so masks that swap one copy for the other
    # tie exactly; with epsilon = inf the tie rule decides between them.
    rng = np.random.default_rng([31, seed])
    x = rng.uniform(-1, 1, (n, 5))
    x[:, 1] = x[:, 0]
    y = x @ np.array([0.9, 0.0, -0.6, 0.3, 0.0]) + rng.normal(0, 0.5, n)
    return Dataset(x, np.clip(y, -2, 2), 2.0)


class TestPrunedSelection:
    # A select settles only the fits its release can depend on.  Its
    # winner, released proxy and fallback flag must be those of fully
    # settled fits, and its debug scores must be theirs too.
    CASES = [
        (alg, mechanism, eps)
        for alg in ("pcls", "pcpl")
        for mechanism in ("noisy_argmin", "exponential")
        for eps in (0.5, 5.0, math.inf)
    ]

    @staticmethod
    def _datasets():
        for seed in range(4):
            yield _dataset(n=200, d=5, seed=seed, beta=(1.2, -0.8, 0.5, 0.0, 0.0))[0], 1.0
        for seed in range(3):
            yield _duplicate_column_dataset(seed), 0.8
        # n = 40: pcpl's stage 1 often falls back to a uniform pick.
        yield _dataset(n=40, d=5, seed=9, beta=(1.2, -0.8, 0.5, 0.0, 0.0))[0], 2.0

    @pytest.mark.parametrize("algorithm, mechanism, eps", CASES)
    def test_winner_equals_the_fully_settled_winner(self, algorithm, mechanism, eps):
        family = all_subsets(5)
        select = pcls_select if algorithm == "pcls" else pcpl_select
        budget = PrivacyBudget(eps, 1e-4 if algorithm == "pcpl" else 0.0)
        fallbacks = 0
        for ds, radius in self._datasets():
            cfg = SelectionConfig(radius=radius, penalty=2.0, budget=budget, mechanism=mechanism)
            fits = fit_masks(sufficient_stats(ds), family, radius)
            streams = list(range(12))
            full = _rows(algorithm, cfg, ds, fits, family, 99, streams)
            for i, sid in enumerate(streams):
                report = select(ds, family, cfg, RngStream(99, sid))
                assert report.chosen == family[full.winners[i]]
                assert report.fallback_uniform == full.fallback[i]
                if algorithm == "pcpl":
                    assert report.g_of_d == full.g_of_d[i]
                fallbacks += report.fallback_uniform
        assert (fallbacks > 0) == (algorithm == "pcpl" and math.isfinite(eps))

    @pytest.mark.parametrize("algorithm, mechanism, eps", CASES[::2])
    def test_debug_scores_equal_the_fully_settled_scores(self, algorithm, mechanism, eps):
        family = all_subsets(5)
        select = pcls_select if algorithm == "pcls" else pcpl_select
        budget = PrivacyBudget(eps, 1e-4 if algorithm == "pcpl" else 0.0)
        ds, _, _ = _dataset(n=200, d=5, seed=1, beta=(1.2, -0.8, 0.5, 0.0, 0.0))
        cfg = SelectionConfig(radius=1.0, penalty=2.0, budget=budget, mechanism=mechanism)
        fits = fit_masks(sufficient_stats(ds), family, 1.0)
        clean = _score_matrix(algorithm, fits.neg2_loglik, ds.n, [cfg.penalty], family.sizes)
        for sid in range(3):
            full = _rows(algorithm, cfg, ds, fits, family, 5, [sid])
            report = select(ds, family, cfg, RngStream(5, sid))
            assert np.array_equal(report.clean_scores, clean[0])
            assert report.fallback_uniform == full.fallback[0]
            if mechanism == "exponential" or report.fallback_uniform:
                assert report.noisy_scores is None
            else:
                assert np.array_equal(report.noisy_scores, _noisy(full, clean)[0])
                assert report.chosen == family[int(np.argmin(report.noisy_scores))]

    @pytest.mark.parametrize("d", [10, 12])
    def test_default_select_settles_few_binding_masks(self, monkeypatch, d):
        # Of the 1,023 masks at d = 10 (and 4,095 at d = 12), hundreds
        # bind at R = 0.5 and need more than the exact solve; a default
        # release settles only the ones that could still win, besides the
        # d + 1 supersets that bound the others at d = 12.
        from dpms import solver

        settled = []
        settle = solver._settle

        def counted(a, yty, member, *rest):
            settled.append(len(member))
            return settle(a, yty, member, *rest)

        ds, _, _ = _dataset(n=300, d=d, beta=(0.9, -0.7) + (0.0,) * (d - 2))
        family = all_subsets(d)
        monkeypatch.setattr(solver, "_settle", counted)
        fit_masks(sufficient_stats(ds), family, 0.5)
        assert settled == [settled[0]] and settled[0] > 300
        cfg = SelectionConfig(radius=0.5, penalty=3.0, budget=PrivacyBudget(1.0))
        for sid in range(5):
            settled.clear()
            json.loads(pcls_select(ds, family, cfg, RngStream(6, sid)).to_json())
            assert sum(settled) < 10 + (d + 1)

    @pytest.mark.parametrize("mechanism", ["noisy_argmin", "exponential"])
    def test_pcpl_computes_the_family_objective_once(self, monkeypatch, mechanism):
        # pcpl's proxy reads the smallest loss bit for bit, which only the
        # fully settled family gives; no bound computed on the way may
        # evaluate the whole family's objective a second time.
        from dpms import solver

        family = all_subsets(5)
        calls = []
        objective = solver._objective

        def counted(yty, a, member, *rest):
            calls.append(len(member))
            return objective(yty, a, member, *rest)

        monkeypatch.setattr(solver, "_objective", counted)
        cfg = SelectionConfig(radius=1.0, penalty=2.0, budget=PrivacyBudget(1.0, 1e-4),
                              mechanism=mechanism)
        for seed in range(3):
            ds, _, _ = _dataset(n=200, d=5, seed=seed, beta=(1.2, -0.8, 0.5, 0.0, 0.0))
            calls.clear()
            pcpl_select(ds, family, cfg, RngStream(8, seed))
            assert calls.count(len(family)) == 1

    @staticmethod
    def _first_passed(monkeypatch) -> list:
        """Records the membership of every batch that ``_masked_solve``
        gets outside the settle step (the lasso path's solves)."""
        from dpms import solver

        batches, settling = [], []
        masked_solve, settle = solver._masked_solve, solver._settle

        def counted_solve(a, member, rhs):
            if not settling:
                batches.append(member)
            return masked_solve(a, member, rhs)

        def flagged_settle(*args):
            settling.append(True)
            try:
                return settle(*args)
            finally:
                settling.pop()

        monkeypatch.setattr(solver, "_masked_solve", counted_solve)
        monkeypatch.setattr(solver, "_settle", flagged_settle)
        return batches

    def test_default_select_solves_few_masks(self, monkeypatch):
        # At d = 12 a default release solves the masks whose lower key can
        # reach the winner, and the d + 1 supersets that bound the others:
        # under 5% of the family's exact solves.
        ds, _, _ = _dataset(n=300, d=12, beta=(0.9, -0.7) + (0.0,) * 10)
        family = all_subsets(12)
        batches = self._first_passed(monkeypatch)
        cfg = SelectionConfig(radius=0.5, penalty=3.0, budget=PrivacyBudget(1.0))
        for sid in range(5):
            batches.clear()
            json.loads(pcls_select(ds, family, cfg, RngStream(6, sid)).to_json())
            assert 0 < sum(map(len, batches)) < 0.05 * len(family)

    def test_size_capped_select_solves_the_family_not_its_supersets(self, monkeypatch):
        # The 78 masks of size <= 2 at d = 12 cost less to solve than the
        # gap bounds of the 13 supersets of 11 and 12 columns: a select
        # first-passes the family as one batch and solves no superset.
        ds, _, _ = _dataset(n=300, d=12, beta=(0.9, -0.7) + (0.0,) * 10)
        family = all_subsets(12, max_size=2)
        batches = self._first_passed(monkeypatch)
        cfg = SelectionConfig(radius=0.5, penalty=3.0, budget=PrivacyBudget(1.0))
        for sid in range(3):
            batches.clear()
            json.loads(pcls_select(ds, family, cfg, RngStream(6, sid)).to_json())
            assert [len(member) for member in batches] == [len(family)]
            assert batches[0].sum(axis=1).max() == 2


def _corner_dataset(seed, n=200, corners=8):
    """A bounded dataset whose first rows sit on corners: x in {-1, 1}^d,
    y = +-r, the rows that move a loss the most."""
    rng = np.random.default_rng([47, seed])
    x = rng.uniform(-1, 1, (n, 5))
    y = np.clip(x @ np.array([1.1, -0.6, 0.0, 0.4, 0.0]) + rng.normal(0, 0.5, n), -2.5, 2.5)
    x[:corners] = rng.choice([-1.0, 1.0], (corners, 5))
    y[:corners] = rng.choice([-2.5, 2.5], corners)
    return Dataset(x, y, 2.5)


class TestSupersetBounds:
    # An unsolved mask's lower bound comes from the fits of the supersets
    # {all columns} and {all but column j}.  It must hold every certified
    # loss, and a select must release what fully settled fits give, on
    # either route: superset bounds or one first pass over the family.
    FAMILIES = [all_subsets(5), all_subsets(5, max_size=2)]

    @staticmethod
    def _bounds(stats, family, radius, supersets, settled=None):
        # The route given; the supersets settled or not as given (through a
        # patched _ill_conditioned), or as the solver reads it off the data.
        from dpms import solver
        from dpms.data import member_matrix

        bounds = solver.LossBounds(stats, member_matrix(family.bits, family.d), radius,
                                   solver._scale(stats, radius), supersets)
        with pytest.MonkeyPatch.context() as patch:
            if settled is not None:
                patch.setattr(solver, "_ill_conditioned", lambda stats: settled)
            bounds.lower
        return bounds

    @staticmethod
    def _datasets():
        for seed in range(2):
            yield _dataset(n=200, d=5, seed=seed, beta=(1.2, -0.8, 0.5, 0.0, 0.0))[0]
            yield _corner_dataset(seed)
            yield _duplicate_column_dataset(seed)

    @pytest.mark.parametrize("radius", [0.3, 6.0])
    def test_every_certified_loss_is_above_its_superset_bound(self, radius):
        binding = 0
        for ds in self._datasets():
            stats = sufficient_stats(ds)
            for family in self.FAMILIES:
                lower = self._bounds(stats, family, radius, supersets=True).lower
                fits = fit_masks(stats, family, radius)
                assert np.all(fits.neg2_loglik >= lower)
                binding += int((np.abs(fits.beta).sum(axis=1) > radius * (1 - 1e-9)).sum())
        # R = 0.3 binds most masks, and R = 6 leaves them slack.
        assert (binding > 100) == (radius < 1.0)

    @pytest.mark.parametrize("mechanism", ["noisy_argmin", "exponential"])
    @pytest.mark.parametrize("eps", [1.0, math.inf])
    @pytest.mark.parametrize("radius", [0.3, 6.0])
    def test_winner_equals_the_fully_settled_winner(self, mechanism, eps, radius):
        from dpms.selection import _pcls_with_fits

        budget = PrivacyBudget(eps)
        cfg = SelectionConfig(radius=radius, penalty=1.0, budget=budget, mechanism=mechanism)
        streams = list(range(6))
        for ds in self._datasets():
            stats = sufficient_stats(ds)
            for family in self.FAMILIES:
                fits = fit_masks(stats, family, radius)
                full = _rows("pcls", cfg, ds, fits, family, 23, streams)
                for i, sid in enumerate(streams):
                    assert pcls_select(ds, family, cfg, RngStream(23, sid)).chosen == (
                        family[full.winners[i]])
                    for supersets, settled in ((True, False), (True, True), (False, False)):
                        bounds = self._bounds(stats, family, radius, supersets, settled)
                        report = _pcls_with_fits(ds, family, bounds, cfg, RngStream(23, sid))
                        assert report.chosen == family[full.winners[i]]

    @pytest.mark.parametrize("design", ["signal", "onehot", "loose-onehot", "near-onehot"])
    @pytest.mark.parametrize("radius", [0.5, 2.5])
    def test_bounds_before_and_after_the_settle_hold_every_certified_loss(self, design, radius):
        # A binding superset is bounded by its gap at its projected start
        # and at one KKT candidate or, when the supersets are settled with
        # the bounds, at its settled fit too; where X'X is ill-conditioned
        # (the one-hot design is singular), the solver settles them.  Here
        # each design is bounded both ways.  Both bounds hold every
        # certified loss, and a select on either releases the fully
        # settled winner.
        from dpms.selection import _pcls_with_fits
        from dpms.solver import _ill_conditioned

        family = all_subsets(9)
        cfg = SelectionConfig(radius=radius, penalty=2.0, budget=PrivacyBudget(1.0))
        streams = list(range(4))
        narrowed = 0
        for seed in range(3):
            ds = _design(design, seed)
            stats = sufficient_stats(ds)
            assert _ill_conditioned(stats) == (design in ("onehot", "near-onehot"))
            fits = fit_masks(stats, family, radius)
            before = self._bounds(stats, family, radius, supersets=True, settled=False).lower
            after = self._bounds(stats, family, radius, supersets=True, settled=True).lower
            assert np.all(before <= fits.neg2_loglik) and np.all(after <= fits.neg2_loglik)
            narrowed += int(np.any(after > before))
            full = _rows("pcls", cfg, ds, fits, family, 29, streams)
            for i, sid in enumerate(streams):
                for settled in (False, True):
                    bounds = self._bounds(stats, family, radius, supersets=True, settled=settled)
                    report = _pcls_with_fits(ds, family, bounds, cfg, RngStream(29, sid))
                    assert report.chosen == family[full.winners[i]]
        # The gap bounds are loose on the loosely collinear design, and the
        # settle narrows them.
        assert narrowed > 0 or design != "loose-onehot"

    def test_a_select_settles_no_superset_after_its_bounds(self, monkeypatch):
        # On the loosely collinear design the gap bounds of the supersets
        # are loose and leave a select many masks to solve.  Still no
        # superset is settled once the bounds are built: only the family's
        # own rows are, and the winner is that of fully settled fits.
        from dpms import solver

        family = all_subsets(9)
        late, state = [], {"bounded": False, "family": 0}
        settle = solver._settle
        superset_lower, own_settle = solver.LossBounds._superset_lower, solver.LossBounds._settle

        def bounded(self):
            lower = superset_lower(self)
            state["bounded"] = True
            return lower

        def family_settle(self, rows):
            state["family"] += 1
            try:
                return own_settle(self, rows)
            finally:
                state["family"] -= 1

        def counted(a, yty, member, *rest):
            if state["bounded"] and not state["family"]:
                late.append(len(member))
            return settle(a, yty, member, *rest)

        monkeypatch.setattr(solver, "_settle", counted)
        monkeypatch.setattr(solver.LossBounds, "_superset_lower", bounded)
        monkeypatch.setattr(solver.LossBounds, "_settle", family_settle)
        streams = list(range(8))
        cfg = SelectionConfig(radius=2.5, penalty=2.0, budget=PrivacyBudget(1.0))
        for seed in range(3):
            ds = _design("loose-onehot", seed, n=1000)
            stats = sufficient_stats(ds)
            fits = fit_masks(stats, family, 2.5)
            full = _rows("pcls", cfg, ds, fits, family, 41, streams)
            bounds = solver.bound_masks(stats, family, 2.5)
            assert bounds._supersets and not solver._ill_conditioned(stats)
            for i, sid in enumerate(streams):
                state["bounded"] = False
                report = pcls_select(ds, family, cfg, RngStream(41, sid))
                assert state["bounded"]
                assert report.chosen == family[full.winners[i]]
        assert late == []

    @pytest.mark.parametrize("design, mechanism", [
        ("onehot", "noisy_argmin"), ("near-onehot", "noisy_argmin"), ("signal", "exponential"),
        ("onehot", "exponential"),
    ])
    def test_supersets_settle_at_once_where_most_selects_would_settle_them(
        self, design, mechanism, monkeypatch
    ):
        # Where X'X is ill-conditioned (the one-hot design is singular),
        # the gap bounds stay loose and a select on them alone would
        # first-pass many masks, so the supersets are settled with the
        # bounds, in one batch, whichever mechanism releases.  The rule
        # reads the data only: on the well-conditioned design the
        # exponential mechanism's select settles no superset.  Settled
        # supersets cost their lasso path, and bound a family only above
        # 40 unknowns per superset unknown.
        from dpms import solver

        settles, bounding = [], []
        settle, superset_lower = solver._settle, solver.LossBounds._superset_lower

        def flagged(self):
            bounding.append(True)
            try:
                return superset_lower(self)
            finally:
                bounding.pop()

        def counted(a, yty, member, *rest):
            if bounding:
                settles.append(len(member))
            return settle(a, yty, member, *rest)

        monkeypatch.setattr(solver, "_settle", counted)
        monkeypatch.setattr(solver.LossBounds, "_superset_lower", flagged)
        family = all_subsets(10)
        cfg = SelectionConfig(radius=2.5, penalty=2.0, budget=PrivacyBudget(1.0),
                              mechanism=mechanism)
        settled = design != "signal"
        for seed in range(2):
            ds = _design(design, seed, d=10, n=1000)
            stats = sufficient_stats(ds)
            assert solver._ill_conditioned(stats) == settled
            assert solver.bound_masks(stats, family, 2.5)._supersets
            # 23 unknowns per superset unknown: supersets on their gap
            # bounds bound this family, settled ones do not.
            capped = all_subsets(10, max_size=5)
            assert solver.bound_masks(stats, capped, 2.5)._supersets == (not settled)
            fits = fit_masks(stats, family, 2.5)
            full = _rows("pcls", cfg, ds, fits, family, 43, list(range(6)))
            for sid in range(6):
                settles.clear()
                assert pcls_select(ds, family, cfg, RngStream(43, sid)).chosen == (
                    family[full.winners[sid]])
                # One batch of binding supersets, or none.
                assert len(settles) == settled and all(settles)

    def test_a_failed_superset_settle_keeps_the_start_bounds(self, monkeypatch):
        # Where X'X is ill-conditioned a select settles the binding
        # supersets with their bounds; the rule is forced here on a
        # well-conditioned design.  When that settle raises SolverError,
        # each superset keeps the gap bound at its projected start, and the
        # release is still the one that fully settled fits give.
        from dpms import solver

        family = all_subsets(10)
        cfg = SelectionConfig(radius=2.5, penalty=2.0, budget=PrivacyBudget(1.0),
                              mechanism="exponential")
        ds = _design("signal", 0, d=10, n=1000)
        fits = fit_masks(sufficient_stats(ds), family, 2.5)
        full = _rows("pcls", cfg, ds, fits, family, 43, list(range(6)))
        raised, bounding = [], []
        settle, superset_lower = solver._settle, solver.LossBounds._superset_lower

        def flagged(self):
            bounding.append(True)
            try:
                return superset_lower(self)
            finally:
                bounding.pop()

        def failing(*args):
            if bounding and not raised:
                raised.append(len(args[2]))
                raise SolverError("a superset settle that fails")
            return settle(*args)

        monkeypatch.setattr(solver, "_settle", failing)
        monkeypatch.setattr(solver.LossBounds, "_superset_lower", flagged)
        monkeypatch.setattr(solver, "_ill_conditioned", lambda stats: True)
        for sid in range(6):
            raised.clear()
            report = pcls_select(ds, family, cfg, RngStream(43, sid))
            assert len(raised) == 1 and raised[0] > 0
            assert report.chosen == family[full.winners[sid]]

    def test_a_default_d12_select_runs_no_lasso_path_for_the_supersets(self, monkeypatch):
        # On the benchmark's design the gap bounds at the projected starts
        # and their KKT candidates decide the release: no superset follows
        # the lasso path.
        from dpms import solver

        paths, bounding = [], []
        homotopy, superset_lower = solver._homotopy, solver.LossBounds._superset_lower

        def flagged(method):
            def wrapper(self):
                bounding.append(True)
                try:
                    return method(self)
                finally:
                    bounding.pop()
            return wrapper

        def counted(*args):
            if bounding:
                paths.append(len(args[1]))
            return homotopy(*args)

        monkeypatch.setattr(solver, "_homotopy", counted)
        monkeypatch.setattr(solver.LossBounds, "_superset_lower", flagged(superset_lower))
        family = all_subsets(12)
        cfg = SelectionConfig(radius=2.5, penalty=50.0, budget=PrivacyBudget(1.0))
        for seed in range(4):
            ds = _design("signal", seed, d=12, n=1000)
            assert solver.bound_masks(sufficient_stats(ds), family, 2.5)._supersets
            for sid in range(5):
                pcls_select(ds, family, cfg, RngStream(7, 20 * seed + sid))
        assert paths == []


def _design(name, seed, d=9, n=300):
    """An intercept beside uniform covariates, with y = 1.5 x1 + x2 + 0.5 x3
    + N(0, 1) clipped to r = 4, as in the select benchmark ("signal").
    "onehot" adds a full one-hot set of 4 levels, collinear with the
    intercept; "near-onehot" scales each row's one-hot entry by 1 - u/100,
    u uniform, so X'X is nonsingular but ill-conditioned (a condition
    number near 10^6), and "loose-onehot" by 1 - u/2 (near 250)."""
    rng = np.random.default_rng([53, seed])
    x = rng.uniform(-1, 1, (n, d - 1 if name == "signal" else d - 5))
    y = x[:, :3] @ np.array([1.5, 1.0, 0.5]) + rng.normal(0, 1, n)
    columns = [np.ones(n), x]
    if name != "signal":
        level = rng.integers(0, 4, n)
        y = y + np.linspace(-0.6, 0.6, 4)[level]
        onehot = np.eye(4)[level]
        if name != "onehot":
            onehot *= 1.0 - (0.01 if name == "near-onehot" else 0.5) * rng.uniform(0, 1, (n, 1))
        columns.append(onehot)
    return Dataset(np.column_stack(columns), np.clip(y, -4, 4), 4.0)
