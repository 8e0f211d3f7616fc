"""Selection paths: scoring, budgets, sensitivity proxy, serialization."""

import json
import math

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
    all_subsets,
    exponential_mechanism,
    fit_masks,
    from_explicit,
    ls_sensitivity,
    noisy_argmin,
    pcls_select,
    pcpl_select,
    sample_laplace,
    sufficient_stats,
)
from dpms.mechanisms import _uniform_rows
from dpms.selection import _profile_sensitivity_value, _score_matrix, _select_rows


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


class TestLsSensitivity:
    def test_frozen_value(self):
        assert ls_sensitivity(2.0, 1.0) == 9.0

    def test_grows_with_both_arguments(self):
        assert ls_sensitivity(3.0, 1.0) > ls_sensitivity(2.0, 1.0)
        assert ls_sensitivity(2.0, 2.0) > ls_sensitivity(2.0, 1.0)

    def test_validation(self):
        with pytest.raises(ConfigError):
            ls_sensitivity(0.0, 1.0)
        with pytest.raises(ConfigError):
            ls_sensitivity(1.0, math.inf)


class TestProfileSensitivityValue:
    def test_worked_example(self):
        # Independent recomputation: n=100, min loss 100, r=2, R=1,
        # stage epsilon 1, delta 0.05, zero noise draw.  The width is 9,
        # the margin log(1/(2 delta)) = log(10), so the value must be
        # 900 / (91 - 9 ln 10).
        got = _profile_sensitivity_value(100.0, 100, 2.0, 1.0, 1.0, 0.05, 0.0)
        oracle = 900.0 / (91.0 - 9.0 * math.log(10.0))
        assert got == pytest.approx(oracle, rel=1e-12)
        assert got == pytest.approx(12.8065, abs=5e-4)

    def test_sentinel_on_small_loss(self):
        # Fit too good: denominator dies, sentinel comes back.
        assert math.isinf(_profile_sensitivity_value(5.0, 100, 2.0, 1.0, 1.0, 0.05, 0.0))

    def test_monotone_in_min_loss(self):
        values = [
            _profile_sensitivity_value(loss, 100, 2.0, 1.0, 1.0, 0.05, 0.0)
            for loss in (80.0, 120.0, 200.0)
        ]
        assert values[0] > values[1] > values[2] > 0

    def test_noise_draw_shifts_value(self):
        lo = _profile_sensitivity_value(100.0, 100, 2.0, 1.0, 1.0, 0.05, -1.0)
        hi = _profile_sensitivity_value(100.0, 100, 2.0, 1.0, 1.0, 0.05, +1.0)
        # A larger draw inflates the denominator and so shrinks the bound.
        assert hi < lo

    def test_infinite_stage_epsilon_drops_noise_term(self):
        exact = _profile_sensitivity_value(100.0, 100, 2.0, 1.0, math.inf, 0.05, 123.0)
        assert exact == pytest.approx(100 * 9.0 / (100.0 - 9.0), rel=1e-12)


class TestSelectionConfig:
    def test_rejects_wrong_types(self):
        # A float budget used to be accepted and pcls_select then raised a
        # bare AttributeError; a string radius and a None penalty raised a
        # bare TypeError.
        base = dict(radius=2.0, penalty=1.0, budget=PrivacyBudget(1.0))
        for field, value in (("budget", 1.0), ("radius", "2"), ("penalty", None),
                             ("stage1_fraction", "0.5")):
            with pytest.raises(ConfigError, match=field):
                SelectionConfig(**{**base, field: value})
        assert SelectionConfig(radius=2, penalty=np.float64(0.0), budget=PrivacyBudget(1)).radius == 2


class TestComputeGofD:
    def test_matches_manual_replay(self):
        # pcpl's released proxy; stage 1 spends 2 * 1.0 * 0.5 = 1.0.  The
        # small sample's proxy is degenerate, the large one's finite.

        for n, noise in ((300, 0.4), (2000, 1.0)):
            ds, x, y = _dataset(n=n, seed=3, noise=noise)
            models = all_subsets(4)
            cfg = SelectionConfig(radius=1.5, penalty=0.0, budget=PrivacyBudget(1.0, 1e-4))
            got = pcpl_select(ds, models, cfg, RngStream(42, 7)).g_of_d

            fits = fit_masks(sufficient_stats(ds), models, 1.5)
            min_loss = min(f.neg2_loglik for f in fits)
            z = sample_laplace(RngStream(42, 7), 1.0)
            width = (ds.response_bound + 1.5) ** 2
            denom = min_loss - width + width * (z - math.log(1.0 / (2.0 * 1e-4))) / 1.0
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
        clean = _score_matrix("pcpl", fits, n, [1.0], models.sizes)
        min_loss = float(fits.neg2_loglik.min())
        width = (1.0 + radius) ** 2
        seed, streams = 2**100 + 3, [2**63 + 7 * i for i in range(1200)]
        block = np.broadcast_to(clean, (len(streams), len(models)))
        for mechanism in ("noisy_argmin", "exponential"):
            # Stage 1 and stage 2 each spend 2 * 1.0 * 0.5 = 1.0.
            budget = PrivacyBudget(1.0, delta)
            cfg = SelectionConfig(radius=radius, penalty=1.0, budget=budget, mechanism=mechanism)
            picks = _select_rows("pcpl", fits, block, 1.0, n, cfg, models, seed, streams)
            assert 0 < picks.fallback.sum() < len(streams)
            for i, sid in enumerate(streams):
                stream = RngStream(seed, sid)
                z = sample_laplace(stream, 1.0)
                denom = min_loss - width + width * (z - math.log(1.0 / (2.0 * delta))) / 1.0
                proxy = n * width / denom if denom > 0 else math.inf
                assert picks.g_of_d[i] == proxy
                assert picks.fallback[i] == math.isinf(proxy)
                if math.isinf(proxy):
                    assert picks.winners[i] == _uniform_rows(seed, [sid], len(models))[0]
                    if mechanism == "noisy_argmin":
                        assert np.isnan(picks.noisy[i]).all()
                elif mechanism == "noisy_argmin":
                    scale = 2.0 * proxy / 1.0
                    cands = [ScoredCandidate(m, c, scale) for m, c in zip(models, clean[0])]
                    chosen, noisy = noisy_argmin(cands, PrivacyBudget(1.0), stream)
                    assert models[picks.winners[i]] == chosen
                    assert np.array_equal(picks.noisy[i], noisy)
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
        clean = _score_matrix("pcls", fits, ds.n, [cfg.penalty], models.sizes)
        picks = _select_rows(
            "pcls", fits, np.broadcast_to(clean, (trials, len(models))), ds.response_bound,
            ds.n, cfg, models, 77, range(trials),
        )
        for i in (0, 1, 1234, trials - 1):
            report = pcls_select(ds, models, cfg, RngStream(77, i))
            assert np.array_equal(report.clean_scores, clean[0])
            assert np.array_equal(report.noisy_scores, picks.noisy[i])
            assert report.chosen == models[picks.winners[i]]
        residuals = (picks.noisy - clean).ravel()
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

    def test_stage_fraction_changes_release(self):
        ds, _, _ = _dataset(n=2000, seed=6, noise=1.0)
        base = dict(radius=2.0, penalty=5.0, budget=PrivacyBudget(1.0, 1e-6))
        half = pcpl_select(ds, all_subsets(4), SelectionConfig(**base), RngStream(8, 8))
        lop = pcpl_select(
            ds, all_subsets(4), SelectionConfig(**base, stage1_fraction=0.9), RngStream(8, 8)
        )
        assert half.g_of_d != lop.g_of_d

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
            "r_data_dependent", "seed", "mechanism", "fallback_uniform", "models",
        ]
        assert doc["seed"] == [12, 34]
        assert doc["R"] == 2.0 and doc["phi_n"] == 1.5
        assert doc["r_data_dependent"] is True
        assert len(doc["models"]) == 15
        assert all(set(m) == {"mask", "noisy_score"} for m in doc["models"])

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
# of a report.
REPORT_SHA256 = {
    "pcls-all": "b3933c71a48872d28d3f35177dec9a5f352aa9d7da092171ff3228677446c0fa",
    "pcls-reversed": "b59c9b3d78ca5d5e6faaa06cdd4817a3ec469f43b11de50af2c13bb79fd63609",
    "pcpl-exponential": "6cce1f26e8d118c83447e8530c73738d1de377b7925864811c50e0febeb58162",
}


class TestReportDigests:
    @pytest.mark.parametrize("case", sorted(REPORT_SHA256))
    def test_report_digest_is_pinned(self, case):
        import hashlib

        ds, _, _ = _dataset(n=200, seed=5, noise=1.0)
        family = all_subsets(4)
        if case == "pcls-reversed":
            family = from_explicit([m.indices() for m in reversed(list(family))], 4)
        if case.startswith("pcls"):
            select = pcls_select
            cfg = SelectionConfig(radius=2.0, penalty=3.0, budget=PrivacyBudget(1.0))
        else:
            select = pcpl_select
            cfg = SelectionConfig(
                radius=1.0, penalty=3.0, budget=PrivacyBudget(5.0, 1e-3),
                mechanism="exponential",
            )
        report = select(ds, family, cfg, RngStream(3, 1))
        text = report.to_json(include_clean_scores=True)
        assert hashlib.sha256(text.encode("utf-8")).hexdigest() == REPORT_SHA256[case]
