"""Synthetic data generation and the Monte Carlo sweep harness."""

import concurrent.futures
import hashlib
import json
import math
import operator
import sys
from dataclasses import replace
from itertools import product

import numpy as np
import pytest

from dpms import (
    BUILTIN_MODELS,
    ConfigError,
    ModelMask,
    PrivacyBudget,
    RngStream,
    SelectionConfig,
    SweepGrid,
    SyntheticSpec,
    all_subsets,
    default_phi_grid,
    generate,
    pcls_select,
    pcpl_select,
    run_sweep,
)
from dpms import simulate
from dpms.selection import _calibration
from dpms.simulate import CSV_COLUMNS, _stream_id


def _template(n=100, coeffs=None, seed=7, sigma=1.0):
    return SyntheticSpec(
        n=n,
        coefficients=coeffs or BUILTIN_MODELS["1"],
        rng=RngStream(seed, 0),
        noise_sd=sigma,
    )


class TestSyntheticSpec:
    def test_builtin_model_vectors(self):
        assert BUILTIN_MODELS["1"] == (1.0, 1.0, 1.0, 0.0, 0.0, 0.0)
        assert BUILTIN_MODELS["2"] == (1.5, 1.0, 0.5, 0.0, 0.0, 0.0)

    def test_validation(self):
        with pytest.raises(ConfigError):
            SyntheticSpec(n=0, coefficients=(1.0,), rng=RngStream(0, 0))
        with pytest.raises(ConfigError):
            SyntheticSpec(n=5, coefficients=(), rng=RngStream(0, 0))
        with pytest.raises(ConfigError):
            SyntheticSpec(n=5, coefficients=(math.nan,), rng=RngStream(0, 0))
        with pytest.raises(ConfigError):
            SyntheticSpec(n=5, coefficients=(1.0,), rng=RngStream(0, 0), noise_sd=-1.0)

    def test_fractional_n_rejected(self):
        # 100.5 used to be accepted, and generate then died with a bare
        # numpy TypeError; True passed as n = 1.
        for n in (100.5, True):
            with pytest.raises(ConfigError, match="n must be an integer"):
                SyntheticSpec(n=n, coefficients=(1.0,), rng=RngStream(0, 0))
        spec = SyntheticSpec(n=np.int64(5), coefficients=(1.0,), rng=RngStream(0, 0))
        assert type(spec.n) is int and generate(spec)[0].n == 5

    @pytest.mark.parametrize(
        "field,value",
        [("noise_sd", "1"), ("coefficients", ("a",)), ("coefficients", (True,))],
    )
    def test_non_real_values_are_config_errors(self, field, value):
        # A string used to raise a bare numpy TypeError or a ValueError,
        # and True passed as the coefficient 1.0.
        kwargs = dict(n=5, coefficients=(1.0,), rng=RngStream(0, 0))
        kwargs[field] = value
        with pytest.raises(ConfigError, match=f"{field} must be a real number"):
            SyntheticSpec(**kwargs)

    @pytest.mark.parametrize("value", (5, 1.5, "15"))
    def test_scalar_coefficients_are_config_errors(self, value):
        # A scalar used to raise a bare TypeError ("not iterable").
        with pytest.raises(ConfigError, match="coefficients must be a sequence"):
            SyntheticSpec(n=5, coefficients=value, rng=RngStream(0, 0))


class TestGenerate:
    def test_shapes_bounds_and_truth(self):
        ds, truth = generate(_template(n=200))
        assert ds.n == 200 and ds.d == 6
        assert np.all(np.abs(ds.x) <= 1.0)
        assert truth == ModelMask.from_indices([1, 2, 3], 6)
        assert ds.bound_is_data_dependent
        assert ds.response_bound == np.max(np.abs(ds.y))

    def test_replay_is_exact(self):
        a, _ = generate(_template())
        b, _ = generate(_template())
        assert np.array_equal(a.x, b.x)
        assert np.array_equal(a.y, b.y)

    def test_streams_are_independent(self):
        spec_a = SyntheticSpec(n=50, coefficients=(1.0, 0.0), rng=RngStream(3, 0))
        spec_b = SyntheticSpec(n=50, coefficients=(1.0, 0.0), rng=RngStream(3, 1))
        a, _ = generate(spec_a)
        b, _ = generate(spec_b)
        assert not np.array_equal(a.x, b.x)

    def test_zero_noise_is_exact_linear_response(self):
        ds, _ = generate(_template(n=40, sigma=0.0))
        beta = np.asarray(BUILTIN_MODELS["1"])
        assert np.allclose(ds.y, ds.x @ beta, atol=1e-12)

    def test_all_zero_coefficients_give_empty_truth(self):
        spec = SyntheticSpec(n=20, coefficients=(0.0, 0.0), rng=RngStream(1, 0))
        _, truth = generate(spec)
        assert truth == ModelMask.empty(2)


class TestDefaultPhiGrid:
    def test_structure(self):
        grid = default_phi_grid(1000)
        assert len(grid) == 41
        assert grid[0] == 0.0
        assert grid[1] == pytest.approx(10.0)       # 0.01 * n
        assert grid[-1] == pytest.approx(500.0)     # 0.5 * n
        assert all(a < b for a, b in zip(grid[1:], grid[2:]))

    def test_scales_with_n(self):
        assert default_phi_grid(100)[1] == pytest.approx(1.0)


class TestSweepGrid:
    def test_duplicate_values_warn_and_collapse(self):
        with pytest.warns(UserWarning, match="duplicate"):
            grid = SweepGrid(
                n_values=(100, 100), radius_values=(1.0,), epsilon_values=(1.0,)
            )
        assert grid.n_values == (100,)

    def test_delta_rules_per_algorithm(self):
        with pytest.raises(ConfigError, match="pure"):
            SweepGrid(
                n_values=(50,), radius_values=(1.0,), epsilon_values=(1.0,),
                delta_values=(0.1,), algorithm="pcls",
            )
        with pytest.raises(ConfigError, match="inside"):
            SweepGrid(
                n_values=(50,), radius_values=(1.0,), epsilon_values=(1.0,),
                delta_values=(0.0,), algorithm="pcpl",
            )

    def test_pcpl_epsilon_whose_double_overflows_is_rejected(self):
        # pcpl spends 2 * epsilon; 1e308 used to be accepted, and its cells
        # released under NaN keys.
        with pytest.raises(ConfigError, match="overflows"):
            SweepGrid(
                n_values=(50,), radius_values=(1.0,), epsilon_values=(1.0, 1e308),
                delta_values=(1e-6,), algorithm="pcpl",
            )
        top = sys.float_info.max / 2
        for algorithm, epsilon, delta in (("pcpl", top, 1e-6), ("pcls", 1e308, 0.0)):
            grid = SweepGrid(
                n_values=(50,), radius_values=(1.0,), epsilon_values=(epsilon,),
                delta_values=(delta,), algorithm=algorithm,
            )
            assert grid.epsilon_values == (epsilon,)

    def test_basic_validation(self):
        with pytest.raises(ConfigError):
            SweepGrid(n_values=(), radius_values=(1.0,), epsilon_values=(1.0,))
        with pytest.raises(ConfigError):
            SweepGrid(n_values=(100,), radius_values=(-1.0,), epsilon_values=(1.0,))
        with pytest.raises(ConfigError):
            SweepGrid(n_values=(100,), radius_values=(1.0,), epsilon_values=(0.0,))
        with pytest.raises(ConfigError):
            SweepGrid(
                n_values=(100,), radius_values=(1.0,), epsilon_values=(1.0,),
                replications=0,
            )
        with pytest.raises(ConfigError):
            SweepGrid(
                n_values=(100,), radius_values=(1.0,), epsilon_values=(1.0,),
                algorithm="stepwise",
            )

    @pytest.mark.parametrize("field, values, message", [
        ("phi_values", (1.0, -0.5), "phi values must be nonnegative and finite"),
        ("phi_values", (math.inf,), "phi values must be nonnegative and finite"),
        ("phi_values", (math.nan,), "phi values must be nonnegative and finite"),
        ("n_values", (100, 0), "n values must be at least 1"),
        ("n_values", (-3,), "n values must be at least 1"),
    ])
    def test_rejects_a_negative_phi_or_an_n_below_one(self, field, values, message):
        base = dict(n_values=(100,), radius_values=(1.0,), epsilon_values=(1.0,))
        with pytest.raises(ConfigError, match=message):
            SweepGrid(**{**base, field: values})

    def test_fractional_replications_rejected(self):
        # 2.5 used to run two replications and divide the counts by 2.5,
        # so an infinite budget reported prop_agree = 0.8.
        with pytest.raises(ConfigError, match="replications"):
            SweepGrid(
                n_values=(100,), radius_values=(1.0,), epsilon_values=(1.0,),
                replications=2.5,
            )
        grid = SweepGrid(
            n_values=(100,), radius_values=(1.0,), epsilon_values=(1.0,),
            replications=np.int64(3),
        )
        assert type(grid.replications) is int and grid.replications == 3

    def test_fractional_n_rejected(self):
        # 100.7 used to be truncated to 100 without a word.
        with pytest.raises(ConfigError, match="n must be an integer"):
            SweepGrid(n_values=(100.7,), radius_values=(1.0,), epsilon_values=(1.0,))
        grid = SweepGrid(n_values=(np.int64(100),), radius_values=(1.0,), epsilon_values=(1.0,))
        assert grid.n_values == (100,) and type(grid.n_values[0]) is int

    @pytest.mark.parametrize(
        "axis,value",
        [("radius", "abc"), ("radius", True), ("delta", "x"), ("epsilon", None), ("phi", [1])],
    )
    def test_non_real_axis_values_are_config_errors(self, axis, value):
        # These used to raise a bare ValueError or TypeError, and True
        # passed as the radius 1.0 (SelectionConfig rejects it).
        kwargs = dict(n_values=(100,), radius_values=(1.0,), epsilon_values=(1.0,))
        kwargs[f"{axis}_values"] = (value,)
        with pytest.raises(ConfigError, match=f"{axis} must be a real number"):
            SweepGrid(**kwargs)

    @pytest.mark.parametrize(
        "field,value",
        [("n_values", 100), ("radius_values", 1.0), ("epsilon_values", 1.0),
         ("delta_values", 0.0), ("phi_values", 2.0), ("radius_values", "1.0")],
    )
    def test_scalar_axes_are_config_errors(self, field, value):
        # A scalar used to raise a bare TypeError ("not iterable").
        kwargs = dict(n_values=(100,), radius_values=(1.0,), epsilon_values=(1.0,))
        kwargs[field] = value
        with pytest.raises(ConfigError, match=f"{field} must be a sequence"):
            SweepGrid(**kwargs)

    def test_phi_default_depends_on_n(self):
        grid = SweepGrid(n_values=(100, 1000), radius_values=(1.0,), epsilon_values=(1.0,))
        assert grid.phis_for(100)[1] == pytest.approx(1.0)
        assert grid.phis_for(1000)[1] == pytest.approx(10.0)
        explicit = SweepGrid(
            n_values=(100,), radius_values=(1.0,), epsilon_values=(1.0,),
            phi_values=(0.0, 2.0),
        )
        assert explicit.phis_for(100) == (0.0, 2.0)


def _outcome(build):
    """The ConfigError text ``build()`` raises, or None when it passes."""
    try:
        build()
    except ConfigError as exc:
        return str(exc)
    return None


class TestOneBudgetRule:
    # SweepGrid used to word its own epsilon rule ("epsilon values must be
    # positive (inf allowed)"), apart from the budget a select builds.
    @pytest.mark.parametrize("algorithm", ["pcls", "pcpl"])
    @pytest.mark.parametrize("delta", [0.0, 1e-6, 1.0, -0.1])
    @pytest.mark.parametrize("epsilon", [-1.0, 0.0, math.nan, 1e308, math.inf])
    def test_a_grid_and_a_select_accept_and_reject_alike(self, epsilon, delta, algorithm):
        dataset, _ = generate(_template(n=60, coeffs=(1.0, 0.0, 0.5)))
        select = pcls_select if algorithm == "pcls" else pcpl_select

        def by_select():
            budget = PrivacyBudget(epsilon, delta)
            config = SelectionConfig(radius=1.0, penalty=1.0, budget=budget)
            select(dataset, all_subsets(3), config, RngStream(3, 1))

        def by_grid():
            SweepGrid(n_values=(60,), radius_values=(1.0,), epsilon_values=(epsilon,),
                      delta_values=(delta,), algorithm=algorithm)

        message = _outcome(by_select)
        assert _outcome(by_grid) == message
        valid = epsilon > 0 and 0.0 <= delta < 1.0
        if algorithm == "pcls":
            accepted = valid and delta == 0.0
        else:
            finite_total = math.isinf(epsilon) or math.isfinite(2.0 * epsilon)
            accepted = valid and delta > 0.0 and finite_total
        assert (message is None) == accepted, message

    def test_the_names_have_one_home(self):
        from dpms import selection

        assert simulate._ALGORITHMS is selection._ALGORITHMS
        with pytest.raises(ConfigError, match="algorithm must be one of"):
            SweepGrid(n_values=(60,), radius_values=(1.0,), epsilon_values=(1.0,),
                      algorithm="pclx")


class TestStreamId:
    def test_type_tags_separate_lookalikes(self):
        assert _stream_id(1) != _stream_id(1.0)
        assert _stream_id("ab") != _stream_id("a", "b")
        assert _stream_id(("a",), "b") != _stream_id("a", ("b",))

    def test_frozen_value(self):
        # Pinned: sweep reproducibility depends on this hash never moving.
        assert _stream_id("data", "1", 100, 0) == 970589943650703467

    def test_deterministic(self):
        assert _stream_id("x", 2, 3.5) == _stream_id("x", 2, 3.5)

    def test_a_continued_state_is_the_id_of_the_joined_bytes(self):
        # Heads and tails of 0 to 300 bytes, so that the joined input ends
        # before, at and past BLAKE2b's 128-byte blocks; continuing leaves
        # every state as it was.
        from dpms.simulate import _id_of, _ids_after, _state_of

        raw = bytes(np.random.default_rng(25).integers(0, 256, 600, dtype=np.uint8))
        heads = [raw[:k] for k in range(301)]
        states = [_state_of(head) for head in heads]
        for k in range(301):
            tail = raw[300:300 + k]
            assert _ids_after(states, tail) == [_id_of(head + tail) for head in heads], k
        assert _ids_after(states, b"") == [_id_of(head) for head in heads]


class TestRunSweep:
    def _small_grid(self, **kw):
        base = dict(
            n_values=(80,),
            radius_values=(3.0,),
            epsilon_values=(1.0, float("inf")),
            phi_values=(0.0, 5.0),
            replications=8,
            algorithm="pcls",
        )
        base.update(kw)
        return SweepGrid(**base)

    def test_row_order_and_columns(self):
        res = run_sweep(self._small_grid(), _template(), model_id="1")
        assert len(res.rows) == 1 * 1 * 2 * 2 * 1
        # loops: R, then phi, then epsilon, then delta
        first = res.rows[0]
        assert (first.R, first.phi, first.epsilon) == (3.0, 0.0, 1.0)
        second = res.rows[1]
        assert (second.phi, second.epsilon) == (0.0, float("inf"))
        csv_text = res.to_csv()
        assert csv_text.splitlines()[0] == ",".join(CSV_COLUMNS)
        assert len(csv_text.splitlines()) == 5

    def test_a_penalty_whose_scores_overflow_is_rejected_before_any_draw(self, monkeypatch):
        # phi * d = 6e308 used to overflow in the score matrix: the sweep
        # warned and wrote its rows anyway.
        def no_draw(*args):
            raise AssertionError("data were drawn before the penalty check")

        monkeypatch.setattr(simulate, "_draw", no_draw)
        grid = self._small_grid(phi_values=(0.0, 1e308))
        with pytest.raises(ConfigError, match="penalty [*] d overflows for penalty = 1e[+]308"):
            run_sweep(grid, _template(), model_id="1")

    @pytest.mark.parametrize("algorithm, delta", [("pcls", 0.0), ("pcpl", 1e-6)])
    def test_a_radius_whose_width_overflows_is_rejected_before_any_draw(self, monkeypatch,
                                                                        algorithm, delta):
        # R = 1e200 used to draw the first dataset and end in the solver's
        # data error, "radius 1e+200 overflows the scale of the loss".
        def no_draw(*args):
            raise AssertionError("data were drawn before the noise law was checked")

        monkeypatch.setattr(simulate, "_draw", no_draw)
        grid = self._small_grid(radius_values=(3.0, 1e200), delta_values=(delta,),
                                algorithm=algorithm)
        with pytest.raises(ConfigError, match=r"score width .* for r = 0\.0 and R = 1e\+200"):
            run_sweep(grid, _template(), model_id="1")

    def test_a_width_that_only_the_data_overflow_is_rejected_before_the_fit(self, monkeypatch):
        # At r = 0 the width R**2 is finite, but these responses reach about
        # 1e153, and (r + R)**2 overflows: the replication's own record
        # rejects it before fit_masks sees the radius.
        def no_fit(*args):
            raise AssertionError("fit_masks ran before the noise law was checked")

        monkeypatch.setattr(simulate, "fit_masks", no_fit)
        grid = self._small_grid(n_values=(10,), radius_values=(1.3e154,))
        with pytest.raises(ConfigError, match=r"score width .* and R = 1\.3e\+154"):
            run_sweep(grid, _template(n=10, sigma=3e152), model_id="1", max_workers=1)

    def test_reruns_are_byte_identical(self):
        grid = self._small_grid()
        a = run_sweep(grid, _template(), model_id="1").to_csv()
        b = run_sweep(grid, _template(), model_id="1").to_csv()
        assert a == b

    def test_worker_count_does_not_change_results(self):
        # Two sample sizes, so several workers share one pool across n.
        grid = self._small_grid(n_values=(60, 80))
        solo = run_sweep(grid, _template(), model_id="1", max_workers=1)
        duo = run_sweep(grid, _template(), model_id="1", max_workers=3)
        assert solo.to_csv() == duo.to_csv()

    def test_one_process_pool_per_sweep(self, monkeypatch):
        pools = []

        class CountedPool(concurrent.futures.ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                pools.append(self)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", CountedPool)
        monkeypatch.setattr(simulate.os, "cpu_count", lambda: 2)
        run_sweep(
            self._small_grid(n_values=(60, 80, 100), replications=4, epsilon_values=(1.0,)),
            _template(), model_id="1", max_workers=2,
        )
        assert len(pools) == 1

    def test_unknown_mechanism_fails_before_any_data(self, monkeypatch):
        def no_data(*args):
            raise AssertionError("data were drawn before the mechanism was checked")

        monkeypatch.setattr(simulate, "_draw", no_data)
        with pytest.raises(ConfigError, match="mechanism"):
            run_sweep(self._small_grid(), _template(), model_id="1", mechanism="bogus")

    def test_rejects_fewer_than_one_worker(self):
        # 0 and negative caps used to run one worker without a word.
        grid = self._small_grid(replications=2)
        for workers in (0, -3):
            with pytest.raises(ConfigError, match="max_workers"):
                run_sweep(grid, _template(), model_id="1", max_workers=workers)

    def test_infinite_budget_always_agrees_with_noiseless_baseline(self):
        res = run_sweep(self._small_grid(), _template(), model_id="1")
        for row in res.rows:
            assert 0.0 <= row.prop_correct <= 1.0
            assert row.fallback_rate == 0.0
            if math.isinf(row.epsilon):
                assert row.prop_agree == 1.0

    def test_zero_noise_data_with_infinite_budget_recovers_truth(self):
        # sigma = 0 makes the generating model the unique penalized
        # minimizer at every replication, so recovery must be certain.
        grid = SweepGrid(
            n_values=(60,), radius_values=(4.0,), epsilon_values=(float("inf"),),
            phi_values=(0.5,), replications=6, algorithm="pcls",
        )
        res = run_sweep(grid, _template(sigma=0.0), model_id="1")
        assert res.rows[0].prop_correct == 1.0

    def test_pcpl_small_sample_always_falls_back(self):
        grid = SweepGrid(
            n_values=(40,), radius_values=(3.0,), epsilon_values=(1.0,),
            phi_values=(0.0,), delta_values=(1e-6,), replications=5,
            algorithm="pcpl",
        )
        res = run_sweep(grid, _template(), model_id="1")
        assert res.rows[0].fallback_rate == 1.0

    @pytest.mark.parametrize("algorithm, deltas", [("pcls", (0.0,)), ("pcpl", (1e-4, 1e-2))])
    def test_scores_are_built_once_per_replication_and_radius(self, monkeypatch, algorithm, deltas):
        # Every (epsilon, delta) reuses the (phi x model) score matrix of
        # its (replication, R), fallback rows or not.
        from dpms import selection

        calls = []
        score_matrix = selection._score_matrix

        def counted(*args):
            calls.append(args[0])
            return score_matrix(*args)

        monkeypatch.setattr(selection, "_score_matrix", counted)
        monkeypatch.setattr(simulate, "_score_matrix", counted)
        grid = self._small_grid(radius_values=(2.0, 3.0), epsilon_values=(0.5, 1.0, float("inf")),
                                delta_values=deltas, replications=3, algorithm=algorithm)
        run_sweep(grid, _template(), model_id="1", max_workers=1)
        assert calls == [algorithm] * (3 * 2)

    def test_runtime_column_opt_in(self):
        grid = self._small_grid(replications=3, epsilon_values=(1.0,), phi_values=(0.0,))
        cold = run_sweep(grid, _template(), model_id="1")
        assert all(r.mean_runtime_ms == 0.0 for r in cold.rows)
        timed = run_sweep(grid, _template(), model_id="1", measure_runtime=True)
        assert all(r.mean_runtime_ms > 0.0 for r in timed.rows)

    def test_json_output_round_trips(self):
        res = run_sweep(
            self._small_grid(replications=2, epsilon_values=(1.0,)),
            _template(), model_id="1",
        )
        rows = json.loads(res.to_json())
        assert rows[0]["model_id"] == "1"
        assert set(rows[0]) == set(CSV_COLUMNS)

    def test_inf_epsilon_renders_as_inf_in_csv(self):
        res = run_sweep(
            self._small_grid(replications=2, phi_values=(0.0,)),
            _template(), model_id="1",
        )
        assert ",inf," in res.to_csv()

    def test_inf_epsilon_renders_as_inf_in_json(self):
        res = run_sweep(
            self._small_grid(replications=2, phi_values=(0.0,)),
            _template(), model_id="1",
        )
        text = res.to_json()
        assert '"epsilon": "inf"' in text
        assert [row["epsilon"] for row in json.loads(text)] == [1.0, "inf"]

    def test_chunk_counts_come_in_row_order(self):
        # A chunk counts its cells in the order of the sweep's rows, with
        # no transpose: [R, (phi, epsilon, delta), k].
        grid = self._small_grid(radius_values=(0.5, 3.0), delta_values=(1e-6, 1e-2),
                                replications=4, algorithm="pcpl")
        template = _template()
        phis = grid.phis_for(80)
        counts = simulate._sweep_chunk(grid, template, "1", "noisy_argmin", False, 80, phis, 0, 4)
        assert counts.shape == (2, 2 * 2 * 2, 4)
        rows = run_sweep(grid, template, model_id="1", max_workers=1).rows
        cells = [(row.R, row.phi, row.epsilon, row.delta) for row in rows]
        assert cells == list(product(grid.radius_values, phis, grid.epsilon_values,
                                     grid.delta_values))
        shares = [(row.prop_correct, row.prop_agree, row.fallback_rate, row.mean_runtime_ms)
                  for row in rows]
        assert shares == [tuple(cell) for cell in (counts / 4).reshape(-1, 4).tolist()]


# sha256 of run_sweep(...).to_csv() on _golden_grid, pinned from the
# SHAKE-256 keyed draws.  Scoring a replication's grid as a matrix must
# replay every cell exactly, for any worker count.  Re-pinned once when fits
# became exact and certified.
GOLDEN_SWEEP_SHA256 = {
    ("pcls", "noisy_argmin"): "75a7ebf554a97d7260158b0590163c163981f883375009451bb9752a9058a781",
    ("pcls", "exponential"): "11944bdb553952887bb3f94440ec66427092fb99439e065b239f37d22322078c",
    ("pcpl", "noisy_argmin"): "416143a9af61c50c9a6aeae1d7db3b61f42f35c4b3df13c8222f5f7d401ae89f",
    ("pcpl", "exponential"): "85cfe83492adeba4058217113d3a6201a87807e500223655743c892e2ef01d6b",
}


def _golden_grid(algorithm):
    # n = 200 is too small for pcpl's stage-1 bound at R = 3, epsilon = 1,
    # so those cells fall back to the uniform pick on every replication.
    return SweepGrid(
        n_values=(200,), radius_values=(0.5, 3.0), epsilon_values=(1.0, 10.0, float("inf")),
        phi_values=(0.0, 2.0, 8.0, 30.0, 100.0),
        delta_values=(0.0,) if algorithm == "pcls" else (1e-6,),
        replications=6, algorithm=algorithm,
    )


class TestGoldenSweeps:
    @pytest.mark.parametrize("workers", (1, 2))
    @pytest.mark.parametrize("algorithm,mechanism", sorted(GOLDEN_SWEEP_SHA256))
    def test_csv_digest_is_pinned(self, algorithm, mechanism, workers):
        res = run_sweep(
            _golden_grid(algorithm), _template(n=200, coeffs=BUILTIN_MODELS["2"], seed=11),
            model_id="2", mechanism=mechanism, max_workers=workers,
        )
        digest = hashlib.sha256(res.to_csv().encode("utf-8")).hexdigest()
        assert digest == GOLDEN_SWEEP_SHA256[(algorithm, mechanism)]
        if algorithm == "pcpl":
            fallback = [row.fallback_rate for row in res.rows if math.isfinite(row.epsilon)]
            assert max(fallback) == 1.0 and min(fallback) < 1.0

    @pytest.mark.parametrize(
        "algorithm,mechanism", [("pcls", "noisy_argmin"), ("pcpl", "exponential")]
    )
    def test_every_cell_picks_what_the_one_cell_selector_picks(
        self, algorithm, mechanism, monkeypatch
    ):
        # Record every selection-core call and noiseless pick that a
        # one-worker sweep makes: one of each per (replication, R), whose
        # rows are the (phi, epsilon, delta) cells in that order.
        selects, noiseless_picks = [], []

        def recorded(function, calls):
            def wrapper(*args):
                out = function(*args)
                calls.append((args, out))
                return out
            return wrapper

        monkeypatch.setattr(simulate, "_select_rows", recorded(simulate._select_rows, selects))
        monkeypatch.setattr(
            simulate, "_row_argmin", recorded(simulate._row_argmin, noiseless_picks)
        )
        grid = replace(_golden_grid(algorithm), replications=3)
        template = _template(n=200, coeffs=BUILTIN_MODELS["2"], seed=11)
        run_sweep(grid, template, model_id="2", mechanism=mechanism, max_workers=1)

        models = all_subsets(template.d)
        select = pcls_select if algorithm == "pcls" else pcpl_select
        coords = ("2", template.coefficients, template.noise_sd, 200)
        cells = list(product(grid.phis_for(200), grid.epsilon_values, grid.delta_values))
        selects, noiseless_picks = iter(selects), iter(noiseless_picks)
        for rep in range(3):
            data_stream = RngStream(11, _stream_id("data", *coords, rep))
            dataset, _ = generate(replace(template, rng=data_stream))
            for R in grid.radius_values:
                args, picks = next(selects)
                _, noiseless = next(noiseless_picks)
                stream_ids = [
                    _stream_id("select", *coords, R, phi, eps, delta, algorithm, mechanism, rep)
                    for phi, eps, delta in cells
                ]
                # The rows are the cells in order: each row's penalty, and
                # the record of each row's budget under this dataset's r.
                law = _calibration(algorithm, mechanism, [eps for _, eps, _ in cells],
                                   [delta for _, _, delta in cells], dataset.response_bound,
                                   200, template.d, R)
                assert args[5] == stream_ids
                assert args[2].tolist() == [phi for phi, _, _ in cells]
                for got, want in zip(args[0], law):
                    same = np.array_equal if isinstance(want, np.ndarray) else operator.eq
                    assert same(got, want)
                assert len(picks.winners) == len(noiseless) == len(cells)
                for j, (phi, eps, delta) in enumerate(cells):
                    config = SelectionConfig(
                        radius=R, penalty=phi, budget=PrivacyBudget(eps, delta),
                        mechanism=mechanism,
                    )
                    report = select(dataset, models, config, RngStream(11, stream_ids[j]))
                    assert models[picks.winners[j]] == report.chosen
                    assert picks.fallback[j] == report.fallback_uniform
                    if algorithm == "pcpl":
                        assert picks.g_of_d[j] == report.g_of_d
                    expected = min(
                        range(len(models)),
                        key=lambda c: (report.clean_scores[c], models.sizes[c], models.bits[c]),
                    )
                    assert models[noiseless[j]] == models[expected]
        assert next(selects, None) is None and next(noiseless_picks, None) is None
