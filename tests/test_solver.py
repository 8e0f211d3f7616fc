"""Constrained least squares: projection, exact fits, certificates and
accuracy oracles."""

import itertools
import math
import warnings

import numpy as np
import pytest

from dpms import (
    CandidateSet,
    DataError,
    Dataset,
    ModelMask,
    PrivacyBudget,
    RngStream,
    SelectionConfig,
    SolverError,
    all_subsets,
    fit_masks,
    pcpl_select,
    profile_neg2_loglik,
    sufficient_stats,
)


def _family(masks):
    return CandidateSet([m.bits for m in masks], masks[0].d)


def _fit_one(stats, mask, radius):
    """Constrained least squares for one candidate model."""
    (fit,) = fit_masks(stats, _family([mask]), radius)
    return fit


def _size_groups_by_scan(member):
    """Rows grouped by size the way the solver used to: one scan per size."""
    sizes = member.sum(axis=1)
    for k in np.unique(sizes[sizes > 0]):
        rows = np.flatnonzero(sizes == k)
        yield rows, np.nonzero(member[rows])[1].reshape(len(rows), int(k))


class TestSizeGroups:
    @pytest.mark.parametrize("shape", [(0, 3), (1, 1), (7, 4), (60, 6), (300, 12)])
    def test_matches_one_scan_per_size(self, shape):
        from dpms.solver import _size_groups

        rng = np.random.default_rng(shape)
        for density in (0.0, 0.2, 0.5, 1.0):
            member = rng.random(shape) < density
            if shape[0]:
                member[0] = False  # an empty mask among the others
            got, want = list(_size_groups(member)), list(_size_groups_by_scan(member))
            assert len(got) == len(want)
            for (rows, idx), (want_rows, want_idx) in zip(got, want):
                assert np.array_equal(rows, want_rows) and rows.dtype == want_rows.dtype
                assert idx.shape == want_idx.shape and np.array_equal(idx, want_idx)

    @pytest.mark.parametrize("d, include_empty, max_size", [
        (1, False, None), (1, True, None), (6, False, None), (6, True, None),
        (12, False, None), (12, True, 3), (20, False, 3), (20, True, 2), (4, True, 0),
    ])
    @pytest.mark.parametrize("reverse", [False, True])
    def test_families_match_a_two_dimensional_nonzero(self, d, include_empty, max_size, reverse):
        # The columns come from one flat read modulo d; the reference takes
        # them from a 2-D np.nonzero per size.  (4, True, 0) is the family
        # of the empty mask alone, which has no group.
        from dpms import from_explicit
        from dpms.data import member_matrix
        from dpms.solver import _size_groups

        family = all_subsets(d, include_empty=include_empty, max_size=max_size)
        if reverse:
            family = from_explicit([m.indices() for m in reversed(list(family))], d)
        member = member_matrix(family.bits, d)
        got, want = list(_size_groups(member)), list(_size_groups_by_scan(member))
        assert len(got) == len(want) == len(set(family.sizes.tolist()) - {0})
        for (rows, idx), (want_rows, want_idx) in zip(got, want):
            assert np.array_equal(rows, want_rows) and rows.dtype == want_rows.dtype
            assert np.array_equal(idx, want_idx) and idx.dtype == want_idx.dtype
            assert idx.shape == want_idx.shape


def _project_one(v, radius):
    """Euclidean projection of one vector onto the l1 ball, by the row-wise
    projection every binding fit runs."""
    from dpms.solver import _project_rows

    return _project_rows(np.array(v, dtype=np.float64)[None, :], radius)[0]


def _project_l1_bisection(v, radius):
    """Independent projection oracle: solve for the KKT threshold by
    bisection instead of the sort-and-scan rule."""
    v = np.asarray(v, dtype=float)
    if np.abs(v).sum() <= radius:
        return v.copy()

    def captured(theta):
        return np.maximum(np.abs(v) - theta, 0.0).sum()

    lo, hi = 0.0, float(np.abs(v).max())
    for _ in range(200):
        mid = (lo + hi) / 2.0
        if captured(mid) > radius:
            lo = mid
        else:
            hi = mid
    theta = (lo + hi) / 2.0
    return np.sign(v) * np.maximum(np.abs(v) - theta, 0.0)


def _uniform_dataset(n, d, seed, beta=None, noise=0.3):
    rng = np.random.default_rng(seed)
    x = rng.uniform(-1, 1, (n, d))
    if beta is None:
        beta = rng.normal(0, 1, d)
    y = x @ beta + rng.normal(0, noise, n)
    bound = float(np.max(np.abs(y)))
    return Dataset(x, y, max(bound, 1e-12)), x, y


def _ols_restricted(x, y, mask):
    """Normal-equations oracle, embedded back into full coordinates."""
    cols = mask.column_positions()
    beta = np.zeros(x.shape[1])
    if cols.size:
        sub = x[:, cols]
        beta[cols] = np.linalg.solve(sub.T @ sub, sub.T @ y)
    return beta


class TestProjectL1:
    def test_large_entries_stay_in_the_ball(self):
        # Thresholding entries near 1e6 down to a radius of 0.01 loses
        # their low digits, which must not leave the output outside.
        for seed in range(10):
            v = 1e6 + np.random.default_rng(seed).uniform(0, 1e-3, 8)
            assert np.abs(_project_one(v, 0.01)).sum() <= 0.01 * (1.0 + 1e-15)

    def test_huge_entry_keeps_its_share_of_the_radius(self):
        # An entry 1e20 times the radius: summing the sorted entries and
        # subtracting the radius would round the radius away.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert _project_one(np.array([1e20, 0.0]), 1.0).tolist() == [1.0, 0.0]
            assert _project_one(np.array([0.0, -1e20, 3.0]), 2.0).tolist() == [0.0, -2.0, 0.0]
            out = _project_one(np.array([1e20, 1e20 + 2**17]), 1.0)
        # The two entries differ by 2**17, far beyond the radius.
        assert out.tolist() == [0.0, 1.0]

    def test_frozen_examples(self):
        assert _project_one(np.array([3.0, 0.0, 0.0]), 1.0).tolist() == [1.0, 0.0, 0.0]
        assert np.allclose(_project_one(np.array([2.0, 2.0]), 2.0), [1.0, 1.0])
        assert np.allclose(_project_one(np.array([-2.0, 2.0]), 2.0), [-1.0, 1.0])

    def test_feasible_points_untouched(self):
        v = np.array([0.3, -0.4, 0.1])
        assert _project_one(v, 1.0).tolist() == v.tolist()
        # boundary point: still untouched
        assert _project_one(np.array([0.5, -0.5]), 1.0).tolist() == [0.5, -0.5]

    def test_matches_bisection_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            dim = int(rng.integers(1, 12))
            v = rng.normal(0, 3, dim)
            radius = float(rng.uniform(0.1, 4.0))
            mine = _project_one(v, radius)
            oracle = _project_l1_bisection(v, radius)
            assert np.allclose(mine, oracle, atol=1e-9)
            assert np.abs(mine).sum() <= radius + 1e-9

    def test_projection_is_idempotent(self):
        rng = np.random.default_rng(8)
        v = rng.normal(0, 3, 6)
        once = _project_one(v, 1.5)
        assert np.array_equal(_project_one(once, 1.5), once)


class TestFitAgainstNormalEquations:
    def test_loose_radius_recovers_ols(self):
        # With the constraint slack, the constrained minimizer IS the
        # least squares solution; the normal equations are the oracle.
        for seed in range(10):
            ds, x, y = _uniform_dataset(120, 4, seed)
            stats = sufficient_stats(ds)
            mask = ModelMask.full(4)
            oracle = _ols_restricted(x, y, mask)
            radius = float(np.abs(oracle).sum()) * 4.0 + 1.0
            fit = _fit_one(stats, mask, radius)
            assert fit.converged
            assert np.max(np.abs(fit.beta - oracle)) < 1e-6
            assert fit.neg2_loglik == pytest.approx(float(np.sum((y - x @ oracle) ** 2)), rel=1e-9)

    def test_restricted_masks_recover_restricted_ols(self):
        ds, x, y = _uniform_dataset(150, 5, 21)
        stats = sufficient_stats(ds)
        for bits in (0b00001, 0b01010, 0b10111):
            mask = ModelMask(bits, 5)
            oracle = _ols_restricted(x, y, mask)
            radius = float(np.abs(oracle).sum()) * 3.0 + 1.0
            fit = _fit_one(stats, mask, radius)
            assert np.max(np.abs(fit.beta - oracle)) < 1e-6
            # coordinates outside the mask are exactly zero, not small
            outside = ~mask.member_row()
            assert np.all(fit.beta[outside] == 0.0)

    def test_binding_constraint_lands_on_sphere(self):
        ds, x, y = _uniform_dataset(100, 3, 5, beta=np.array([2.0, -2.0, 1.5]))
        stats = sufficient_stats(ds)
        mask = ModelMask.full(3)
        ols = _ols_restricted(x, y, mask)
        radius = float(np.abs(ols).sum()) / 2.0
        fit = _fit_one(stats, mask, radius)
        assert np.abs(fit.beta).sum() == pytest.approx(radius, rel=1e-8)
        assert fit.neg2_loglik >= float(np.sum((y - x @ ols) ** 2))

    def test_binding_constraint_beats_grid_of_feasible_points(self):
        # Second route: the returned loss must undercut every random
        # feasible point, otherwise it is not the constrained minimum.
        ds, x, y = _uniform_dataset(80, 3, 9, beta=np.array([1.5, -1.0, 2.0]))
        stats = sufficient_stats(ds)
        radius = 1.0
        fit = _fit_one(stats, ModelMask.full(3), radius)
        rng = np.random.default_rng(0)
        for _ in range(500):
            raw = rng.normal(0, 1, 3)
            point = raw / max(1.0, np.abs(raw).sum() / radius)
            loss = float(np.sum((y - x @ point) ** 2))
            assert fit.neg2_loglik <= loss + 1e-7


class TestDescentMechanics:
    def test_iterates_stay_feasible(self):
        # The returned fit is an exact solve, a KKT candidate or a certified
        # projected-gradient iterate; each must lie in the ball.
        ds, _, _ = _uniform_dataset(60, 4, 4)
        stats = sufficient_stats(ds)
        for radius in (0.7, 0.8):
            fits = fit_masks(stats, CandidateSet([0b1111, 0b0011, 0b1000], 4), radius)
            for fit in fits:
                assert np.abs(fit.beta).sum() <= radius + 1e-9

    def test_batch_matches_solo_fits(self):
        ds, _, _ = _uniform_dataset(90, 5, 11)
        stats = sufficient_stats(ds)
        masks = [ModelMask(b, 5) for b in (0b00111, 0b11000, 0b11111, 0b00100)]
        batch = fit_masks(stats, _family(masks), 1.2)
        for mask, joint in zip(masks, batch):
            solo = _fit_one(stats, mask, 1.2)
            assert np.allclose(joint.beta, solo.beta, atol=1e-8)
            assert joint.neg2_loglik == pytest.approx(solo.neg2_loglik, rel=1e-10, abs=1e-10)

    def test_empty_mask_scores_pure_variance(self):
        ds, _, y = _uniform_dataset(40, 3, 15)
        stats = sufficient_stats(ds)
        fit = _fit_one(stats, ModelMask.empty(3), 1.0)
        assert fit.neg2_loglik == pytest.approx(float(y @ y))
        assert np.all(fit.beta == 0.0)
        assert fit.converged and fit.iterations == 0

    def test_zero_column_mask_is_flat(self):
        x = np.zeros((10, 2))
        x[:, 0] = np.linspace(-1, 1, 10)
        y = np.linspace(-0.5, 0.5, 10)
        stats = sufficient_stats(Dataset(x, y, 1.0))
        fit = _fit_one(stats, ModelMask.from_indices([2], 2), 1.0)
        assert np.all(fit.beta == 0.0)
        assert fit.neg2_loglik == pytest.approx(float(y @ y))

    def test_rank_deficient_fit_is_deterministic(self):
        rng = np.random.default_rng(17)
        col = rng.uniform(-1, 1, 50)
        x = np.stack([col, col], axis=1)  # exact collinearity
        y = col * 0.8 + rng.normal(0, 0.1, 50)
        y = y / np.max(np.abs(y))
        stats = sufficient_stats(Dataset(x, y, 1.0))
        one = _fit_one(stats, ModelMask.full(2), 2.0)
        two = _fit_one(stats, ModelMask.full(2), 2.0)
        assert np.array_equal(one.beta, two.beta)
        assert one.neg2_loglik == two.neg2_loglik

    def test_uncertified_fit_raises_solver_error(self, monkeypatch):
        # With the lasso path switched off, the binding full mask of two
        # identical columns has no exact solve and no KKT candidate, so
        # projected gradient needs ~40 steps to certify it; a budget of 5
        # must raise, not return.
        from dpms import solver

        monkeypatch.setattr(solver, "_homotopy", lambda a, member, *rest: np.zeros(member.shape))
        rng = np.random.default_rng(17)
        col = rng.uniform(-1, 1, 50)
        x = np.stack([col, col, rng.uniform(-1, 1, 50)], axis=1)
        y = col * 0.8 + rng.normal(0, 0.1, 50)
        stats = sufficient_stats(Dataset(x, y / np.max(np.abs(y)), 1.0))
        assert _fit_one(stats, ModelMask.full(3), 2.0).iterations > 5
        monkeypatch.setattr(solver, "_MAX_ITERATIONS", 5)
        with pytest.raises(SolverError, match="not certified after 5 "):
            _fit_one(stats, ModelMask.full(3), 2.0)

    def test_stalled_fit_raises_at_once(self, monkeypatch):
        # With a negative certificate level no gap can be certified, even
        # one that round-off brings to exactly 0.  Projected gradient must
        # give up once its gap stops falling, long before a budget of 10^6.
        from dpms import solver

        monkeypatch.setattr(solver, "_tau", lambda stats, scale: -1.0)
        monkeypatch.setattr(solver, "_MAX_ITERATIONS", 10**6)
        monkeypatch.setattr(solver, "_homotopy", lambda a, member, *rest: np.zeros(member.shape))
        ds, _, _ = _uniform_dataset(60, 4, 31)
        with pytest.raises(SolverError, match=r"stopped short of certification after (\d+) ") as err:
            fit_masks(sufficient_stats(ds), _family([ModelMask.full(4)]), 0.1)
        assert int(err.value.args[0].split(" after ")[1].split()[0]) < 2_000

    def test_input_validation(self):
        ds, _, _ = _uniform_dataset(20, 3, 23)
        stats = sufficient_stats(ds)
        with pytest.raises(DataError):
            fit_masks(stats, all_subsets(2), 1.0)
        with pytest.raises(DataError):
            _fit_one(stats, ModelMask.full(3), -1.0)

    def test_objective_increase_raises_solver_error(self, monkeypatch):
        # A step of 4/L overshoots, and the rising objective must surface
        # as a DpmsError, not an assert.  Only binding masks that neither
        # their first KKT candidate nor the lasso path settle take steps;
        # at R = 0.1 the projected solution's support is wrong, and the
        # path is switched off.
        from dpms import solver

        monkeypatch.setattr(solver, "_homotopy", lambda a, member, *rest: np.zeros(member.shape))
        exact = solver._masked_top_eigenvalue
        monkeypatch.setattr(
            solver, "_masked_top_eigenvalue", lambda a, member: exact(a, member) / 4.0
        )
        ds, _, _ = _uniform_dataset(60, 4, 31)
        with pytest.raises(SolverError):
            fit_masks(sufficient_stats(ds), _family([ModelMask.full(4)]), 0.1)


class TestExactStep:
    def test_top_eigenvalue_matches_eigvalsh_per_mask(self):
        from dpms.solver import _masked_top_eigenvalue

        rng = np.random.default_rng(37)
        x = rng.uniform(-1, 1, (80, 8))
        x[:, 3] = 0.0  # flat: a mask of only this column has A_S = 0
        x[:, 6] = x[:, 1]  # rank deficient once both columns are in
        y = x @ rng.normal(0, 1, 8) + rng.normal(0, 0.2, 80)
        stats = sufficient_stats(Dataset(x, y, float(np.max(np.abs(y)))))
        a = stats.xtx
        masks = list(all_subsets(8, include_empty=True))
        lam = _masked_top_eigenvalue(a, np.stack([m.member_row() for m in masks]))
        for mask, got in zip(masks, lam):
            cols = mask.column_positions()
            if mask.bits in (0, 1 << 3):
                assert got == 0.0
                continue
            want = np.linalg.eigvalsh(a[np.ix_(cols, cols)])[-1]
            assert got == pytest.approx(want, rel=1e-12, abs=0.0)

    def test_default_fits_carry_a_small_duality_gap(self):
        # Frank-Wolfe certificate: for g the (restricted) gradient of the
        # loss at beta, g.beta + R ||g||_inf bounds loss - min loss.
        ds, _, _ = _uniform_dataset(1000, 10, 41)
        stats = sufficient_stats(ds)
        masks = all_subsets(10)
        radius = 2.0
        fits = fit_masks(stats, masks, radius)
        for mask, fit in zip(masks, fits):
            cols = mask.column_positions()
            beta = fit.beta[cols]
            g = 2.0 * (stats.xtx[np.ix_(cols, cols)] @ beta - stats.xty[cols])
            gap = float(g @ beta + radius * np.max(np.abs(g)))
            assert gap <= 1e-5 * max(fit.neg2_loglik, 1.0)


def _kkt_oracle(a, b, yty, cols, radius):
    """Constrained minimum by enumeration: every support T in the mask
    with a nonsingular A_T, unconstrained (mu = 0) or on the sphere with
    each sign vector s, keeping only feasible, sign-consistent points.
    Some minimizer has such a support, so the least objective is the
    minimum."""
    best = yty
    for k in range(1, len(cols) + 1):
        for t in itertools.combinations(cols, k):
            sub = a[np.ix_(t, t)]
            if np.linalg.matrix_rank(sub) < k:
                continue
            u = np.linalg.solve(sub, b[list(t)])
            points = [u] if np.abs(u).sum() <= radius else []
            for signs in itertools.product((-1.0, 1.0), repeat=k):
                s = np.array(signs)
                v = np.linalg.solve(sub, s)
                mu = (s @ u - radius) / (s @ v)
                beta = u - mu * v
                if mu >= 0 and np.array_equal(np.sign(beta), s):
                    points.append(beta)
            for beta in points:
                best = min(best, yty - 2.0 * beta @ b[list(t)] + beta @ sub @ beta)
    return best


def _certificate_level(stats, radius):
    """tolerance * max(1, yty) plus the round-off allowance, 64 eps per
    coordinate on the loss scale yty + 2 R |X'y|_inf + R^2 max (X'X)_jj."""
    scale = (
        stats.yty + 2 * radius * np.abs(stats.xty).max() + radius**2 * np.diag(stats.xtx).max()
    )
    return 1e-10 * max(1.0, stats.yty) + 64 * np.finfo(float).eps * stats.d * scale


def _assert_certified(stats, fit, cols, radius, tau):
    """Frank-Wolfe gap at most tau, recomputed, and beta in the ball to
    round-off of its sum."""
    g = stats.xtx @ fit.beta - stats.xty
    gap = 2.0 * (g[cols] @ fit.beta[cols] + radius * np.max(np.abs(g[cols])))
    assert fit.converged and gap <= tau
    assert np.abs(fit.beta).sum() <= radius * (1.0 + 1e-14)


class TestCertifiedFits:
    def test_fit_just_outside_the_ball_is_judged_on_it(self):
        # A candidate that overshoots the ball by round-off is scaled onto
        # it before its gap is taken, so a certified loss never undercuts
        # the constrained minimum; one further out is rejected.
        from dpms.data import member_matrix
        from dpms.solver import _certified

        ds, _, _ = _uniform_dataset(200, 4, 5)
        stats = sufficient_stats(ds)
        member = member_matrix(np.array([0b1111]), 4)
        bvec = member * stats.xty
        exact = fit_masks(stats, _family([ModelMask.full(4)]), 0.5).beta
        assert np.abs(exact).sum() == pytest.approx(0.5, rel=1e-14)
        tau = _certificate_level(stats, 0.5)
        near = exact * (1.0 + 1e-13)
        assert _certified(stats.xtx, member, bvec, near, 0.5, tau).all()
        assert np.abs(near).sum() <= 0.5 * (1.0 + 1e-15)
        far = exact * (1.0 + 1e-11)
        assert not _certified(stats.xtx, member, bvec, far, 0.5, tau).any()

    @pytest.mark.parametrize("seed", (0, 1, 2))
    def test_losses_match_the_kkt_oracle_and_every_fit_is_certified(self, seed):
        # Columns 1-4 are random, column 5 is zero and column 6 copies
        # column 2, so the family of all masks up to size 4 mixes slack,
        # binding, zero-column and exactly collinear masks at every radius.
        rng = np.random.default_rng(seed)
        n = int(rng.integers(60, 200))
        x = np.zeros((n, 6))
        x[:, :4] = rng.uniform(-1, 1, (n, 4))
        x[:, 5] = x[:, 1]
        y = x[:, :3] @ rng.normal(0, 1, 3) + rng.normal(0, 0.3, n)
        stats = sufficient_stats(Dataset(x, y, float(np.max(np.abs(y)))))
        a, b = stats.xtx, stats.xty
        family = CandidateSet(
            [sum(1 << j for j in c) for k in range(1, 5) for c in itertools.combinations(range(6), k)],
            6,
        )
        for radius in (0.2, 1.0, 3.0, 50.0):
            fits = fit_masks(stats, family, radius)
            tau = _certificate_level(stats, radius)
            for mask, fit in zip(family, fits):
                cols = mask.column_positions().tolist()
                oracle = _kkt_oracle(a, b, stats.yty, cols, radius)
                assert fit.neg2_loglik == pytest.approx(oracle, rel=1e-9)
                _assert_certified(stats, fit, cols, radius, tau)
                singular = 4 in cols or {1, 5} <= set(cols)
                if radius == 50.0 and not singular:
                    # A slack mask is solved exactly, even when a singular
                    # mask shares its size group.
                    assert fit.iterations == 0

    @pytest.mark.parametrize("seed", (0, 1, 2))
    def test_one_hot_set_beside_the_intercept_is_certified_by_descent(self, seed, monkeypatch):
        # An intercept and a full one-hot set of three levels: the four
        # columns are exactly dependent, so a binding mask that holds them
        # all has a singular system on its path.  Projected gradient must
        # run on such masks of its own accord and certify them at the
        # constrained minimum.  Two more exactly dependent layouts face the
        # same oracle and certificate: the ones column last, and an
        # intercept beside one-hot sets of two and three levels.
        from dpms import solver

        rows = []
        descend = solver._descend

        def on_descend(a, yty, member, *rest):
            rows.append(len(member))
            return descend(a, yty, member, *rest)

        def one_hot(rng, levels):
            return np.eye(levels)[rng.integers(0, levels, n)]

        monkeypatch.setattr(solver, "_descend", on_descend)
        n = 200
        ones = np.ones(n)
        layouts = (
            lambda rng: np.column_stack([ones, one_hot(rng, 3), rng.uniform(-1, 1, (n, 2))]),
            lambda rng: np.column_stack([one_hot(rng, 3), rng.uniform(-1, 1, (n, 2)), ones]),
            lambda rng: np.column_stack([ones, one_hot(rng, 2), one_hot(rng, 3)]),
        )
        family = all_subsets(6)
        for layout, design in enumerate(layouts):
            rng = np.random.default_rng(seed)
            x = design(rng)
            y = x @ np.array([0.5, 1.0, -0.5, 0.2, 0.8, 0.0]) + rng.normal(0, 0.5, n)
            stats = sufficient_stats(Dataset(x, y / np.max(np.abs(y)), 1.0))
            rows.clear()
            stepped = 0
            for radius in (0.3, 1.0, 2.0, 5.0):
                fits = fit_masks(stats, family, radius)
                tau = _certificate_level(stats, radius)
                for mask, fit in zip(family, fits):
                    cols = mask.column_positions().tolist()
                    oracle = _kkt_oracle(stats.xtx, stats.xty, stats.yty, cols, radius)
                    assert fit.neg2_loglik == pytest.approx(oracle, rel=1e-9)
                    _assert_certified(stats, fit, cols, radius, tau)
                stepped += int((fits.iterations > 0).sum())
                if layout == 0:
                    # Only masks holding all four dependent columns need descent.
                    assert np.all(family.bits[fits.iterations > 0] & 0b1111 == 0b1111)
            if layout == 0:
                assert rows and stepped > 0

    @pytest.mark.parametrize("spread", (1e-2, 1e-3))
    def test_correlated_designs_are_exact_without_descent(self, spread):
        # Columns 2 and 4 sit within `spread` of columns 1 and 3.  Projected
        # gradient crawls along such near-flat directions and its iterates
        # rarely show the right support, so these fits once ran out of
        # steps; the lasso path reaches every minimum exactly.
        rng = np.random.default_rng(7)
        n = 300
        x = rng.uniform(-1, 1, (n, 5))
        for j in (1, 3):
            x[:, j] = np.clip(x[:, j - 1] + spread * rng.uniform(-1, 1, n), -1, 1)
        y = x @ rng.normal(0, 1, 5) + rng.normal(0, 0.3, n)
        stats = sufficient_stats(Dataset(x, y, float(np.max(np.abs(y)))))
        family = all_subsets(5)
        for radius in (0.3, 1.0, 3.0):
            fits = fit_masks(stats, family, radius)
            tau = _certificate_level(stats, radius)
            for mask, fit in zip(family, fits):
                cols = mask.column_positions().tolist()
                oracle = _kkt_oracle(stats.xtx, stats.xty, stats.yty, cols, radius)
                assert fit.neg2_loglik == pytest.approx(oracle, rel=1e-9)
                _assert_certified(stats, fit, cols, radius, tau)
            assert fits.iterations.max() == 0

    @pytest.mark.parametrize("radius", (10.0, 500.0))
    def test_large_radius_next_to_a_small_response(self, radius):
        # r ~ 0.02 and columns 1 and 2 nearly equal: at R = 10 the pair's
        # masks bind far from the origin, and at R = 500 every mask is
        # slack, but the gap's R |g|_inf term scales the round-off of
        # X'X beta by R.  Every fit must still be certified by its exact
        # solve or KKT point, inside the ball.
        rng = np.random.default_rng(11)
        n = 2000
        x = rng.uniform(-1, 1, (n, 4))
        x[:, 1] = x[:, 0] + 1e-4 * rng.uniform(-1, 1, n)
        y = 0.01 * (x[:, 1] - x[:, 0]) * 1e4 * 0.3 + 0.005 * x[:, 2] + 0.002 * rng.normal(size=n)
        stats = sufficient_stats(Dataset(x, y, float(np.max(np.abs(y)))))
        assert radius / float(np.max(np.abs(y))) > 300
        family = all_subsets(4)
        fits = fit_masks(stats, family, radius)
        tau = _certificate_level(stats, radius)
        for mask, fit in zip(family, fits):
            _assert_certified(stats, fit, mask.column_positions().tolist(), radius, tau)
        assert fits.iterations.max() == 0
        if radius == 10.0:
            assert np.abs(fits.beta).sum(axis=1).max() == pytest.approx(radius, rel=1e-14)


class TestCalibration:
    @pytest.mark.parametrize("n", (1, 7, 200))
    @pytest.mark.parametrize("d", (1, 3, 8))
    def test_every_certificate_level_is_within_the_public_slack(self, n, d):
        # The selectors calibrate to loss_slack(n, d, r, R); it must cover
        # the level that certifies the fits of every dataset with |x| <= 1
        # and |y| <= r, corner rows x in {-1, 1}^d, y = +-r included.
        from dpms.solver import _scale, _tau, loss_slack

        rng = np.random.default_rng([n, d])
        for r in (1e-3, 0.5, 1.0, 7.0):
            signs = rng.choice([-1.0, 1.0], (n, d + 1))
            designs = [
                (rng.uniform(-1, 1, (n, d)), rng.uniform(-r, r, n)),
                (signs[:, :d], r * signs[:, d]),
                (np.ones((n, d)), np.full(n, r)),
                (-np.ones((n, d)), np.full(n, r)),
            ]
            for x, y in designs:
                stats = sufficient_stats(Dataset(x, y, r))
                for radius in (0.1, 1.0, 50.0):
                    assert _tau(stats, _scale(stats, radius)) <= loss_slack(n, d, r, radius)


class TestEquivalenceRadius:
    def test_loose_radius_rule_makes_all_masks_unconstrained(self):
        # If R >= r * sqrt(k / kappa0) with kappa0 the smallest restricted
        # design eigenvalue, every constrained fit of size <= k must agree
        # with its unconstrained least squares solution.
        import itertools

        ds, x, y = _uniform_dataset(300, 4, 29, beta=np.array([0.8, -0.6, 0.4, 0.0]))
        n, d = x.shape
        gram = x.T @ x / n
        kappa = min(
            float(np.linalg.eigvalsh(gram[np.ix_(c, c)])[0])
            for c in itertools.combinations(range(d), d)
        )
        radius = ds.response_bound * math.sqrt(d / kappa)
        stats = sufficient_stats(ds)
        for bits in range(1, 1 << d):
            mask = ModelMask(bits, d)
            fit = _fit_one(stats, mask, radius)
            oracle = _ols_restricted(x, y, mask)
            assert np.max(np.abs(fit.beta - oracle)) < 1e-6


class TestProfileScore:
    def test_matches_direct_formula(self):
        assert profile_neg2_loglik([18.0], 9)[0] == pytest.approx(9 * math.log(2.0))

    # n = 117 is the first n whose n * 1e-12 / n is not 1e-12 again: the
    # floor must still be exactly n * log(1e-12).
    def test_zero_loss_scores_the_floor(self):
        for n in (5, 10, 117):
            got = profile_neg2_loglik(np.array([0.0]), n)
            assert got.tolist() == [n * math.log(1e-12)]

    def test_tiny_loss_floored(self):
        for n in (5, 10, 117):
            got = profile_neg2_loglik(np.array([1e-20]), n)
            assert got.tolist() == [n * math.log(1e-12)]

    def test_every_entry_matches_math_log(self):
        losses = np.random.default_rng(3).uniform(0.0, 500.0, 2000)
        losses[:3] = (0.0, 1e-20, 200.0)
        got = profile_neg2_loglik(losses, 200)
        want = [200 * math.log(max(loss / 200, 1e-12)) for loss in losses.tolist()]
        assert got.tolist() == want

    def test_rejects_bad_n(self):
        with pytest.raises(DataError):
            profile_neg2_loglik([1.0], 0)


class TestRadiusOverflow:
    def test_a_radius_whose_loss_scale_overflows_is_a_data_error(self):
        # R = 1e200 used to end in a bare OverflowError from R**2, and at
        # R = 1e154 the scale R**2 * max A_jj was inf, so every gap passed.
        from dpms.solver import bound_masks

        ds, _, _ = _uniform_dataset(1000, 4, 3)
        stats = sufficient_stats(ds)
        for radius in (1e154, 1e200):
            with pytest.raises(DataError, match="overflows the scale of the loss"):
                fit_masks(stats, all_subsets(4), radius)
            with pytest.raises(DataError, match="overflows the scale of the loss"):
                bound_masks(stats, all_subsets(4), radius)


class TestFitsArrays:
    def test_fit_masks_builds_no_fit_objects(self, monkeypatch):
        # Fits are four arrays from the solver to the report; FitResult
        # objects are built only when a caller iterates them.
        from dpms import solver

        ds, _, _ = _uniform_dataset(300, 6, 43)
        cfg = SelectionConfig(radius=2.0, penalty=1.0, budget=PrivacyBudget(1.0, 1e-6))
        monkeypatch.setattr(solver, "FitResult", None)
        pcpl_select(ds, all_subsets(6), cfg, RngStream(1, 1))
        fits = fit_masks(sufficient_stats(ds), all_subsets(6), 2.0)
        monkeypatch.undo()
        assert len(fits) == 63 and fits.beta.shape == (63, 6)
        for a in (fits.beta, fits.neg2_loglik, fits.iterations, fits.converged):
            assert not a.flags.writeable and len(a) == 63
        listed = list(fits)
        for j in (0, 17, 62):
            fit = listed[j]
            assert np.array_equal(fit.beta, fits.beta[j])
            assert fit.neg2_loglik == fits.neg2_loglik[j]
            assert fit.iterations == fits.iterations[j]
            assert fit.converged == fits.converged[j]
        assert [f.neg2_loglik for f in fits] == fits.neg2_loglik.tolist()

    def test_settled_fits_read_as_point_bounds(self):
        # The selection core reads Fits and LossBounds alike.
        ds, _, _ = _uniform_dataset(200, 4, 44)
        fits = fit_masks(sufficient_stats(ds), all_subsets(4), 1.5)
        assert fits.lower is fits.neg2_loglik and fits.upper is fits.neg2_loglik
        assert fits.fits() is fits


def _select_d9(seed, n=500):
    """Data of the select benchmark at d = 9: y = 1.5 x1 + x2 + 0.5 x3 +
    N(0, 1), an intercept column first, clipped to r = 4."""
    rng = np.random.default_rng([7, 7, seed])
    x = rng.uniform(-1, 1, (n, 8))
    y = x[:, :3] @ np.array([1.5, 1.0, 0.5]) + rng.normal(0, 1, n)
    return Dataset(np.column_stack([np.ones(n), x]), np.clip(y, -4, 4), 4.0)


class TestSettleStep:
    def test_certified_path_ends_skip_projected_gradient(self, monkeypatch):
        # Every binding mask that its KKT candidate misses follows the
        # lasso path; an end that is certified as it is never reaches
        # projected gradient, and its fit is the path end itself.
        from dpms import solver

        rows = {"path": 0, "descend": 0}
        homotopy, descend = solver._homotopy, solver._descend

        def on_path(a, member, *rest):
            rows["path"] += len(member)
            return homotopy(a, member, *rest)

        def on_descend(a, yty, member, *rest):
            rows["descend"] += len(member)
            return descend(a, yty, member, *rest)

        monkeypatch.setattr(solver, "_homotopy", on_path)
        monkeypatch.setattr(solver, "_descend", on_descend)
        fits = fit_masks(sufficient_stats(_select_d9(0)), all_subsets(9), 1.0)
        assert rows["path"] == 63
        assert rows["descend"] == 0
        assert fits.iterations.max() == 0

    def test_duplicate_column_stays_on_the_lasso_path(self):
        # Column 2 copies column 1.  Once one copy is active, the other's
        # join event is round-off over round-off; joining it made the next
        # path system singular and left mask {1, 2, 3, 5} to 36 steps of
        # projected gradient.  Skipping that join keeps every mask exact.
        rng = np.random.default_rng(42)
        x = rng.uniform(-1, 1, (300, 6))
        x[:, 1] = x[:, 0]
        y = x @ rng.normal(0, 1, 6) + rng.normal(0, 0.5, 300)
        stats = sufficient_stats(Dataset(x, y / np.max(np.abs(y)), 1.0))
        family = all_subsets(6)
        fits = fit_masks(stats, family, 1.0)
        mask = int(np.flatnonzero(family.bits == ModelMask.from_indices([1, 2, 3, 5], 6).bits)[0])
        assert fits.iterations[mask] == 0
        assert fits.iterations.max() == 0
        tau = _certificate_level(stats, 1.0)
        for m, fit in zip(family, fits):
            _assert_certified(stats, fit, m.column_positions().tolist(), 1.0, tau)


class TestLossBounds:
    @pytest.mark.parametrize("seed, radius", [(0, 1.0), (2, 2.5), (3, 0.3)])
    def test_bounds_hold_the_settled_loss_and_settling_them_all_is_fit_masks(self, seed, radius):
        from dpms.data import member_matrix
        from dpms.solver import LossBounds, _scale

        stats = sufficient_stats(_select_d9(seed))
        family = all_subsets(9)
        full = fit_masks(stats, family, radius)
        loss = full.neg2_loglik
        bounds = LossBounds(stats, member_matrix(family.bits, 9), radius, _scale(stats, radius),
                            supersets=True)
        # Nothing is solved yet: every interval is [superset bound, inf).
        assert np.all(np.isinf(bounds.upper)) and not bounds.certified.any()
        assert np.all(bounds.lower <= loss)
        # A first pass over every other mask certifies the slack ones and
        # bounds the binding ones at their projected starts.
        some = np.arange(0, len(family), 2)
        bounds.first_pass(some)
        lower, upper = bounds.lower.copy(), bounds.upper.copy()
        certified = bounds.certified.copy()
        assert 0 < certified.sum() < len(some) and not np.delete(certified, some).any()
        assert np.all(np.isfinite(upper[some])) and np.all(np.isinf(np.delete(upper, some)))
        assert np.all(lower <= loss) and np.all(loss <= upper)
        # Settling the three widest binding ones narrows them around their
        # certified loss.
        binding = some[~certified[some]]
        widest = binding[np.argsort((upper - lower)[binding])[-3:]]
        bounds.settle(widest)
        width = bounds.upper[widest] - bounds.lower[widest]
        assert np.all(width < upper[widest] - lower[widest])
        assert np.all(bounds.lower[widest] <= loss[widest])
        assert np.all(loss[widest] <= bounds.upper[widest])
        assert bounds.certified[widest].all()
        # Settling everything reproduces fit_masks bit for bit.
        fits = bounds.fits()
        for name in ("beta", "neg2_loglik", "iterations", "converged"):
            assert np.array_equal(getattr(fits, name), getattr(full, name))
        assert bounds.certified.all() and bounds.lower is bounds.upper
        assert np.array_equal(bounds.lower, loss)
        assert bounds.fits() is fits

    @pytest.mark.parametrize("d, cap, supersets", [
        (8, None, False), (9, None, True), (11, 4, False), (12, 4, True), (12, 3, False),
        (16, 4, True), (20, 2, False), (20, 3, False), (20, 4, True), (24, 3, False),
    ])
    def test_supersets_bound_families_of_more_than_15_unknowns_per_superset_unknown(
        self, d, cap, supersets
    ):
        # The supersets are used when the family's model sizes add up to
        # more than 15 (d + 1) d: the full family from d = 9 on, size <= 4
        # from d = 12 on, size <= 3 at no d up to 24.
        from dpms.solver import bound_masks

        rng = np.random.default_rng(d)
        x = rng.uniform(-1, 1, (2 * d, d))
        stats = sufficient_stats(Dataset(x, np.clip(x.sum(axis=1), -2, 2), 2.0))
        family = all_subsets(d, max_size=cap)
        assert (int(family.sizes.sum()) > 15 * (d + 1) * d) == supersets
        assert bound_masks(stats, family, 1.0)._supersets == supersets

    @pytest.mark.parametrize("d, cap, supersets", [
        (9, None, False), (10, None, True), (10, 5, False), (12, 4, False), (16, 4, False),
        (18, 4, True),
    ])
    def test_settled_supersets_bound_families_of_more_than_40_unknowns_per_superset_unknown(
        self, d, cap, supersets
    ):
        # Supersets settled with their bounds, when the caller asks for it
        # or X'X is ill-conditioned (here singular: a column repeats),
        # cost their lasso path: they are used when the family's model
        # sizes add up to more than 40 (d + 1) d.
        from dpms.solver import _ill_conditioned, bound_masks

        rng = np.random.default_rng(d)
        x = rng.uniform(-1, 1, (4 * d, d))
        stats = sufficient_stats(Dataset(x, np.clip(x.sum(axis=1), -2, 2), 2.0))
        x[:, -1] = x[:, 0]
        singular = sufficient_stats(Dataset(x, np.clip(x.sum(axis=1), -2, 2), 2.0))
        assert not _ill_conditioned(stats) and _ill_conditioned(singular)
        family = all_subsets(d, max_size=cap)
        assert (int(family.sizes.sum()) > 40 * (d + 1) * d) == supersets
        for bounds in (bound_masks(stats, family, 1.0, eager=True),
                       bound_masks(singular, family, 1.0)):
            assert bounds._eager and bounds._supersets == supersets
        assert not bound_masks(stats, family, 1.0)._eager

    @pytest.mark.parametrize("seed, radius", [(0, 1.0), (3, 0.3)])
    def test_a_size_capped_family_starts_from_its_own_first_pass(self, seed, radius):
        # At d = 9, the 45 masks of size <= 2 cost less to solve than the
        # supersets: the intervals start from one first pass over the
        # family, and settling them all reuses that pass bit for bit.
        from dpms.solver import bound_masks

        stats = sufficient_stats(_select_d9(seed))
        family = all_subsets(9, max_size=2)
        full = fit_masks(stats, family, radius)
        loss = full.neg2_loglik
        bounds = bound_masks(stats, family, radius)
        lower, upper = bounds.lower.copy(), bounds.upper.copy()
        assert np.all(np.isfinite(lower)) and np.all(np.isfinite(upper))
        assert np.all(lower <= loss) and np.all(loss <= upper)
        # The slack masks are certified by the first pass, and their
        # intervals are the points fit_masks returns; the binding ones are
        # left to settle.
        slack = bounds.certified
        assert 0 < slack.sum() < len(family)
        assert np.array_equal(lower[slack], loss[slack]) and np.array_equal(upper[slack], loss[slack])
        fits = bounds.fits()
        for name in ("beta", "neg2_loglik", "iterations", "converged"):
            assert np.array_equal(getattr(fits, name), getattr(full, name))
        assert bounds.lower is bounds.upper
