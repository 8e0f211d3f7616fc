"""Data contracts: masks, bounded datasets, sufficient statistics, CSV."""

import math
import re

import numpy as np
import pytest

from dpms import (
    DataError,
    ConfigError,
    Dataset,
    ModelMask,
    SufficientStats,
    load_csv,
    standardize,
    sufficient_stats,
)


class TestModelMask:
    def test_from_indices_bit_layout(self):
        # Index i sets bit i-1, so {1, 3} over d=4 is binary 0101.
        m = ModelMask.from_indices([1, 3], 4)
        assert m.bits == 0b0101
        assert m.indices() == (1, 3)
        assert m.size == 2

    def test_duplicate_indices_fold(self):
        assert ModelMask.from_indices([2, 2, 2], 3) == ModelMask.from_indices([2], 3)

    def test_full_and_empty(self):
        assert ModelMask.full(3).bits == 0b111
        assert ModelMask.empty(3).bits == 0
        assert ModelMask.empty(3).size == 0
        assert ModelMask.full(3).indices() == (1, 2, 3)

    def test_out_of_range_indices(self):
        with pytest.raises(DataError):
            ModelMask.from_indices([0], 3)
        with pytest.raises(DataError):
            ModelMask.from_indices([4], 3)

    def test_bits_bounds(self):
        with pytest.raises(DataError):
            ModelMask(1 << 3, 3)
        with pytest.raises(DataError):
            ModelMask(-1, 3)
        with pytest.raises(DataError):
            ModelMask(0, 0)

    def test_dimension_capped_at_one_word(self):
        # Keyed draws hash a mask's bits as one 64-bit word.
        top = ModelMask.from_indices([64], 64)
        assert top.column_positions().tolist() == [63]
        with pytest.raises(DataError):
            ModelMask(1, 65)
        with pytest.raises(DataError):
            ModelMask.from_indices([1], 65)

    def test_positions_and_member_row(self):
        m = ModelMask.from_indices([1, 4], 5)
        assert m.column_positions().tolist() == [0, 3]
        assert m.member_row().tolist() == [True, False, False, True, False]

    @pytest.mark.parametrize("d", [1, 8, 9, 24])
    def test_member_matrix_is_the_shift_form(self, d):
        # Column j of row i is bit j of word i.  Every word has its top
        # bit set, so the last byte that holds a column is never empty.
        from dpms.data import member_matrix

        top = 1 << (d - 1)
        rng = np.random.default_rng([5, d])
        bits = rng.integers(0, top, 300, dtype=np.uint64, endpoint=True) | np.uint64(top)
        bits = np.concatenate([bits, np.array([top, 2 * top - 1], dtype=np.uint64)])
        shifted = ((bits[:, None] >> np.arange(d, dtype=np.uint64)) & np.uint64(1)).astype(bool)
        member = member_matrix(bits, d)
        assert member.dtype == bool and member.shape == (len(bits), d)
        assert np.array_equal(member, shifted)
        assert member[:, -1].all()
        assert np.array_equal(member_matrix(bits.tolist(), d), shifted)


class TestDataset:
    def _xy(self, n=5, d=3, seed=0):
        rng = np.random.default_rng(seed)
        x = rng.uniform(-1, 1, (n, d))
        y = rng.uniform(-2, 2, n)
        return x, y

    def test_accepts_bounded_data(self):
        x, y = self._xy()
        ds = Dataset(x, y, 2.0)
        assert ds.n == 5 and ds.d == 3
        assert ds.response_bound == 2.0
        assert not ds.bound_is_data_dependent

    def test_rejects_x_out_of_bounds_with_location(self):
        x, y = self._xy()
        x[2, 1] = 1.5
        with pytest.raises(DataError, match="row 2"):
            Dataset(x, y, 2.0)

    def test_rejects_y_above_bound_with_location(self):
        x, y = self._xy()
        y[3] = 2.5
        with pytest.raises(DataError, match="row 3"):
            Dataset(x, y, 2.0)

    def test_rejects_nan(self):
        x, y = self._xy()
        x[0, 0] = np.nan
        with pytest.raises(DataError, match="not finite"):
            Dataset(x, y, 2.0)
        x, y = self._xy()
        y[1] = np.inf
        with pytest.raises(DataError, match="not finite"):
            Dataset(x, y, 2.0)

    def test_rejects_bad_bound(self):
        x, y = self._xy()
        for r in (0.0, -1.0, np.inf, np.nan):
            with pytest.raises(DataError):
                Dataset(x, y, r)

    def test_shape_mismatch(self):
        x, y = self._xy()
        with pytest.raises(DataError):
            Dataset(x, y[:-1], 2.0)
        with pytest.raises(DataError):
            Dataset(x[0], y, 2.0)

    def test_arrays_are_read_only_copies(self):
        x, y = self._xy()
        ds = Dataset(x, y, 2.0)
        with pytest.raises(ValueError):
            ds.x[0, 0] = 0.0
        x[0, 0] = 0.987  # caller's array stays independent
        assert ds.x[0, 0] != 0.987

    def test_from_arrays_data_dependent_bound(self):
        x, y = self._xy()
        ds = Dataset.from_arrays(x, y)
        assert ds.response_bound == np.max(np.abs(y))
        assert ds.bound_is_data_dependent

    def test_from_arrays_explicit_bound_not_flagged(self):
        x, y = self._xy()
        ds = Dataset.from_arrays(x, y, response_bound=5.0)
        assert ds.response_bound == 5.0
        assert not ds.bound_is_data_dependent

    def test_from_arrays_zero_response_floors_bound(self):
        x = np.zeros((3, 2))
        y = np.zeros(3)
        ds = Dataset.from_arrays(x, y)
        assert ds.response_bound > 0


class TestSufficientStats:
    def test_squared_error_matches_residuals(self):
        # Oracle: the quadratic expansion the solver scores with,
        # yty - 2 b.xty + b.xtx.b, must equal the literal residual sum of
        # squares for any beta, not just optima.
        rng = np.random.default_rng(42)
        for _ in range(20):
            n, d = rng.integers(3, 30), rng.integers(1, 6)
            x = rng.uniform(-1, 1, (n, d))
            y = rng.uniform(-3, 3, n)
            beta = rng.normal(0, 2, d)
            stats = SufficientStats(x.T @ x, x.T @ y, float(y @ y), n)
            direct = float(np.sum((y - x @ beta) ** 2))
            expansion = stats.yty - 2.0 * beta @ stats.xty + beta @ stats.xtx @ beta
            assert expansion == pytest.approx(direct, rel=1e-9, abs=1e-9)

    def test_eigenvalue_range_is_the_extreme_eigenvalues(self):
        x = np.array([[1.0, 1.0, 0.0], [1.0, 0.0, 1.0], [1.0, 1.0, 0.0], [1.0, 0.0, 1.0]])
        stats = SufficientStats(x.T @ x, np.zeros(3), 0.0, 4)
        eig = np.linalg.eigvalsh(x.T @ x)
        assert stats.eigenvalue_range == (eig[0], eig[-1])
        # The intercept is the sum of the one-hot pair: X'X is singular.
        assert abs(stats.eigenvalue_range[0]) < 1e-12 and stats.eigenvalue_range[1] > 5.0
        assert "eigenvalue_range" not in repr(stats)

    def test_rejects_asymmetric(self):
        with pytest.raises(DataError, match="symmetric"):
            SufficientStats(np.array([[1.0, 0.5], [0.2, 1.0]]), np.zeros(2), 1.0, 3)

    def test_asymmetry_up_to_the_tolerance_is_accepted(self):
        # The tolerance is 1e-9 of the largest entry (at least 1): an
        # entry gap of exactly 1e-9 passes, and the matrix is symmetrized.
        stats = SufficientStats(np.array([[1.0, 1e-9], [0.0, 1.0]]), np.zeros(2), 1.0, 3)
        assert stats.xtx[0, 1] == stats.xtx[1, 0] == 5e-10
        with pytest.raises(DataError, match="symmetric"):
            SufficientStats(np.array([[1.0, 2e-9], [0.0, 1.0]]), np.zeros(2), 1.0, 3)

    def test_rejects_non_psd(self):
        bad = np.array([[1.0, 2.0], [2.0, 1.0]])  # eigenvalues 3 and -1
        with pytest.raises(DataError, match="semidefinite"):
            SufficientStats(bad, np.zeros(2), 1.0, 3)

    def test_rejects_negative_yty(self):
        with pytest.raises(DataError):
            SufficientStats(np.eye(2), np.zeros(2), -1.0, 3)

    def test_sufficient_stats_from_dataset(self):
        rng = np.random.default_rng(1)
        x = rng.uniform(-1, 1, (10, 3))
        y = rng.uniform(-1, 1, 10)
        stats = sufficient_stats(Dataset(x, y, 1.0))
        assert np.allclose(stats.xtx, x.T @ x)
        assert np.allclose(stats.xty, x.T @ y)
        assert stats.yty == pytest.approx(float(y @ y))
        assert stats.n == 10


class TestStandardize:
    def test_clip_truncates(self):
        x = np.array([[0.5, 1.4], [-2.0, 0.1]])
        y = np.array([3.0, -0.5])
        ds = standardize(x, y, "clip", response_bound=1.0)
        assert ds.x.max() <= 1.0 and ds.x.min() >= -1.0
        assert ds.x[0, 1] == 1.0 and ds.x[1, 0] == -1.0
        assert ds.y[0] == 1.0 and ds.y[1] == -0.5
        assert not ds.bound_is_data_dependent

    def test_clip_without_bound_flags_data_dependence(self):
        x = np.array([[0.5], [0.2]])
        y = np.array([4.0, -1.0])
        ds = standardize(x, y, "clip")
        assert ds.response_bound == 4.0
        assert ds.bound_is_data_dependent

    @pytest.mark.parametrize("x_ranges, y_range", [
        ([[0.0, math.nan]], [-2.0, 2.0]),
        ([[-math.inf, 10.0]], [-2.0, 2.0]),
        ([[0.0, math.inf]], [-2.0, 2.0]),
        ([[0.0, 10.0]], [math.nan, 2.0]),
        ([[0.0, 10.0]], [-2.0, math.inf]),
    ])
    def test_rescale_ranges_must_be_finite(self, x_ranges, y_range):
        # A NaN or infinite range used to pass the width check (NaN <= 0
        # is false) and fail later as a bounds error that blamed the data.
        x = np.array([[0.0], [5.0], [10.0]])
        y = np.array([-2.0, 0.0, 2.0])
        with pytest.raises(ConfigError, match="rescale ranges must be finite"):
            standardize(x, y, "rescale", x_ranges=x_ranges, y_range=y_range)

    def test_rescale_affine_maps(self):
        x = np.array([[0.0], [5.0], [10.0]])
        y = np.array([-2.0, 0.0, 2.0])
        ds = standardize(
            x, y, "rescale", response_bound=3.0, x_ranges=[[0.0, 10.0]], y_range=[-2.0, 2.0]
        )
        assert np.allclose(ds.x[:, 0], [-1.0, 0.0, 1.0])
        assert np.allclose(ds.y, [-3.0, 0.0, 3.0])
        assert not ds.bound_is_data_dependent

    def test_rescale_requires_ranges(self):
        with pytest.raises(ConfigError):
            standardize(np.zeros((2, 1)), np.zeros(2), "rescale")

    def test_rescale_rejects_zero_width(self):
        with pytest.raises(DataError, match="width"):
            standardize(
                np.zeros((2, 1)), np.zeros(2), "rescale",
                x_ranges=[[1.0, 1.0]], y_range=[0.0, 1.0],
            )

    @pytest.mark.parametrize("x_ranges, y_range", [
        ([["a", 1.0]], [0.0, 1.0]),
        ([[0.0, 1.0]], [0.0, "b"]),
        ([[0.0, 1.0]], [0.0]),
        ([[0.0, 1.0]], 5),
        ([[0.0, 1.0]], [[0.0, 1.0]]),
        (5, [0.0, 1.0]),
        ([[0.0, 1.0], [0.0]], [0.0, 1.0]),
        ({"a": 1}, [0.0, 1.0]),
    ])
    def test_rescale_rejects_malformed_ranges(self, x_ranges, y_range):
        # A non-numeric entry raised ValueError, a one-entry y IndexError
        # and a scalar y TypeError.
        with pytest.raises(ConfigError):
            standardize(np.zeros((2, 1)), np.zeros(2), "rescale",
                        x_ranges=x_ranges, y_range=y_range)

    def test_rescale_out_of_range_value_fails_validation(self):
        x = np.array([[12.0]])  # outside the declared [0, 10] range
        y = np.array([0.5])
        with pytest.raises(DataError):
            standardize(x, y, "rescale", x_ranges=[[0.0, 10.0]], y_range=[0.0, 1.0])

    def test_unknown_policy(self):
        with pytest.raises(ConfigError):
            standardize(np.zeros((2, 1)), np.zeros(2), "winsorize")


class TestLoadCsv:
    def _write(self, tmp_path, text, name="d.csv"):
        p = tmp_path / name
        p.write_text(text, encoding="utf-8")
        return p

    def test_reads_and_prepends_intercept(self, tmp_path):
        p = self._write(tmp_path, "y,a,b\n1.0,0.5,-0.5\n2.0,0.1,0.9\n")
        x, y, names = load_csv(p, "y")
        assert names == ["intercept", "a", "b"]
        assert x.shape == (2, 3)
        assert np.all(x[:, 0] == 1.0)
        assert y.tolist() == [1.0, 2.0]
        assert x[1, 2] == 0.9

    def test_without_intercept(self, tmp_path):
        p = self._write(tmp_path, "y,a\n1,0.5\n")
        x, y, names = load_csv(p, "y", include_intercept=False)
        assert names == ["a"]
        assert x.shape == (1, 1)

    def test_response_can_sit_anywhere(self, tmp_path):
        p = self._write(tmp_path, "a,y,b\n0.1,7.0,0.2\n")
        x, y, names = load_csv(p, "y", include_intercept=False)
        assert y.tolist() == [7.0]
        assert names == ["a", "b"]

    def test_missing_response_names_columns(self, tmp_path):
        p = self._write(tmp_path, "a,b\n1,2\n")
        with pytest.raises(ConfigError, match="a, b"):
            load_csv(p, "z")

    def test_non_numeric_cell_located(self, tmp_path):
        p = self._write(tmp_path, "y,a\n1.0,0.2\n2.0,oops\n")
        with pytest.raises(DataError, match=r"row 2.*'a'"):
            load_csv(p, "y")

    def test_ragged_row(self, tmp_path):
        p = self._write(tmp_path, "y,a,b\n1,2,3\n4,5\n")
        with pytest.raises(DataError):
            load_csv(p, "y")

    def test_empty_and_header_only(self, tmp_path):
        with pytest.raises(DataError):
            load_csv(self._write(tmp_path, "", "e.csv"), "y")
        with pytest.raises(DataError):
            load_csv(self._write(tmp_path, "y,a\n", "h.csv"), "y")

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError):
            load_csv(tmp_path / "nope.csv", "y")


class TestLoadCsvFormats:
    """What the csv rules accept and reject, pinned cell for cell, and the
    exact message of each rejection."""

    def _load(self, tmp_path, text, response="y"):
        p = tmp_path / "f.csv"
        p.write_bytes(text.encode("utf-8"))
        return load_csv(p, response, include_intercept=False)

    def _fails(self, tmp_path, text, error, message):
        with pytest.raises(error, match="^" + re.escape(message) + "$"):
            self._load(tmp_path, text)

    @pytest.mark.parametrize("text", [
        "y,a\n1,2\n\n3,4\n",  # blank line between rows
        "y,a\n1,2\n\n",  # blank line at the end
    ])
    def test_blank_line_is_a_row_without_cells(self, tmp_path, text):
        self._fails(tmp_path, text, DataError, "data row 2 has 0 cells, expected 2")

    def test_quoted_cells(self, tmp_path):
        x, y, names = self._load(tmp_path, '"y","a"\n"1.5","-2"\n3,"4e-1"\n')
        assert names == ["a"]
        assert y.tolist() == [1.5, 3.0] and x[:, 0].tolist() == [-2.0, 0.4]

    def test_spaces_around_numbers(self, tmp_path):
        x, y, _ = self._load(tmp_path, "y, a\n 1.5 ,2\t\n-3,  0.25 \n")
        assert y.tolist() == [1.5, -3.0] and x[:, 0].tolist() == [2.0, 0.25]

    def test_nan_and_inf_parse_as_floats(self, tmp_path):
        # Non-finite values load; Dataset validation rejects them next.
        x, y, _ = self._load(tmp_path, "y,a\nnan,inf\n-Infinity,NaN\n")
        assert np.isnan(y[0]) and y[1] == -np.inf
        assert x[0, 0] == np.inf and np.isnan(x[1, 0])

    @pytest.mark.parametrize("end", ["\r\n", "\r"])
    def test_carriage_return_line_endings(self, tmp_path, end):
        x, y, names = self._load(tmp_path, end.join(["y,a", "1,2", "3,4", ""]))
        assert names == ["a"]
        assert y.tolist() == [1.0, 3.0] and x[:, 0].tolist() == [2.0, 4.0]

    def test_bare_carriage_return_before_a_blank_line(self, tmp_path):
        # The "\r" ends a csv row inside the first "\n" line, so a count of
        # lines matches a count of rows that skips the blank one.
        self._fails(tmp_path, "y,a\n1,2\r3,4\n\n", DataError, "data row 3 has 0 cells, expected 2")

    def test_missing_final_newline(self, tmp_path):
        x, y, _ = self._load(tmp_path, "y,a\n1,2\n3,4")
        assert y.tolist() == [1.0, 3.0] and x[:, 0].tolist() == [2.0, 4.0]

    def test_ragged_row_message(self, tmp_path):
        self._fails(tmp_path, "y,a,b\n1,2,3\n4,5\n", DataError, "data row 2 has 2 cells, expected 3")

    def test_non_numeric_message(self, tmp_path):
        self._fails(tmp_path, "y,a\n1.0,0.2\n2.0, oops \n", DataError,
                    "non-numeric value 'oops' at data row 2, column 'a'")
        self._fails(tmp_path, "y,a\n1.0,\n", DataError,
                    "non-numeric value '' at data row 1, column 'a'")

    def test_empty_header_only_and_missing_response_messages(self, tmp_path):
        p = tmp_path / "f.csv"
        self._fails(tmp_path, "", DataError, f"{p} is empty")
        self._fails(tmp_path, "y,a\n", DataError, f"{p} has a header but no data rows")
        self._fails(tmp_path, "y,a", DataError, f"{p} has a header but no data rows")
        with pytest.raises(ConfigError, match="^" + re.escape(
                "response column 'z' not found; available columns: y, a") + "$"):
            self._load(tmp_path, "y,a\n1,2\n", response="z")

    def test_byte_order_mark_is_dropped(self, tmp_path):
        # Excel's "CSV UTF-8" export starts the file with U+FEFF.
        x, y, names = self._load(tmp_path, "\ufeffy,a\r\n1,2\r\n3,4\r\n")
        assert names == ["a"]
        assert y.tolist() == [1.0, 3.0] and x[:, 0].tolist() == [2.0, 4.0]

    def test_non_utf8_file_message(self, tmp_path):
        p = tmp_path / "f.csv"
        p.write_bytes(b"y,a\n1,\xe9\n")
        with pytest.raises(DataError, match="^" + re.escape(
                f"cannot read {p}: 'utf-8' codec can't decode byte 0xe9 in position 6: "
                "invalid continuation byte") + "$"):
            load_csv(p, "y")

    def test_non_utf8_byte_past_the_first_chunk_keeps_its_file_position(self, tmp_path):
        # The file is read in chunks; the message still counts the byte's
        # position from the file's start, after the byte order mark.
        p = tmp_path / "f.csv"
        raw = ("y,a\n" + "1.5,2.5\n" * 10_000).encode()
        p.write_bytes(b"\xef\xbb\xbf" + raw[:50_000] + b"\xe9" + raw[50_001:])
        with pytest.raises(DataError, match="^" + re.escape(
                f"cannot read {p}: 'utf-8' codec can't decode byte 0xe9 in position 50000: "
                "invalid continuation byte") + "$"):
            load_csv(p, "y")

    def test_plain_body_peaks_at_a_few_times_the_file(self, tmp_path):
        # About 400 KB of 17-digit cells, as in the select benchmark.  The
        # file is read once, as bytes, and the body is parsed in place: no
        # decoded text and no copy of the body live beside those bytes.
        # Measured at 2.29 times the file; with a decoded text and a bytes
        # copy of it beside the block temporaries it was 3.45.
        import tracemalloc

        rng = np.random.default_rng(5)
        p = tmp_path / "big.csv"
        header = ",".join([f"x{j}" for j in range(19)] + ["y"])
        np.savetxt(p, rng.uniform(-1, 1, (1000, 20)), fmt="%.17g", delimiter=",",
                   header=header, comments="")
        size = p.stat().st_size
        assert 350_000 < size < 450_000
        tracemalloc.start()
        try:
            load_csv(p, "y")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.6 * size

    @pytest.mark.parametrize("sep", ["\x1c", "\x1d", "\x1e", "\x1f"])
    def test_separator_controls_are_rejected_and_shown(self, tmp_path, sep):
        # str.isspace() holds for these four controls, but float() rejects
        # them: the csv rules decide, and the message keeps the control
        # that str.strip() would hide.
        self._fails(tmp_path, f"y,a\n1{sep},0.5\n2,0.1\n", DataError,
                    f"non-numeric value {'1' + sep!r} at data row 1, column 'y'")
        self._fails(tmp_path, f"y,a\n1,0.5\n2, 0.1{sep} \n", DataError,
                    f"non-numeric value {'0.1' + sep!r} at data row 2, column 'a'")

    @pytest.mark.parametrize("text, name, first, second", [
        ("y,a,y\n1,2,3\n", "y", 1, 3),
        ("y, a ,b,a\n1,2,3,4\n", "a", 2, 4),
    ])
    def test_duplicate_column_name_message(self, tmp_path, text, name, first, second):
        p = tmp_path / "f.csv"
        self._fails(tmp_path, text, DataError,
                    f"{p} names column {name!r} twice, at columns {first} and {second}")

    def test_fast_parse_matches_the_csv_rules_bit_for_bit(self, tmp_path):
        from dpms.data import _decimal_rows, _parse_rows

        rng = np.random.default_rng(3)
        values = np.column_stack([rng.uniform(-1, 1, (300, 12)), rng.normal(0, 1, 300)])
        values[::7, 3] *= 1e-300
        p = tmp_path / "big.csv"
        header = ",".join([f"x{j}" for j in range(12)] + ["y"])
        np.savetxt(p, values, fmt="%.17g", delimiter=",", header=header, comments="")
        body = p.read_text(encoding="utf-8").split("\n", 1)[1]
        slow = _parse_rows(body, header.split(","))
        assert slow.tobytes() == values.tobytes()
        # More than one block, and cells with |q| > 27 read by float().
        assert len(body) > 1 << 16
        assert _decimal_rows(body.encode(), 0, 13).tobytes() == values.tobytes()
        x, y, _ = load_csv(p, "y", include_intercept=False)
        assert x.tobytes() == values[:, :12].tobytes() and y.tobytes() == values[:, 12].tobytes()

    def test_load_csv_matches_the_csv_rules_on_random_texts(self, tmp_path):
        """Differential test: ``load_csv`` against ``_parse_rows`` on texts
        that mix line endings, quoting, spacing and number spellings.  An
        accepted text must give the same bytes; a rejected one the same
        message.  About half the texts are plain, so the integer-significand
        route reads them."""
        from dpms.data import _decimal_rows, _parse_rows

        rng = np.random.default_rng(14)
        specials = ["nan", "NaN", "-nan", "inf", "-inf", "+Inf", "Infinity", "-INFINITY"]

        def spell(v, plain):
            kind = rng.integers(1 if plain else 0, 12)
            if kind == 0:
                return specials[rng.integers(len(specials))]
            if kind == 1:
                return f"{v:.6e}".replace("e", "eE"[rng.integers(2)])
            if kind == 2:
                return repr(float(v) * 1e-310)  # subnormal
            if kind == 3:
                return str(int(v * 1000))  # an integer
            if kind == 4:
                return f"{v:.18e}"  # 19 digits, exponent and all
            if kind == 5:
                return f"{v:+.17g}"  # a leading sign, + or -
            if kind == 6:
                return f"{v:.3f}".replace("0.", ".", 1)  # .5
            if kind == 7:
                return f"{v * 100:.0f}."  # 5., and -0. for a small v
            if kind == 8:
                return f"{v * 1e-3:.19g}"  # 19 significant digits after zeros
            return f"{v:.17g}"

        def dress(cell):
            cell = " " * rng.integers(3) + cell + "\t" * rng.integers(2)
            return f'"{cell}"' if rng.random() < 0.2 else cell

        decimal_taken = checked = 0
        for case in range(400):
            plain = rng.random() < 0.5
            width, rows = int(rng.integers(2, 5)), int(rng.integers(1, 6))
            eol = ("\n", "\r\n", "\r")[rng.choice(3, p=[0.45, 0.45, 0.1])]
            names = [f"c{j}" for j in range(width)]
            y_col = int(rng.integers(width))
            names[y_col] = "y"
            if rng.random() < 0.2:  # a quoted header name that spans a line
                names[(y_col + 1) % width] = f"a{eol}b"
            header = ",".join(f'"{n}"' for n in names)
            lines = [",".join(spell(v, plain) if plain else dress(spell(v, plain))
                              for v in rng.normal(0, 1, width)) for _ in range(rows)]
            if rng.random() < 0.15:
                lines.insert(int(rng.integers(rows + 1)), "")  # blank line
            if rng.random() < 0.1:
                lines.insert(int(rng.integers(rows + 1)), "  ")  # whitespace-only line
            if rng.random() < 0.1:
                lines[-1] += ",1"  # ragged row
            if rng.random() < 0.1:
                lines[0] = lines[0].rsplit(",", 1)[0] + f',"1.5{eol}"'  # quoted cell over a line
            ends = [eol] * len(lines)
            if rng.random() < 0.3:  # mixed line endings
                ends[int(rng.integers(len(lines)))] = ("\n", "\r\n", "\r")[rng.integers(3)]
            body = "".join(map(str.__add__, lines, ends))
            if rng.random() < 0.3:
                body = body[: len(body) - len(ends[-1])]  # no final line end
            p = tmp_path / f"r{case}.csv"
            p.write_bytes((header + eol + body).encode("utf-8"))
            try:
                want = _parse_rows(body, names)
            except DataError as exc:
                assert _decimal_rows(body.encode(), 0, width) is None, case
                with pytest.raises(DataError, match="^" + re.escape(str(exc)) + "$"):
                    load_csv(p, "y", include_intercept=False)
                continue
            x, y, got_names = load_csv(p, "y", include_intercept=False)
            assert got_names == [n for j, n in enumerate(names) if j != y_col]
            assert y.tobytes() == want[:, y_col].tobytes(), case
            assert x.tobytes() == np.delete(want, y_col, axis=1).tobytes(), case
            checked += 1
            decimal_taken += _decimal_rows(body.encode(), 0, width) is not None
        # Both routes were compared, not just the csv rules with themselves.
        assert checked > 200 and decimal_taken > 100

    def test_near_midpoint_cells_match_float_bit_for_bit(self, monkeypatch):
        """Decimals at and next to the midpoints between doubles, with 16
        to 18 digits and |q| <= 27: the cells whose 64-bit quotient lands on
        a 53-bit midpoint must be read by float(), and every cell must come
        out as float() reads it."""
        import math
        from decimal import Decimal

        from dpms import data

        rng = np.random.default_rng(8)
        cells = [str(2**53 + k) for k in (1, 3, 5)]  # exact midpoints, 16 digits
        for _ in range(3000):
            d = float(rng.uniform(-1, 1)) * 10.0 ** int(rng.integers(-8, 9))
            mid = Decimal(d) + Decimal(math.copysign(math.ulp(d), d)) / 2
            cells.append(f"{mid:.{int(rng.integers(15, 18))}e}")
        cells = cells[: len(cells) // 4 * 4]
        body = "\n".join(",".join(cells[i:i + 4]) for i in range(0, len(cells), 4)) + "\n"
        read = []

        def spy(text):
            read.append(text.decode())
            return float(text)

        monkeypatch.setattr(data, "float", spy, raising=False)
        got = data._decimal_rows(body.encode(), 0, 4)
        assert got.tobytes() == np.array([float(c) for c in cells]).reshape(-1, 4).tobytes()
        # Only the midpoint rule sends these cells to float().
        assert cells[:3] == read[:3] and len(read) > 3

    def test_positive_exponents_take_the_fast_route(self):
        # q > 0 multiplies by 10^q; 1e28 is past the exact powers and
        # takes float().
        from dpms.data import _decimal_rows

        cells = ["1e5", "-2.5E+22", "12e3", "9.5e26", "7e27", "1e28"]
        body = "\n".join(",".join(cells[i:i + 3]) for i in (0, 3)) + "\n"
        got = _decimal_rows(body.encode(), 0, 3)
        assert isinstance(got, np.ndarray)
        assert got.tobytes() == np.array([float(c) for c in cells]).reshape(2, 3).tobytes()

    def test_without_the_x87_long_double_the_csv_rules_read_the_body(self, tmp_path, monkeypatch):
        from dpms import data

        p = tmp_path / "f.csv"
        p.write_text("y,a\n1.25,-0.5\n3e-5,.75\n-0.,+2\n", encoding="utf-8")
        x, y, _ = load_csv(p, "y", include_intercept=False)
        assert y.tobytes() == np.array([1.25, 3e-5, -0.0]).tobytes()
        parse_rows, headers = data._parse_rows, []
        monkeypatch.setattr(data, "_LONG_DOUBLE_IS_X87", False)
        monkeypatch.setattr(data, "_parse_rows",
                            lambda body, header: headers.append(header) or parse_rows(body, header))
        assert data._decimal_rows(b"1.25,-0.5\n", 0, 2) is None
        x_off, y_off, _ = load_csv(p, "y", include_intercept=False)
        assert headers == [["y", "a"]]
        assert x_off.tobytes() == x.tobytes() and y_off.tobytes() == y.tobytes()

    @pytest.mark.parametrize("cell, value", [
        ("1e", None),
        ("-2.5E+", None),
        ("1e0000000000000000001", 10.0),  # a 19-digit exponent
        ("2.5e-0000000000000000003", 0.0025),
    ])
    def test_an_empty_or_19_digit_exponent_takes_the_csv_rules(self, tmp_path, cell, value):
        # The plain route declines a cell whose exponent has no digit or
        # more than 18; the csv rules then give float()'s bits or its
        # row-numbered error.
        from dpms.data import _decimal_rows

        text = f"y,a\n0.5,1.5\n0.25,{cell}\n"
        assert _decimal_rows(text.encode(), len("y,a\n"), 2) is None
        if value is None:
            self._fails(tmp_path, text, DataError,
                        f"non-numeric value '{cell}' at data row 2, column 'a'")
        else:
            x, _, _ = self._load(tmp_path, text)
            assert x[:, 0].tobytes() == np.array([1.5, float(cell)]).tobytes()
            assert x[1, 0] == value

    @pytest.mark.parametrize("row, message", [
        ("0.5,1,2", "data row {n} has 3 cells, expected 2"),
        ("0.5\n1.5", "data row {n} has 1 cells, expected 2"),  # two cells, two rows
        ("0.5,1.2.3", "non-numeric value '1.2.3' at data row {n}, column 'a'"),
        ("0.5,-", "non-numeric value '-' at data row {n}, column 'a'"),
        ("0.5,1-2", "non-numeric value '1-2' at data row {n}, column 'a'"),
        ("1e5+,0.5", "non-numeric value '1e5+' at data row {n}, column 'y'"),
        ("0.5, 1", None),
    ])
    def test_a_row_past_the_first_block_keeps_its_message(self, tmp_path, row, message):
        from dpms.data import _BLOCK_BYTES, _decimal_rows

        rows = ["-0.12345678901234567,1.5"] * 6000
        n = 4000
        assert len("\n".join(rows[:n])) > _BLOCK_BYTES
        assert _decimal_rows("\n".join(rows).encode(), 0, 2) is not None
        rows[n - 1] = row
        text = "y,a\n" + "\n".join(rows) + "\n"
        assert _decimal_rows(text.encode(), len("y,a\n"), 2) is None
        if message is None:  # not plain, and the csv rules read it
            x, y, _ = self._load(tmp_path, text)
            assert x[n - 1, 0] == 1.0 and y.shape == (6000,)
        else:
            self._fails(tmp_path, text, DataError, message.format(n=n))
