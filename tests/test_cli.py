"""Command line behavior: flags, exit codes, config files, outputs."""

import hashlib
import json
import re

import numpy as np
import pytest

from dpms.cli import main


@pytest.fixture()
def demo_csv(tmp_path):
    rng = np.random.default_rng(5)
    x = rng.uniform(-1, 1, (80, 3))
    y = x @ np.array([0.8, -0.6, 0.0]) + rng.normal(0, 0.2, 80)
    y = np.clip(y, -1.8, 1.8)
    lines = ["y,a,b,c"]
    for i in range(80):
        lines.append(f"{y[i]:.6f},{x[i, 0]:.6f},{x[i, 1]:.6f},{x[i, 2]:.6f}")
    path = tmp_path / "demo.csv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def _select_args(demo_csv, *extra):
    return [
        "select", "--input", str(demo_csv), "--response", "y",
        "--R", "2.0", "--phi", "2.0", "--epsilon", "2.0", "--seed", "11",
        *extra,
    ]


def _commitment(seed):
    return hashlib.sha256(seed.to_bytes(16, "little")).hexdigest()


class TestSelect:
    def test_writes_json_to_stdout(self, demo_csv, capsys):
        assert main(_select_args(demo_csv)) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["key_sha256"] == _commitment(11) and doc["stream_id"] == 0
        assert doc["mechanism"] == "noisy_argmin"
        assert doc["R"] == 2.0
        # intercept prepended: 4 covariates, nonempty family
        assert doc["n_models"] == 2**4 - 1

    def test_default_report_is_index_only(self, demo_csv, capsys):
        assert main(_select_args(demo_csv)) == 0
        text = capsys.readouterr().out
        doc = json.loads(text)
        assert "seed" not in doc and "models" not in doc
        assert "noisy_score" not in text and "clean_score" not in text

    def test_keyless_runs_draw_fresh_keys(self, demo_csv, capsys):
        args = [a for a in _select_args(demo_csv) if a not in ("--seed", "11")]
        docs = []
        for _ in range(2):
            assert main(args) == 0
            docs.append(json.loads(capsys.readouterr().out))
        assert docs[0]["key_sha256"] != docs[1]["key_sha256"]
        assert docs[0]["n_models"] == docs[1]["n_models"] == 2**4 - 1

    def test_out_file_and_summary(self, demo_csv, tmp_path, capsys):
        out = tmp_path / "report.json"
        assert main(_select_args(demo_csv, "--out", str(out))) == 0
        printed = capsys.readouterr().out
        assert "chosen model:" in printed
        assert str(out) in printed
        doc = json.loads(out.read_text(encoding="utf-8"))
        assert doc["phi_n"] == 2.0

    def test_deterministic_given_seed(self, demo_csv, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        main(_select_args(demo_csv, "--out", str(a)))
        main(_select_args(demo_csv, "--out", str(b)))
        assert a.read_bytes() == b.read_bytes()
        c = tmp_path / "c.json"
        main([
            "select", "--input", str(demo_csv), "--response", "y",
            "--R", "2.0", "--phi", "2.0", "--epsilon", "2.0", "--seed", "12",
            "--out", str(c),
        ])
        assert a.read_bytes() != c.read_bytes()

    def test_size_capped_family(self, demo_csv, capsys):
        assert main(_select_args(demo_csv, "--models", "size<=2")) == 0
        assert json.loads(capsys.readouterr().out)["n_models"] == 4 + 6
        assert main(_select_args(demo_csv, "--models", "size<=2", "--debug-unsafe")) == 0
        doc = json.loads(capsys.readouterr().out)
        assert all(len(m["mask"]) <= 2 for m in doc["models"])
        assert len(doc["models"]) == 4 + 6

    def test_all_models_include_the_empty_mask(self, demo_csv, capsys):
        assert main(_select_args(demo_csv, "--models", "all")) == 0
        assert json.loads(capsys.readouterr().out)["n_models"] == 2**4
        assert main(_select_args(demo_csv, "--models", "all", "--debug-unsafe")) == 0
        masks = [m["mask"] for m in json.loads(capsys.readouterr().out)["models"]]
        assert len(masks) == 2**4 and masks.count([]) == 1

    def test_explicit_family_file(self, demo_csv, tmp_path, capsys):
        fam = tmp_path / "fam.json"
        fam.write_text("[[1], [1, 2], [1, 2, 3]]", encoding="utf-8")
        assert main(_select_args(demo_csv, "--models", f"@{fam}", "--debug-unsafe")) == 0
        doc = json.loads(capsys.readouterr().out)
        assert [m["mask"] for m in doc["models"]] == [[1], [1, 2], [1, 2, 3]]

    @pytest.mark.parametrize("family", ['[[1], [2.5]]', "[[true]]", '[["3"]]'])
    def test_non_integer_indices_in_family_file_are_usage_errors(
        self, demo_csv, tmp_path, capsys, family
    ):
        # These used to be read with int(): 2.5 selected covariate 2, true
        # covariate 1 and "3" covariate 3, without a word.
        fam = tmp_path / "fam.json"
        fam.write_text(family, encoding="utf-8")
        assert main(_select_args(demo_csv, "--models", f"@{fam}")) == 2
        assert "covariate index must be an integer" in capsys.readouterr().err

    @pytest.mark.parametrize("family", [
        "[[0]]", "[[5]]", "[[1], [2, 7]]", "[]", '[["a"]]', "[[1.5]]", "[[true]]", "[[null]]",
        '{"models": [[1]]}', "[1, 2]", "[[1], 2]",
    ])
    def test_every_content_error_of_a_family_file_is_one_usage_error_line(
        self, demo_csv, tmp_path, capsys, family
    ):
        # An index out of [1, 4] and an empty list used to exit 1, as data
        # errors, while a non-integer exited 2: each is a fault of the
        # file, and its one error line names it.
        fam = tmp_path / "fam.json"
        fam.write_text(family, encoding="utf-8")
        assert main(_select_args(demo_csv, "--models", f"@{fam}")) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {fam}") and captured.err.count("\n") == 1

    @pytest.mark.parametrize("spec", ["size<=x", "size<=", "size<=2.5"])
    def test_a_bad_size_cap_is_a_usage_error(self, demo_csv, capsys, spec):
        assert main(_select_args(demo_csv, "--models", spec)) == 2
        assert "error: bad size cap in --models" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, value, message", [
        ("--R", "0", "radius must be a positive finite float"),
        ("--R", "inf", "radius must be a positive finite float"),
        ("--phi", "-1", "penalty must be a nonnegative finite float"),
        ("--phi", "nan", "penalty must be a nonnegative finite float"),
    ])
    def test_a_radius_or_penalty_out_of_range_is_a_usage_error(self, demo_csv, capsys, flag,
                                                               value, message):
        assert main(_select_args(demo_csv, flag, value)) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and message in captured.err

    def test_debug_unsafe_exposes_clean_scores(self, demo_csv, capsys):
        assert main(_select_args(demo_csv, "--debug-unsafe")) == 0
        doc = json.loads(capsys.readouterr().out)
        assert all("clean_score" in m for m in doc["models"])
        assert doc["seed"] == [11, 0]

    def test_no_intercept(self, demo_csv, capsys):
        assert main(_select_args(demo_csv, "--no-include-intercept")) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["n_models"] == 2**3 - 1

    def test_pcpl_path(self, demo_csv, capsys):
        args = _select_args(demo_csv, "--algorithm", "pcpl", "--delta", "1e-6")
        assert main(args) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["epsilon_total"] == 4.0  # two stages of 2 * epsilon
        assert "g_of_d" in doc

    def test_missing_required_flag_is_usage_error(self, demo_csv, capsys):
        code = main(["select", "--input", str(demo_csv), "--response", "y"])
        assert code == 2
        assert "missing required option" in capsys.readouterr().err

    def test_response_bound_violation_is_data_error(self, demo_csv, capsys):
        code = main(_select_args(demo_csv, "--r", "0.5"))
        assert code == 1
        assert "row" in capsys.readouterr().err

    def test_solver_failure_is_error_exit(self, demo_csv, capsys, monkeypatch):
        # A step of 4/L makes the objective rise; the CLI reports it.  Only
        # binding masks that neither their first KKT candidate nor the
        # lasso path settle take projected-gradient steps: R = 0.2 leaves
        # some once the path is switched off.  A default select settles
        # only the fits that can win; the debug report settles them all.
        from dpms import solver

        monkeypatch.setattr(solver, "_homotopy", lambda a, member, *rest: np.zeros(member.shape))
        exact = solver._masked_top_eigenvalue
        monkeypatch.setattr(
            solver, "_masked_top_eigenvalue", lambda a, member: exact(a, member) / 4.0
        )
        code = main(_select_args(demo_csv, "--R", "0.2", "--debug-unsafe"))
        assert code == 1
        err = capsys.readouterr().err
        assert "error:" in err and "objective increased" in err

    def test_more_than_64_covariates_is_data_error(self, tmp_path, capsys):
        # 64 columns plus the intercept: keyed draws hash a mask as one
        # 64-bit word, so even a one-mask family cannot be released.
        rng = np.random.default_rng(3)
        data = np.column_stack([rng.uniform(-1, 1, (20, 64)), rng.uniform(-1, 1, 20)])
        path = tmp_path / "wide.csv"
        header = ",".join([f"x{j}" for j in range(1, 65)] + ["y"])
        np.savetxt(path, data, fmt="%.6f", delimiter=",", header=header, comments="")
        fam = tmp_path / "family.json"
        fam.write_text("[[1]]", encoding="utf-8")
        code = main(_select_args(path, "--r", "1.0", "--models", f"@{fam}"))
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_non_utf8_file_is_data_error(self, tmp_path, capsys):
        # Excel's plain "CSV" export writes cp1252: an accented cell is one
        # byte that is not UTF-8.
        path = tmp_path / "latin.csv"
        path.write_bytes("y,a\n1,0.5\n2,caf\u00e9\n".encode("cp1252"))
        code = main(_select_args(path))
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot read {path}: 'utf-8' codec can't decode byte 0xe9")

    def test_pcpl_without_delta_is_usage_error(self, demo_csv, capsys):
        code = main(_select_args(demo_csv, "--algorithm", "pcpl"))
        assert code == 2

    def test_pcpl_epsilon_whose_double_overflows_is_usage_error(self, demo_csv, capsys):
        # It used to release the family's first mask under NaN keys and
        # print "epsilon_total": "inf".
        args = _select_args(demo_csv, "--algorithm", "pcpl", "--delta", "1e-6")
        args[args.index("--epsilon") + 1] = "1e308"
        assert main(args) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "pcpl spends 2 * epsilon, which overflows for epsilon = 1e+308" in captured.err

    @pytest.mark.parametrize("flag, value, message", [
        ("--R", "1e200", "score width (r + R)**2 overflows"),
        ("--epsilon", "1e-320", "Laplace scale 2 * width / epsilon overflows"),
        ("--phi", "1e308", "penalty * d overflows"),
    ])
    def test_an_overflowing_noise_law_or_penalty_is_one_usage_error_line(
        self, demo_csv, capsys, monkeypatch, flag, value, message
    ):
        # R = 1e200 ended in a bare OverflowError; epsilon = 1e-320 and
        # phi = 1e308 released, and under --debug-unsafe ended in a bare
        # ValueError on inf.  Nothing past the CSV read runs now.
        from dpms import selection

        def no_stats(dataset):
            raise AssertionError("sufficient_stats ran before the check")

        monkeypatch.setattr(selection, "sufficient_stats", no_stats)
        args = _select_args(demo_csv, "--debug-unsafe")
        args[args.index(flag) + 1] = value
        assert main(args) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert message in captured.err

    @pytest.mark.parametrize("value", ["0", "nan", "inf", "-3"])
    @pytest.mark.parametrize("command", [
        ["select", "--R", "1", "--phi", "1", "--epsilon", "1", "--seed", "1"],
        ["select", "--R", "1", "--phi", "1", "--epsilon", "1", "--seed", "1",
         "--standardize", "clip"],
        ["validate"],
    ])
    def test_a_bad_response_bound_is_a_usage_error_before_the_csv_is_read(
        self, demo_csv, capsys, monkeypatch, command, value
    ):
        # It used to exit 1 with the Dataset's "response_bound must be
        # positive and finite".
        from dpms import cli

        def no_read(*args):
            raise AssertionError("the CSV was read before --r was checked")

        monkeypatch.setattr(cli, "load_csv", no_read)
        args = [*command, "--input", str(demo_csv), "--response", "y", "--r", value]
        assert main(args) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: --r must be positive and finite, got {float(value)}\n"

    def test_non_utf8_family_file_is_usage_error(self, demo_csv, tmp_path, capsys):
        # A bare UnicodeDecodeError traceback before.
        fam = tmp_path / "fam.json"
        fam.write_bytes(b"[[1], [\xe9]]")
        assert main(_select_args(demo_csv, "--models", f"@{fam}")) == 2
        assert f"cannot read model list {fam}: 'utf-8' codec" in capsys.readouterr().err

    def test_non_utf8_ranges_file_is_usage_error(self, tmp_path, capsys):
        # A bare UnicodeDecodeError traceback before.
        p = tmp_path / "raw.csv"
        p.write_text("y,a\n10.0,100.0\n-10.0,0.0\n0.0,50.0\n", encoding="utf-8")
        ranges = tmp_path / "ranges.json"
        ranges.write_bytes('{"x": [[0.0, 100.0]], "y": [-10.0, 10.0]} \u00e9'.encode("cp1252"))
        args = [
            "select", "--input", str(p), "--response", "y",
            "--R", "1.0", "--phi", "0.0", "--epsilon", "1.0", "--seed", "1",
            "--standardize", "rescale", "--ranges", str(ranges),
        ]
        assert main(args) == 2
        assert f"cannot read ranges file {ranges}: 'utf-8' codec" in capsys.readouterr().err

    def test_out_in_a_missing_directory_is_usage_error(self, demo_csv, tmp_path, capsys):
        # A bare FileNotFoundError traceback before.
        out = tmp_path / "missing" / "report.json"
        assert main(_select_args(demo_csv, "--out", str(out))) == 2
        assert f"error: cannot write {out}" in capsys.readouterr().err

    def test_bad_models_spec(self, demo_csv):
        assert main(_select_args(demo_csv, "--models", "stepwise")) == 2

    def test_unknown_flag_exits_two(self, demo_csv):
        with pytest.raises(SystemExit) as err:
            main(_select_args(demo_csv, "--bogus"))
        assert err.value.code == 2

    def test_clip_standardization(self, tmp_path, capsys):
        p = tmp_path / "wide.csv"
        p.write_text("y,a\n5.0,2.0\n-3.0,-4.0\n1.0,0.5\n", encoding="utf-8")
        args = [
            "select", "--input", str(p), "--response", "y",
            "--R", "1.0", "--phi", "0.0", "--epsilon", "1.0", "--seed", "1",
            "--standardize", "clip", "--r", "1.0",
        ]
        assert main(args) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["r"] == 1.0 and doc["r_data_dependent"] is False

    def test_rescale_standardization(self, tmp_path, capsys):
        p = tmp_path / "raw.csv"
        p.write_text("y,a\n10.0,100.0\n-10.0,0.0\n0.0,50.0\n", encoding="utf-8")
        ranges = tmp_path / "ranges.json"
        ranges.write_text('{"x": [[0.0, 100.0]], "y": [-10.0, 10.0]}', encoding="utf-8")
        args = [
            "select", "--input", str(p), "--response", "y",
            "--R", "1.0", "--phi", "0.0", "--epsilon", "1.0", "--seed", "1",
            "--standardize", "rescale", "--ranges", str(ranges),
        ]
        assert main(args) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["r"] == 1.0


    def test_list_shaped_ranges_file_is_usage_error(self, tmp_path, capsys):
        # A JSON list used to end in a bare AttributeError traceback.
        p = tmp_path / "raw.csv"
        p.write_text("y,a\n10.0,100.0\n-10.0,0.0\n0.0,50.0\n", encoding="utf-8")
        ranges = tmp_path / "ranges.json"
        ranges.write_text("[[0.0, 100.0], [-10.0, 10.0]]", encoding="utf-8")
        args = [
            "select", "--input", str(p), "--response", "y",
            "--R", "1.0", "--phi", "0.0", "--epsilon", "1.0", "--seed", "1",
            "--standardize", "rescale", "--ranges", str(ranges),
        ]
        assert main(args) == 2
        assert "must hold a JSON object with keys x and y" in capsys.readouterr().err

    @pytest.mark.parametrize("intercept", ["--include-intercept", "--no-include-intercept"])
    @pytest.mark.parametrize("ranges", [
        '{"x": [["a", 100.0]], "y": [-10.0, 10.0]}',
        '{"x": [[0.0, 100.0]], "y": [-10.0, "b"]}',
        '{"x": [[0.0, 100.0]], "y": [-10.0]}',
        '{"x": [[0.0, 100.0]], "y": 5}',
        '{"x": 5, "y": [-10.0, 10.0]}',
        '{"x": [[0.0, 100.0]]}',
        # NaN and Infinity are JSON extensions that json.loads accepts;
        # they used to fail later, as a bounds error that blamed the data.
        '{"x": [[0.0, NaN]], "y": [-10.0, 10.0]}',
        '{"x": [[-Infinity, 100.0]], "y": [-10.0, 10.0]}',
        '{"x": [[0.0, Infinity]], "y": [-10.0, 10.0]}',
        '{"x": [[0.0, 100.0]], "y": [NaN, 10.0]}',
    ])
    def test_a_malformed_ranges_file_is_one_usage_error_line(self, tmp_path, capsys, ranges,
                                                             intercept):
        # Each of these ended in a bare ValueError, IndexError or TypeError
        # traceback.
        p = tmp_path / "raw.csv"
        p.write_text("y,a\n10.0,100.0\n-10.0,0.0\n0.0,50.0\n", encoding="utf-8")
        path = tmp_path / "ranges.json"
        path.write_text(ranges, encoding="utf-8")
        args = [
            "select", "--input", str(p), "--response", "y",
            "--R", "1.0", "--phi", "0.0", "--epsilon", "1.0", "--seed", "1",
            "--standardize", "rescale", "--ranges", str(path), intercept,
        ]
        assert main(args) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1

    def test_covariate_named_intercept_is_data_error(self, tmp_path, capsys):
        # With the added intercept this file used to give two covariates
        # named "intercept".
        p = tmp_path / "clash.csv"
        p.write_text("y,intercept,b\n0.5,1.0,0.2\n-0.3,1.0,-0.4\n0.1,1.0,0.9\n", encoding="utf-8")
        args = [
            "select", "--input", str(p), "--response", "y",
            "--R", "1.0", "--phi", "0.0", "--epsilon", "1.0", "--seed", "1",
        ]
        assert main(args) == 1
        assert "--no-include-intercept" in capsys.readouterr().err
        assert main(args + ["--no-include-intercept"]) == 0
        assert json.loads(capsys.readouterr().out)["n_models"] == 2**2 - 1


class TestConfigFile:
    def test_config_supplies_defaults_cli_wins(self, demo_csv, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "# defaults for the demo\n"
            f"input = {demo_csv}\n"
            "response = y\n"
            "R = 2.0\n"
            "phi = 9.0\n"
            "epsilon = 2.0\n"
            "seed = 3\n",
            encoding="utf-8",
        )
        assert main(["select", "--config", str(cfg)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["phi_n"] == 9.0 and doc["key_sha256"] == _commitment(3)

        assert main(["select", "--config", str(cfg), "--phi", "1.5"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["phi_n"] == 1.5  # command line beats the file

    def test_config_defaults_do_not_outlive_their_run(self, demo_csv, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            f"input = {demo_csv}\nresponse = y\nR = 2.0\nphi = 9.0\nepsilon = 2.0\n"
            "seed = 3\ndebug_unsafe = true\n",
            encoding="utf-8",
        )
        assert main(["select", "--config", str(cfg)]) == 0
        assert json.loads(capsys.readouterr().out)["phi_n"] == 9.0

        assert main(_select_args(demo_csv)) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["phi_n"] == 2.0 and doc["key_sha256"] == _commitment(11)
        assert "models" not in doc  # debug_unsafe came from the file only

        assert main(["select", "--input", str(demo_csv), "--response", "y",
                     "--phi", "2.0", "--epsilon", "2.0"]) == 2
        assert "missing required option(s): --R" in capsys.readouterr().err

    def test_unknown_key_rejected(self, demo_csv, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("banana = 3\n", encoding="utf-8")
        assert main(["select", "--config", str(cfg)]) == 2
        assert "unknown option" in capsys.readouterr().err

    def test_malformed_line_rejected(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("no equals sign here\n", encoding="utf-8")
        assert main(["select", "--config", str(cfg)]) == 2

    def test_missing_config_file_is_usage_error(self, tmp_path, capsys):
        # A bare FileNotFoundError traceback before.
        cfg = tmp_path / "absent.cfg"
        assert main(["select", "--config", str(cfg)]) == 2
        assert f"error: cannot read config file {cfg}" in capsys.readouterr().err

    def test_non_utf8_config_file_is_usage_error(self, tmp_path, capsys):
        # A bare UnicodeDecodeError traceback before.
        cfg = tmp_path / "latin.cfg"
        cfg.write_bytes("response = caf\u00e9\n".encode("cp1252"))
        assert main(["select", "--config", str(cfg)]) == 2
        assert f"cannot read config file {cfg}: 'utf-8' codec" in capsys.readouterr().err

    def test_boolean_keys(self, demo_csv, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("debug_unsafe = true\n", encoding="utf-8")
        assert main(_select_args(demo_csv, "--config", str(cfg))) == 0
        doc = json.loads(capsys.readouterr().out)
        assert all("clean_score" in m for m in doc["models"])

    @pytest.mark.parametrize("quote", ['"', "'"])
    def test_a_quoted_value_is_read_without_its_quotes(self, demo_csv, tmp_path, capsys, quote):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"response = {quote}y{quote}\n", encoding="utf-8")
        args = [a for a in _select_args(demo_csv) if a not in ("--response", "y")]
        assert main(args + ["--config", str(cfg)]) == 0
        quoted = capsys.readouterr().out
        assert main(_select_args(demo_csv)) == 0
        assert quoted == capsys.readouterr().out

    def test_a_bad_boolean_word_is_a_usage_error(self, demo_csv, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("debug_unsafe = maybe\n", encoding="utf-8")
        assert main(_select_args(demo_csv, "--config", str(cfg))) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "debug_unsafe must be true or false, got 'maybe'" in captured.err

    @pytest.mark.parametrize("command, line, message", [
        ("select", "algorithm = foo", "argument --algorithm: invalid choice: 'foo'"),
        ("sweep", "model_id = 9", "argument --model-id: invalid choice: '9'"),
        ("sweep", "algorithm = foo", "argument --algorithm: invalid choice: 'foo'"),
    ], ids=("select-algorithm", "sweep-model_id", "sweep-algorithm"))
    def test_a_bad_value_fails_as_its_flag_does(self, demo_csv, tmp_path, capsys, command,
                                                line, message):
        # A select released a pcpl report with exit 0, a sweep with model 9
        # ended in a KeyError traceback, and a sweep with algorithm foo
        # failed later, on its missing delta.
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(line + "\n", encoding="utf-8")
        if command == "select":
            args = _select_args(demo_csv, "--delta", "0.01")
        else:
            args = ["sweep", "--n", "50", "--R", "1", "--eps", "1", "--phi", "0",
                    "--replications", "1", "--threads", "1", "--seed", "1"]
            if line.startswith("algorithm"):
                args += ["--model-id", "1"]
        with pytest.raises(SystemExit) as err:
            main(args + ["--config", str(cfg)])
        assert err.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert message in captured.err

    def test_flag_names_and_dests_are_both_keys(self, tmp_path, capsys):
        # "n", "R" and "eps" were unknown keys: only dests were accepted.
        args = ["sweep", "--model-id", "1", "--replications", "1", "--threads", "1", "--seed", "1"]
        outs = []
        for keys in (("n", "R", "eps", "phi"),
                     ("n_values", "radius_values", "epsilon_values", "phi_values")):
            cfg = tmp_path / "sweep.cfg"
            cfg.write_text(
                "".join(f"{k} = {v}\n" for k, v in zip(keys, ("50", "1", "5", "0"))),
                encoding="utf-8",
            )
            assert main(args + ["--config", str(cfg)]) == 0
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1] and outs[0].count("\n") == 2

        cfg.write_text("no_timing = true\n", encoding="utf-8")
        assert main(args + ["--config", str(cfg)]) == 2
        assert "unknown option 'no_timing'" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["select", "sweep"])
    def test_a_boolean_set_in_the_file_can_be_turned_off(self, demo_csv, tmp_path, capsys,
                                                         command):
        # --no-debug-unsafe and --no-timing were unrecognized arguments
        # (exit 2), so a file asking for the NON-PRIVATE dump, or for the
        # non-reproducible timing column, could not be overridden.
        if command == "select":
            args, key = _select_args(demo_csv), "debug_unsafe"
        else:
            args = ["sweep", "--model-id", "1", "--n", "50", "--R", "1", "--eps", "1",
                    "--phi", "0", "--replications", "2", "--threads", "1", "--seed", "5"]
            key = "timing"
        flag = "--" + key.replace("_", "-")
        assert main(args) == 0
        plain = capsys.readouterr().out
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{key} = true\n", encoding="utf-8")
        assert main(args + ["--config", str(cfg), flag.replace("--", "--no-")]) == 0
        assert capsys.readouterr().out == plain
        # A false value in the file is --no-x, which a typed --x beats.
        cfg.write_text(f"{key} = false\n", encoding="utf-8")
        assert main(args + ["--config", str(cfg)]) == 0
        assert capsys.readouterr().out == plain
        assert main(args + ["--config", str(cfg), flag]) == 0
        on = capsys.readouterr().out
        if command == "select":
            assert "models" not in json.loads(plain) and "models" in json.loads(on)
        else:
            header, row = on.splitlines()
            timed = dict(zip(header.split(","), row.split(",")))["mean_runtime_ms"]
            assert float(timed) > 0.0 and timed not in plain.splitlines()[1].split(",")

    def test_a_config_run_prints_what_its_command_line_prints(self, demo_csv, tmp_path, capsys):
        from dpms import cli

        cases = [
            (f"input = {demo_csv}\nresponse = y\nR = 2.0\nphi = 2.0\nepsilon = 2.0\n"
             "models = size<=2\ninclude_intercept = false\ndebug_unsafe = true\n"
             "seed = 7\nstream_id = 3\n",
             ["select", "--input", str(demo_csv), "--response", "y", "--R", "2.0",
              "--phi", "2.0", "--epsilon", "2.0", "--models", "size<=2",
              "--no-include-intercept", "--debug-unsafe", "--seed", "7", "--stream-id", "3"]),
            ("beta0 = -1,0.5\nn = 50\nR = 1\neps = 1,5\nphi = 0,2\ndelta = 0.01\n"
             "algorithm = pcpl\nreplications = 2\nthreads = 1\nseed = 4\n",
             ["sweep", "--beta0=-1,0.5", "--n", "50", "--R", "1", "--eps", "1,5",
              "--phi", "0,2", "--delta", "0.01", "--algorithm", "pcpl",
              "--replications", "2", "--threads", "1", "--seed", "4"]),
            (f"input = {demo_csv}\nresponse = y\nmax_size = 2\n",
             ["validate", "--input", str(demo_csv), "--response", "y", "--max-size", "2"]),
        ]
        cli._shared_parser.cache_clear()
        for text, argv in cases:
            cfg = tmp_path / "run.cfg"
            cfg.write_text(text, encoding="utf-8")
            assert main([argv[0], "--config", str(cfg)]) == 0
            from_file = capsys.readouterr().out
            assert main(argv) == 0
            assert from_file == capsys.readouterr().out != ""
        # One parser served every run, the config runs included.
        info = cli._shared_parser.cache_info()
        assert (info.misses, info.hits) == (1, 2 * len(cases) - 1)


class TestSweep:
    @pytest.mark.parametrize("flag, value, code, message", [
        ("--R", "1e200", 2, "the score width (r + R)**2 overflows for r = 0.0 and R = 1e+200"),
        ("--phi", "1e308", 2, "penalty * d overflows for penalty = 1e+308 and d = 6"),
    ])
    def test_an_overflowing_radius_or_penalty_is_one_error_line(self, capsys, flag, value, code,
                                                               message):
        # R = 1e200 ended in a bare OverflowError traceback, and later in
        # a data error after the first dataset was drawn; phi = 1e308
        # warned of an overflow and wrote its rows anyway.
        args = ["sweep", "--model-id", "1", "--n", "50", "--R", "1", "--eps", "1", "--phi", "0",
                "--replications", "1", "--threads", "1", "--seed", "1"]
        args[args.index(flag) + 1] = value
        assert main(args) == code
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    def test_csv_to_stdout(self, capsys):
        args = [
            "sweep", "--model-id", "1", "--n", "60", "--eps", "1,5",
            "--R", "3.0", "--phi", "0,4", "--replications", "3", "--seed", "2",
        ]
        assert main(args) == 0
        out = capsys.readouterr().out
        lines = out.strip().splitlines()
        assert lines[0].startswith("n,d,model_id,R,phi,epsilon,delta,algorithm")
        assert len(lines) == 1 + 4

    def test_out_file_csv_and_json(self, tmp_path, capsys):
        csv_out = tmp_path / "sweep.csv"
        args = [
            "sweep", "--model-id", "1", "--n", "60", "--eps", "1",
            "--R", "3.0", "--phi", "0", "--replications", "2", "--seed", "2",
            "--out", str(csv_out),
        ]
        assert main(args) == 0
        assert csv_out.read_text(encoding="utf-8").startswith("n,d,model_id")
        json_out = tmp_path / "sweep.json"
        args[-1] = str(json_out)
        assert main(args) == 0
        rows = json.loads(json_out.read_text(encoding="utf-8"))
        assert rows[0]["n"] == 60

    def test_out_in_a_missing_directory_is_usage_error(self, tmp_path, capsys):
        # A bare FileNotFoundError traceback before, after the whole sweep.
        out = tmp_path / "missing" / "sweep.csv"
        args = [
            "sweep", "--model-id", "1", "--n", "60", "--eps", "1",
            "--R", "3.0", "--phi", "0", "--replications", "2", "--seed", "2", "--out", str(out),
        ]
        assert main(args) == 2
        assert f"error: cannot write {out}" in capsys.readouterr().err

    def test_unwritable_out_fails_before_the_sweep(self, tmp_path, capsys, monkeypatch):
        # The write used to fail only after the whole sweep had run.
        from dpms import cli

        def spy(*args, **kwargs):
            raise AssertionError("the sweep ran before the output path was checked")

        monkeypatch.setattr(cli, "run_sweep", spy)
        out = tmp_path / "missing" / "sweep.csv"
        args = [
            "sweep", "--model-id", "1", "--n", "60", "--eps", "1",
            "--R", "3.0", "--phi", "0", "--replications", "2", "--seed", "2", "--out", str(out),
        ]
        assert main(args) == 2
        assert f"error: cannot write {out}" in capsys.readouterr().err

    def test_out_keeps_an_existing_file_until_the_sweep_is_written(self, tmp_path, monkeypatch):
        # Checking the path before the sweep leaves an existing file as it
        # was if the sweep fails.
        from dpms import cli

        def failing_sweep(*args, **kwargs):
            raise cli.ConfigError("sweep failed")

        monkeypatch.setattr(cli, "run_sweep", failing_sweep)
        out = tmp_path / "sweep.csv"
        out.write_text("old\n", encoding="utf-8")
        args = [
            "sweep", "--model-id", "1", "--n", "60", "--eps", "1",
            "--R", "3.0", "--phi", "0", "--replications", "2", "--seed", "2", "--out", str(out),
        ]
        assert main(args) == 2
        assert out.read_text(encoding="utf-8") == "old\n"

    def test_custom_coefficients(self, capsys):
        args = [
            "sweep", "--beta0", "1.0,0.0", "--n", "40", "--eps", "2",
            "--R", "2.0", "--phi", "0", "--replications", "2", "--seed", "4",
        ]
        assert main(args) == 0
        out = capsys.readouterr().out
        assert ",custom," in out

    def test_needs_model(self, capsys):
        args = [
            "sweep", "--n", "40", "--eps", "2", "--R", "2.0",
            "--replications", "2", "--seed", "4",
        ]
        assert main(args) == 2
        assert "--model-id or --beta0" in capsys.readouterr().err

    def test_pcpl_needs_delta(self):
        args = [
            "sweep", "--model-id", "1", "--n", "40", "--eps", "2",
            "--R", "2.0", "--phi", "0", "--replications", "2", "--seed", "4",
            "--algorithm", "pcpl",
        ]
        assert main(args) == 2

    def test_threads_below_one_is_usage_error(self, capsys):
        args = [
            "sweep", "--model-id", "1", "--n", "40", "--eps", "2", "--R", "2.0",
            "--phi", "0", "--replications", "2", "--seed", "4", "--threads", "-3",
        ]
        assert main(args) == 2
        assert "max_workers must be at least 1" in capsys.readouterr().err

    def test_without_seed_prints_a_key_that_replays_the_run(self, tmp_path, capsys):
        args = [
            "sweep", "--model-id", "1", "--n", "40", "--eps", "2", "--R", "2.0",
            "--phi", "0,3", "--replications", "2", "--threads", "1",
        ]
        assert main(args + ["--out", str(tmp_path / "a.csv")]) == 0
        key = int(re.search(r"replay with --seed (\d+)", capsys.readouterr().err).group(1))
        assert key.bit_length() > 64
        assert main(args + ["--seed", str(key), "--out", str(tmp_path / "b.csv")]) == 0
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    def test_reproducible_across_thread_counts(self, tmp_path):
        outs = []
        for threads, name in ((1, "a.csv"), (2, "b.csv")):
            out = tmp_path / name
            args = [
                "sweep", "--model-id", "1", "--n", "50", "--eps", "1",
                "--R", "3.0", "--phi", "0,2", "--replications", "4", "--seed", "6",
                "--threads", str(threads), "--out", str(out),
            ]
            assert main(args) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]


class TestValidate:
    def test_reports_and_suggests_radius(self, demo_csv, capsys):
        assert main(["validate", "--input", str(demo_csv), "--response", "y"]) == 0
        out = capsys.readouterr().out
        assert "rows: 80" in out
        assert "covariates: 4 (including intercept)" in out
        assert "bounds: OK" in out
        assert "kappa0:" in out
        assert "suggested minimum R:" in out

    def test_suggestion_matches_manual_computation(self, demo_csv, capsys):
        import itertools
        import math as m

        assert main([
            "validate", "--input", str(demo_csv), "--response", "y",
            "--max-size", "2", "--no-include-intercept",
        ]) == 0
        out = capsys.readouterr().out

        from dpms import load_csv

        x, y, _ = load_csv(demo_csv, "y", include_intercept=False)
        gram = x.T @ x / x.shape[0]
        kappa = min(
            float(np.linalg.eigvalsh(gram[np.ix_(c, c)])[0])
            for c in itertools.combinations(range(3), 2)
        )
        r = float(np.max(np.abs(y)))
        expected = r * m.sqrt(2 / kappa)
        assert f"{expected:.6g}" in out

    def test_a_singular_design_suggests_no_radius(self, tmp_path, capsys):
        # Column b repeats column a, so every design holding both is singular.
        rng = np.random.default_rng(8)
        a = rng.uniform(-1, 1, 30)
        data = np.column_stack([np.clip(a + rng.normal(0, 0.1, 30), -1, 1), a, a])
        p = tmp_path / "twin.csv"
        np.savetxt(p, data, fmt="%.6f", delimiter=",", header="y,a,b", comments="")
        assert main(["validate", "--input", str(p), "--response", "y"]) == 0
        out = capsys.readouterr().out
        assert "kappa0: " in out and "(exact minimum over all 1 subsets of size 3)" in out
        assert "suggested minimum R: none; some restricted design is singular" in out

    def test_past_4096_subsets_the_full_design_bounds_kappa(self, tmp_path, capsys):
        # 14 covariates and the intercept: C(15, 7) = 6435 subsets of size 7.
        rng = np.random.default_rng(9)
        data = rng.uniform(-1, 1, (40, 15))
        p = tmp_path / "wide.csv"
        names = ",".join(["y"] + [f"x{j}" for j in range(1, 15)])
        np.savetxt(p, data, fmt="%.6f", delimiter=",", header=names, comments="")
        assert main(["validate", "--input", str(p), "--response", "y", "--max-size", "7"]) == 0
        out = capsys.readouterr().out

        from dpms import load_csv

        x, _, _ = load_csv(p, "y")
        kappa = float(np.linalg.eigvalsh(x.T @ x / x.shape[0])[0])
        assert f"kappa0: {kappa:.6g} (lower bound from the full design matrix)" in out

    def test_bounds_violation_exits_one(self, tmp_path, capsys):
        p = tmp_path / "bad.csv"
        p.write_text("y,a\n1.0,2.5\n", encoding="utf-8")
        assert main(["validate", "--input", str(p), "--response", "y"]) == 1
        assert "row 0" in capsys.readouterr().err

    def test_max_size_out_of_range(self, demo_csv):
        assert main([
            "validate", "--input", str(demo_csv), "--response", "y", "--max-size", "9",
        ]) == 2


class TestTopLevel:
    def test_algorithm_and_mechanism_names_come_from_the_selection_core(self, demo_csv):
        from dpms import cli, selection

        _, subparsers = cli._build_parser()
        for command in ("select", "sweep"):
            actions = {a.dest: a for a in subparsers[command]._actions}
            assert actions["algorithm"].choices is selection._ALGORITHMS
            assert actions["mechanism"].choices is selection._MECHANISMS
        for flag in ("--algorithm", "--mechanism"):
            with pytest.raises(SystemExit) as err:
                main(_select_args(demo_csv, flag, "nope"))
            assert err.value.code == 2

    def test_no_subcommand_is_usage_error(self):
        with pytest.raises(SystemExit) as err:
            main([])
        assert err.value.code == 2

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["--version"])
        assert err.value.code == 0
        assert "dpms" in capsys.readouterr().out
