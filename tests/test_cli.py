"""Command-line surface: golden rows, determinism, exit codes, JSON."""

import json

import pytest

from limfuse.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestWeights:
    def test_virasoro_table(self, capsys):
        code, out, _ = run(capsys, "weights", "--category", "virasoro-t", "--bound", "2")
        assert code == 0
        lines = out.splitlines()
        assert "Lt(1,1)\t0" in lines
        assert "Lt(2,2)\t(3*t^2-6*t+3)/(4*t)" in lines

    def test_supervir_bound_one(self, capsys):
        code, out, _ = run(capsys, "weights", "--category", "supervir", "--bound", "1")
        assert code == 0
        assert out == "S(1,1)\t0\n"

    def test_supervir_includes_1_3(self, capsys):
        code, out, _ = run(capsys, "weights", "--category", "supervir", "--bound", "3")
        assert code == 0
        assert "S(1,3)\t(-s+2)/(2*s)" in out.splitlines()

    def test_json_schema(self, capsys):
        code, out, _ = run(capsys, "weights", "--category", "osp", "--bound", "5",
                           "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["command"] == "weights"
        assert doc["rows"][0] == {"label": "M(1)", "weight": "0"}


class TestDeterminism:
    def test_byte_identical_repeats(self, capsys):
        args = ("center", "--category", "supervir", "--bound", "5", "--witness-bound", "5")
        _, first, _ = run(capsys, *args)
        _, second, _ = run(capsys, *args)
        assert first == second == "S(1,1)\n"


class TestCommands:
    def test_fuse(self, capsys):
        code, out, _ = run(capsys, "fuse", "--category", "virasoro-t",
                           "--n", "2", "--m", "1", "--r", "1", "--s-index", "2")
        assert code == 0
        assert out == "Lt(2,2)\t1\n"

    def test_monodromy_json(self, capsys):
        code, out, _ = run(capsys, "monodromy", "--category", "virasoro-t",
                           "--n", "2", "--m", "1", "--r", "1", "--s-index", "2",
                           "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["rows"] == [
            {"summand": "Lt(2,2)", "exponent": "-1/2",
             "status": "non-integer-constant", "phase": "1/2"}
        ]

    def test_locality_row(self, capsys):
        code, out, _ = run(capsys, "locality", "--algebra", "svir-ext", "--n", "2", "--m", "1")
        assert code == 0
        assert out == "Lk(2,1)%Lt(1,1)\tnon-local\t2\t(-r+1)/(2)\n"

    def test_locality_local_family(self, capsys):
        code, out, _ = run(capsys, "locality", "--algebra", "svir-ext", "--n", "2", "--m", "2")
        assert code == 0
        assert out == "Lk(2,1)%Lt(2,1)\tlocal\t-\t-r+1\n"

    def test_induce_rows(self, capsys):
        code, out, _ = run(capsys, "induce", "--algebra", "osp-ext", "--n", "3",
                           "--truncate", "3")
        assert code == 0
        assert out.splitlines() == [
            "1\tV(1)%Lt(3,1)",
            "2\tV(2)%Lt(3,2)",
            "3\tV(3)%Lt(3,3)",
        ]

    def test_min_weight(self, capsys):
        code, out, _ = run(capsys, "min-weight", "--algebra", "svir-ext",
                           "--n", "2", "--m", "2")
        assert code == 0
        assert out == "2\t(3*s^2-6*s+3)/(8*s)\n"

    def test_frobenius(self, capsys):
        code, out, _ = run(capsys, "frobenius", "--algebra", "svir-ext",
                           "--n", "2", "--m", "2", "--r", "3", "--s-index", "3")
        assert code == 0
        assert out.strip().endswith("\t0")

    def test_fuse_induced(self, capsys):
        code, out, _ = run(capsys, "fuse-induced", "--algebra", "osp-ext",
                           "--n", "3", "--r", "3")
        assert code == 0
        assert out.splitlines() == ["M(1)\t1", "M(3)\t1", "M(5)\t1"]

    def test_selftest(self, capsys):
        code, out, _ = run(capsys, "dirlim-selftest", "--seed", "0", "--cases", "5")
        assert code == 0
        assert out == "5/5 passed\n"


class TestExitCodes:
    def test_unknown_category_is_config_error(self, capsys):
        code, _, err = run(capsys, "weights", "--category", "nope", "--bound", "2")
        assert code == 2
        assert "unknown category" in err

    def test_missing_selector_is_config_error(self, capsys):
        code, _, err = run(capsys, "fuse", "--category", "virasoro-t", "--n", "2")
        assert code == 2

    def test_bad_label_indices_config_error(self, capsys):
        code, _, err = run(capsys, "fuse", "--category", "supervir",
                           "--n", "2", "--m", "1", "--r", "2", "--s-index", "2")
        assert code == 2
        assert "even" in err

    def test_non_local_is_computation_error(self, capsys):
        code, _, err = run(capsys, "fuse-induced", "--algebra", "svir-ext",
                           "--n", "2", "--m", "1", "--r", "2", "--s-index", "2")
        assert code == 1
        assert "non-local" in err

    def test_truncation_error(self, capsys):
        code, _, err = run(capsys, "min-weight", "--algebra", "svir-ext",
                           "--n", "4", "--m", "4", "--truncate", "4")
        assert code == 1
        assert "truncat" in err.lower()

    def test_argparse_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["weights", "--bound", "2"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("argv", [
        ["weights", "--category", "osp", "--bound", "3", "--seed", "9"],
        ["weights", "--category", "osp", "--bound", "3", "--truncate", "-4"],
        ["locality", "--algebra", "osp-ext", "--n", "3", "--sample", "zz"],
        ["locality", "--algebra", "osp-ext", "--n", "3", "--r", "5"],
        ["center", "--category", "supervir", "--sample", "1"],
        ["dirlim-selftest", "--format", "json"],
    ])
    def test_flag_the_command_does_not_read(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2

    @pytest.mark.parametrize("command", ["fuse", "monodromy"])
    @pytest.mark.parametrize("selectors", [
        ["--n", "3", "--m", "99", "--r", "3", "--s-index", "7"],
        ["--n", "3", "--r", "3", "--s-index", "7"],
        ["--n", "3", "--m", "99", "--r", "3"],
    ])
    def test_surplus_selector_on_single_index_category(self, capsys, command, selectors):
        code, out, err = run(capsys, command, "--category", "osp", *selectors)
        assert (code, out) == (2, "")
        assert "needs 1 index selector(s)" in err

    @pytest.mark.parametrize("cases", ["0", "-3"])
    def test_selftest_cases_below_one(self, capsys, cases):
        code, out, err = run(capsys, "dirlim-selftest", f"--cases={cases}")
        assert (code, out) == (2, "")
        assert "--cases" in err

    def test_bad_bounds(self, capsys):
        code, _, err = run(capsys, "center", "--category", "supervir",
                           "--bound", "0", "--witness-bound", "2")
        assert code == 2

    @pytest.mark.parametrize("sample", ["abc", "1/0"])
    def test_min_weight_non_rational_sample(self, capsys, sample):
        code, out, err = run(capsys, "min-weight", "--algebra", "svir-ext",
                             "--n", "2", "--m", "2", f"--sample={sample}")
        assert (code, out) == (2, "")
        assert "--sample" in err

    def test_min_weight_zero_sample(self, capsys):
        code, out, err = run(capsys, "min-weight", "--algebra", "svir-ext",
                             "--n", "2", "--m", "2", "--sample", "0")
        assert (code, out) == (2, "")
        assert "positive" in err

    def test_min_weight_truncate_zero(self, capsys):
        code, out, _ = run(capsys, "min-weight", "--algebra", "svir-ext",
                           "--n", "2", "--m", "2", "--truncate", "0")
        assert (code, out) == (2, "")

    @pytest.mark.parametrize("bound", ["0", "-3"])
    def test_weights_bound_below_one(self, capsys, bound):
        code, out, err = run(capsys, "weights", "--category", "virasoro-t", f"--bound={bound}")
        assert (code, out) == (2, "")
        assert "--bound" in err

    def test_induce_truncate_zero(self, capsys):
        code, out, err = run(capsys, "induce", "--algebra", "osp-ext", "--n", "3",
                             "--truncate", "0")
        assert (code, out) == (2, "")
        assert "--truncate" in err

    def test_config_checked_before_lookup(self, capsys):
        # a bad option fails as configuration even when the algebra is unknown
        code, _, err = run(capsys, "min-weight", "--algebra", "nope", "--sample", "0")
        assert code == 2
        assert "positive" in err
