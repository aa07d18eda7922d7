"""Command-line surface: golden rows, determinism, exit codes, JSON, work caps,
reuse of the one parser per process, one parse per call and the matcher that
parses well-formed calls from the command table."""

import ast
import hashlib
import json
import math
import os
import random
import subprocess
import sys
import textwrap
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

import limfuse
from limfuse import cli
from limfuse.catdata.category import CategorySpec
from limfuse.catdata.labels import ForeignLabel
from limfuse.cli import MAX_CASES, MAX_LABELS, MAX_TRUNCATE, build_parser, main
from limfuse.fusion.ring import CategoryMismatch
from limfuse.induction.fused import NotLocal
from limfuse.induction.induced import TruncationTooSmall


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

    def test_computation_errors_are_value_errors(self):
        # main sends every ValueError that is not a ConfigError to exit 1
        for error in (NotLocal, TruncationTooSmall, ForeignLabel, CategoryMismatch):
            assert issubclass(error, ValueError) and not issubclass(error, cli.ConfigError), error

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

    @pytest.mark.parametrize("truncate", ["0", "-4", "20"])
    def test_locality_truncate_below_one(self, capsys, truncate):
        # locality is decided for every summand at once: any --truncate is
        # an unknown flag
        with pytest.raises(SystemExit) as exc:
            main(["locality", "--algebra", "svir-ext", "--n", "1", "--m", "1", f"--truncate={truncate}"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --truncate" in capsys.readouterr().err

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


class Reached(Exception):
    """Raised by a stubbed worker: the call got past argument validation."""


@pytest.fixture
def stub_workers(monkeypatch):
    """Replace every capped worker by a stub that raises Reached, so a cap
    that lets an oversized job through fails fast instead of allocating."""
    def reached(*args, **kwargs):
        raise Reached
    classes = [CategorySpec]
    for klass in classes:
        classes += klass.__subclasses__()
        for method in ("labels_up_to", "fusion_of"):
            if method in vars(klass):
                monkeypatch.setattr(klass, method, reached)
    for name in ("mueger_scan", "induce", "locality", "induced_fusion", "run_selftest"):
        monkeypatch.setattr(cli, name, reached)


_SQRT = math.isqrt(MAX_LABELS)  # largest bound with bound**2 labels under the cap
_ROOT4 = math.isqrt(_SQRT)  # largest bound with bound**4 labels under the cap
_PAIR = "deligne(virasoro-kp2,virasoro-t)"
_ALG = ("--algebra", "osp-ext", "--n", "3")
_ALG2 = ("--algebra", "svir-ext", "--n", "2", "--m", "2")
_PAIRS = _SQRT // 4  # with --witness-bound 4, the largest bound whose label pairs fit the cap
_SIDE = math.isqrt(MAX_LABELS)  # both index pairs (a, a): a**2 summands


def _fuse_argv(command: str, source: str, a: int) -> list[str]:
    """`command` on two equal labels with every index a."""
    return [command, source, "--n", str(a), "--m", str(a), "--r", str(a), "--s-index", str(a)]


class TestWorkCaps:
    @pytest.mark.parametrize("argv, flag, cap", [
        (["weights", "--category", "osp", "--bound", str(MAX_LABELS + 1)], "--bound", MAX_LABELS),
        (["weights", "--category", "supervir", "--bound", str(_SQRT + 1)], "--bound", MAX_LABELS),
        (["weights", "--category", _PAIR, "--bound", str(_ROOT4 + 1)], "--bound", MAX_LABELS),
        (["weights", "--category", "osp", "--bound", "9" * 400], "--bound", MAX_LABELS),
        (["center", "--category", "supervir", "--bound", str(_SQRT + 1), "--witness-bound", "2"],
         "--bound", MAX_LABELS),
        (["center", "--category", "supervir", "--bound", "2", "--witness-bound", str(_SQRT + 1)],
         "--witness-bound", MAX_LABELS),
        (["induce", *_ALG2, "--truncate", str(MAX_TRUNCATE + 1)], "--truncate", MAX_TRUNCATE),
        (["induce", *_ALG, "--truncate", str(MAX_TRUNCATE + 1)], "--truncate", MAX_TRUNCATE),
        (["min-weight", *_ALG, "--truncate", str(MAX_TRUNCATE + 1)], "--truncate", MAX_TRUNCATE),
        (["dirlim-selftest", "--cases", str(MAX_CASES + 1)], "--cases", MAX_CASES),
        (_fuse_argv("fuse", "--category=virasoro-t", _SIDE + 1), "summands", MAX_LABELS),
        (_fuse_argv("monodromy", "--category=virasoro-t", _SIDE + 1), "summands", MAX_LABELS),
        (["fuse", "--category", "osp", "--n", str(MAX_LABELS + 1), "--r", str(MAX_LABELS + 1)],
         "summands", MAX_LABELS),
        (_fuse_argv("fuse-induced", "--algebra=svir-ext", _SIDE + 1), "summands", MAX_LABELS),
        (["fuse-induced", "--algebra", "osp-ext", "--n", str(MAX_LABELS + 1), "--r", "999999"],
         "summands", MAX_LABELS),
        (["center", "--category", "supervir", "--bound", str(_PAIRS + 1), "--witness-bound", "4"],
         "--witness-bound", MAX_LABELS),
    ])
    def test_oversized_job_is_refused(self, capsys, stub_workers, argv, flag, cap):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert flag in err and f"cap of {cap}" in err

    @pytest.mark.parametrize("argv", [
        ["weights", "--category", "osp", "--bound", str(MAX_LABELS)],
        ["weights", "--category", "supervir", "--bound", str(_SQRT)],
        ["weights", "--category", _PAIR, "--bound", str(_ROOT4)],
        ["center", "--category", "supervir", "--bound", str(_PAIRS), "--witness-bound", "4"],
        ["induce", *_ALG2, "--truncate", str(MAX_TRUNCATE)],
        ["induce", *_ALG, "--truncate", str(MAX_TRUNCATE)],
        ["min-weight", *_ALG, "--truncate", str(MAX_TRUNCATE)],
        ["dirlim-selftest", "--cases", str(MAX_CASES)],
        _fuse_argv("fuse", "--category=virasoro-t", _SIDE),
        _fuse_argv("monodromy", "--category=virasoro-t", _SIDE),
        ["fuse", "--category", "osp", "--n", str(MAX_LABELS - 1), "--r", str(MAX_LABELS + 1)],
        _fuse_argv("fuse-induced", "--algebra=svir-ext", _SIDE),
        ["fuse-induced", "--algebra", "osp-ext", "--n", str(MAX_LABELS + 1), "--r", str(MAX_LABELS)],
    ])
    def test_job_at_the_cap_reaches_the_worker(self, stub_workers, argv):
        with pytest.raises(Reached):
            main(argv)

    def test_caps_clear_the_documented_sizes(self):
        # bounds up to 14 on four-index products, truncations up to 30, 100 cases
        assert 14**4 <= MAX_LABELS and 30 <= MAX_TRUNCATE and 100 <= MAX_CASES


# One in-process sequence over every command, both formats and each exit path.
_SEQUENCE = [
    ["weights", "--category", "virasoro-t", "--bound", "2"],
    ["weights", "--category", _PAIR, "--bound", "2", "--format", "json"],
    ["fuse", "--category", "virasoro-t", "--n", "2", "--m", "1", "--r", "1", "--s-index", "2"],
    ["fuse", "--category", "osp", "--n", "3", "--r", "5", "--format", "json"],
    ["monodromy", "--category", "virasoro-t", "--n", "2", "--m", "1", "--r", "1", "--s-index", "2"],
    ["monodromy", "--category", "supervir", "--n", "2", "--m", "2", "--r", "1", "--s-index", "3",
     "--format", "json"],
    ["locality", "--algebra", "svir-ext", "--n", "2", "--m", "1"],
    ["locality", "--algebra", "osp-ext", "--n", "3", "--format", "json"],
    ["induce", "--algebra", "osp-ext", "--n", "3", "--truncate", "3"],
    ["induce", "--algebra", "svir-ext", "--n", "2", "--m", "2", "--truncate", "2", "--format", "json"],
    ["min-weight", "--algebra", "svir-ext", "--n", "2", "--m", "2"],
    ["min-weight", "--algebra", "osp-ext", "--n", "3", "--format", "json"],
    ["frobenius", "--algebra", "svir-ext", "--n", "2", "--m", "2", "--r", "2", "--s-index", "2"],
    ["frobenius", "--algebra", "osp-ext", "--n", "3", "--r", "3", "--format", "json"],
    ["fuse-induced", "--algebra", "osp-ext", "--n", "3", "--r", "3"],
    ["fuse-induced", "--algebra", "osp-ext", "--n", "3", "--r", "5", "--format", "json"],
    ["center", "--category", "supervir", "--bound", "3", "--witness-bound", "3"],
    ["center", "--category", "osp", "--bound", "3", "--witness-bound", "3", "--format", "json"],
    ["dirlim-selftest", "--seed", "1", "--cases", "3"],
    ["weights", "--bound", "2"],  # argparse error: SystemExit 2
    ["weights", "--category", "nope"],  # ConfigError: exit 2
    ["fuse-induced", "--algebra", "svir-ext", "--n", "2", "--m", "1", "--r", "2", "--s-index", "2"],
    ["weights", "--category", "supervir", "--bound", "3"],
]


def _in_process(capsys, argv):
    try:
        code = main(list(argv))
    except SystemExit as e:
        code = e.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _fresh_process(argv, env):
    proc = subprocess.run([sys.executable, "-m", "limfuse.cli", *argv], env=env,
                          capture_output=True, text=True, timeout=120)
    return proc.returncode, proc.stdout, proc.stderr


@pytest.fixture
def child_env(monkeypatch):
    # argparse wraps usage text to the terminal width; pin it on both sides
    monkeypatch.setenv("COLUMNS", "80")
    src = str(Path(limfuse.__file__).resolve().parents[1])
    path = [src, *filter(None, [os.environ.get("PYTHONPATH")])]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(path)}


class TestParserReuse:
    def test_one_parser_per_process(self):
        assert build_parser() is build_parser()

    def test_sequence_matches_fresh_processes(self, capsys, child_env):
        in_process = [_in_process(capsys, argv) for argv in _SEQUENCE]
        with ThreadPoolExecutor(max_workers=2) as pool:
            fresh = list(pool.map(lambda argv: _fresh_process(argv, child_env), _SEQUENCE))
        for argv, got, want in zip(_SEQUENCE, in_process, fresh):
            assert got == want, argv
        assert {code for code, _, _ in in_process} == {0, 1, 2}

    def test_import_builds_no_parser(self, child_env):
        probe = "import limfuse.cli as c; print(c.build_parser.cache_info().currsize)"
        out = subprocess.run([sys.executable, "-c", probe], env=child_env,
                             capture_output=True, text=True, timeout=120, check=True).stdout
        assert out == "0\n"


def _golden_matrix() -> list[list[str]]:
    """A fixed CLI matrix, each command in tsv and json: weights on every
    built-in category and both Deligne products, monodromy, locality,
    min-weight, induce, fuse-induced and center, including calls that exit
    1 or 2."""
    weights = [("virasoro-t", 6), ("virasoro-kp2", 6), ("kl-sl2", 12), ("supervir", 6),
               ("osp", 12), ("deligne(virasoro-kp2,virasoro-t)", 3),
               ("deligne(kl-sl2,virasoro-t)", 3)]
    calls = [["weights", "--category", name, "--bound", str(b)] for name, b in weights]
    for name in ("virasoro-t", "virasoro-kp2", "supervir"):
        for n, m, r, s in ((1, 1, 1, 1), (2, 1, 1, 2), (2, 3, 3, 2), (3, 5, 4, 2), (5, 1, 3, 1)):
            calls.append(["monodromy", "--category", name, "--n", str(n), "--m", str(m),
                          "--r", str(r), "--s-index", str(s)])
    for name in ("kl-sl2", "osp"):
        for n, r in ((1, 1), (2, 3), (3, 3), (4, 7), (6, 5)):
            calls.append(["monodromy", "--category", name, "--n", str(n), "--r", str(r)])
    calls.append(["monodromy", "--category", "deligne(kl-sl2,virasoro-t)", "--n", "1", "--r", "1"])
    svir = [(n, m) for n in range(1, 6) for m in range(1, 6)]
    osp = [(n,) for n in range(1, 9)]
    for alg, bases in (("svir-ext", svir), ("osp-ext", osp)):
        for b in bases:
            sel = ["--n", str(b[0])] + (["--m", str(b[1])] if len(b) == 2 else [])
            calls.append(["locality", "--algebra", alg, *sel])
            calls.append(["min-weight", "--algebra", alg, *sel, "--truncate", "12"])
        for b1, b2 in zip(bases, bases[::-1]):
            sel = ["--n", str(b1[0]), "--r", str(b2[0])]
            if len(b1) == 2:
                sel[2:2] = ["--m", str(b1[1])]
                sel += ["--s-index", str(b2[1])]
            calls.append(["fuse-induced", "--algebra", alg, *sel])
    calls += [
        ["min-weight", "--algebra", "svir-ext", "--n", "2", "--m", "4", "--sample", "1/7"],
        ["min-weight", "--algebra", "svir-ext", "--n", "5", "--m", "5", "--truncate", "5"],
        ["induce", "--algebra", "svir-ext", "--n", "2", "--m", "3", "--truncate", "6"],
        ["induce", "--algebra", "osp-ext", "--n", "4", "--truncate", "6"],
        ["center", "--category", "supervir", "--bound", "4", "--witness-bound", "4"],
        ["center", "--category", "osp", "--bound", "9", "--witness-bound", "5"],
        ["center", "--category", "virasoro-t", "--bound", "4", "--witness-bound", "3"],
    ]
    return [[*argv, "--format", fmt] for argv in calls for fmt in ("tsv", "json")]


# sha256 of "argv\nexit code\nstdout\n" over `_golden_matrix()`, recorded with
# Fraction-coordinate weight vectors printed through RatFunc
GOLDEN_CLI_MATRIX = "092fecfe77f6fcad1f5a3c073e93b43f71bf892c6b3731519c9c46c22eb55a33"


class TestGolden:
    def test_cli_matrix_stdout_and_exit_codes(self, capsys):
        h = hashlib.sha256()
        codes = set()
        for argv in _golden_matrix():
            code, out, _ = _in_process(capsys, argv)
            codes.add(code)
            h.update(f"{' '.join(argv)}\n{code}\n{out}\n".encode())
        assert codes == {0, 1, 2}
        assert h.hexdigest() == GOLDEN_CLI_MATRIX


def _full_parse_main(argv):
    """`main` as one full `build_parser().parse_args` pass and the same
    dispatch: the reference for parsing each call with its command's parser."""
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except cli.ConfigError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


_W = ["weights", "--category", "osp"]
_F = ["fuse", "--category", "virasoro-t", "--m", "1", "--r", "1", "--s-index", "2"]
# help, unknown and abbreviated commands, surplus and repeated arguments,
# abbreviated and `=` flags, `--`, bad values
_EDGE_ARGVS = [
    [], ["-h"], ["--help"], ["nope"], ["fus"], ["fuse", "--help"], ["weights", "-h"],
    [*_W, "extra"], [*_W, "--bound", "2", "extra", "more"], ["--cat"], ["--cat", "osp"],
    ["weights", "--cat", "osp", "--bound", "2"], [*_F, "--n=2"], [*_F, "--n"],
    ["--"], ["--", *_W], [*_W, "--"], [*_W, "--", "--bound", "2"], [*_W, "--bound", "2", "--"],
    [*_W, "--bound", "2", "--bound", "3"], [*_W, "--format", "json", "--format", "tsv", "--bound", "1"],
    [*_W, "--bound", "x"], [*_W, "--format", "xml"], ["fuse", "--category", "osp", "--n", "1.5"],
    ["weights", "--bound", "2"], ["-h", "weights"], ["weights", "--category"],
    ["weights", "--category", "osp", "-x"], ["locality", "--algebra", "osp-ext", "--n", "3", "--truncate=5"],
]


def _outcome(capsys, call):
    """(return code or ("exit", SystemExit code), stdout, stderr) of one call."""
    try:
        code = call()
    except SystemExit as e:
        code = ("exit", e.code)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestOneParse:
    def test_matches_the_full_parse(self, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        codes = set()
        for argv in _golden_matrix() + _EDGE_ARGVS:
            got = _outcome(capsys, lambda: main(list(argv)))
            assert got == _outcome(capsys, lambda: _full_parse_main(list(argv))), argv
            codes.add(got[0])
        assert {0, 1, 2, ("exit", 0), ("exit", 2)} <= codes

    def test_none_reads_sys_argv(self, capsys, monkeypatch):
        argv = ["weights", "--category", "supervir", "--bound", "3"]
        want = _outcome(capsys, lambda: main(argv))
        monkeypatch.setattr(sys, "argv", ["limfuse", *argv])
        assert _outcome(capsys, main) == want
        monkeypatch.setattr(sys, "argv", ["limfuse", "nope"])
        assert _outcome(capsys, main)[0] == ("exit", 2)

    def test_command_map_is_built_once(self, child_env):
        # every call kind: a matched command, help, an unknown command, surplus
        # arguments; only the ones the matcher declines build the parser
        probe = textwrap.dedent("""
            import argparse, contextlib, io
            built = []
            add = argparse.ArgumentParser.add_subparsers
            argparse.ArgumentParser.add_subparsers = lambda *a, **k: built.append(1) or add(*a, **k)
            import limfuse.cli as c
            for argv in (['weights', '--category', 'osp'], ['-h'], ['nope'], ['weights', '--category=osp', 'x']):
                with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                    try:
                        c.main(argv)
                    except SystemExit:
                        pass
            print(len(built), c.build_parser.cache_info().misses)
        """)
        out = subprocess.run([sys.executable, "-c", probe], env=child_env,
                             capture_output=True, text=True, timeout=120, check=True).stdout
        assert out == "1 1\n"


_ARABIC_THREE = "٣"  # a Unicode digit: int() reads it as 3


def _pairs(argv: list[str]) -> list[int]:
    """The position of every `--flag value` pair's flag in argv."""
    return [k for k in range(1, len(argv) - 1)
            if argv[k].startswith("--") and "=" not in argv[k] and not argv[k + 1].startswith("-")]


def _other_value(flag: str, value: str) -> str:
    """The other format, the next integer, or else `value` itself."""
    if flag == "--format":
        return "json" if value == "tsv" else "tsv"
    return str(int(value) + 1) if value.isdigit() else value


def _mutants(rng: random.Random, argv: list[str]):
    """(kind, argv) for each flag-form and value mutation of one argv; each
    rewrites one `--flag value` pair chosen by `rng`, or inserts at a
    position it chooses."""
    pairs = _pairs(argv)
    at = rng.randrange(1, len(argv) + 1) if argv else 0
    yield "-h", [*argv[:at], "-h", *argv[at:]]
    yield "--", [*argv[:at], "--", *argv[at:]]
    yield "unknown flag", [*argv[:at], rng.choice(["--x", "--seed", "--truncate", "--category"]), "1", *argv[at:]]
    if not pairs:
        return
    k = rng.choice(pairs)
    flag, value = argv[k], argv[k + 1]
    head, tail = argv[:k], argv[k + 2:]
    yield "--flag=value", [*head, f"{flag}={value}", *tail]
    if len(flag) > 3:
        yield "abbreviated flag", [*head, flag[:rng.randrange(3, len(flag))], value, *tail]
    yield "repeated flag", [*argv, flag, _other_value(flag, value)]
    yield "dropped value", [*head, flag, *tail]
    for kind, new in [("negative", f"-{value}"), ("empty", ""), ("leading space", " 3"), ("plus", "+3"),
                      ("underscore", "3_0"), ("unicode digit", _ARABIC_THREE)]:
        yield kind, [*head, flag, new, *tail]
    fmt = argv.index("--format") + 1 if "--format" in argv[:-1] else None
    yield "bad choice", [*argv[:fmt], "xml", *argv[fmt + 1:]] if fmt else [*argv, "--format", "xml"]


class TestCommandTable:
    def test_golden_calls_take_the_matcher(self):
        assert all(cli._match(argv) is not None for argv in _golden_matrix())

    def test_mutated_argvs_match_argparse(self, capsys, monkeypatch):
        """Over a seeded mutation corpus, the matcher either declines an argv
        or returns the namespace of the full parser, and `main`
        matches the full-parse reference on exit code, stdout and stderr."""
        monkeypatch.setenv("COLUMNS", "80")
        rng = random.Random(19)
        accepted, declined = set(), set()
        for argv in _golden_matrix() + _EDGE_ARGVS:
            for kind, mutant in _mutants(rng, argv):
                args = cli._match(mutant)
                if args is None:
                    declined.add(kind)
                else:
                    assert vars(args) == vars(build_parser().parse_args(mutant)), mutant
                    accepted.add(kind)
                got = _outcome(capsys, lambda: main(list(mutant)))
                assert got == _outcome(capsys, lambda: _full_parse_main(list(mutant))), mutant
        # values that int() or a string flag reads are matched, and each
        # kind of mutation falls back to argparse somewhere
        assert accepted >= {"empty", "leading space", "plus", "underscore", "unicode digit"}
        assert declined >= {"-h", "--", "unknown flag", "--flag=value", "abbreviated flag", "repeated flag",
                            "dropped value", "negative", "empty", "underscore", "bad choice"}

    def test_cli_reads_no_private_argparse_name(self):
        # the matcher reads the command table, never argparse's internals
        private = {"_actions", "_defaults", "_option_string_actions", "_registries"}
        tree = ast.parse(Path(cli.__file__).read_text())
        assert [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Attribute) and (
            node.attr in private or node.attr.startswith("_") and getattr(node.value, "id", None) == "argparse")] == []


def test_bases_come_from_the_summand_rule():
    # the CLI builds every algebra base through `AlgebraObject.canonical_base`,
    # and the label dictionary is read from the summand rule, not written
    # out per algebra in `induction/algebra.py`
    src = Path(cli.__file__).parent
    names = {node.attr if isinstance(node, ast.Attribute) else node.id
             for node in ast.walk(ast.parse(Path(cli.__file__).read_text()))
             if isinstance(node, (ast.Attribute, ast.Name))}
    algebra = ast.parse((src / "induction" / "algebra.py").read_text())
    dictionaries = [node.name for node in algebra.body if isinstance(node, ast.FunctionDef) and "induced" in node.name]
    assert (sorted(names & {"slots", "factors", "label_at"}), dictionaries) == ([], [])
