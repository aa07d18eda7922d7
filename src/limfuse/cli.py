"""Command line front end emitting deterministic TSV or JSON tables.

Commands: weights, fuse, monodromy, locality, induce, min-weight, frobenius,
center, dirlim-selftest.  Output ordering is fixed by the canonical label
order and the given seed, so identical invocations are byte-identical.
Exit codes: 0 success, 1 computation error, 2 configuration error.
`dirlim-selftest` loads dirlim on first use, and JSON output loads `json`,
so a process that runs only the other commands in TSV imports neither.

Every command's options are declared once, in COMMANDS.  `_match` reads a
call made of a command and `--flag value` pairs the table accepts exactly,
without argparse.  Any other call goes to the argparse parser built from the
same table, so help, errors and exit codes are argparse's own.  The parser
is built, argparse imported, once per process, on the first call the matcher
declines, and reused: each parse returns a fresh namespace, and argparse
reads sys.stdout, sys.stderr and the terminal width only when it prints.

Work is capped up front, and a request over a cap exits 2 before anything
is built:
- `--bound`: the label count bound ** arity is at most MAX_LABELS, and for
  `center` the pair count, its labels times those of `--witness-bound`, is
  at most MAX_LABELS;
- `fuse`, `monodromy` and `fuse-induced`: the product's summand count, the
  product over index slots of min(a_i, b_i), is at most MAX_LABELS;
- `--truncate` is at most MAX_TRUNCATE and `--cases` at most MAX_CASES.
Bounds, truncations and case counts below 1 exit 2 as well.
"""

from __future__ import annotations

import functools
import math
import sys
import types
from typing import Callable, NamedTuple

from limfuse.catdata.category import CategorySpec, category_by_name
from limfuse.catdata.labels import SimpleLabel
from limfuse.exact.ratfunc import format_intfrac, format_ratfunc, parse_rat
from limfuse.fusion.monodromy import monodromy, mueger_scan
from limfuse.induction.algebra import AlgebraObject, algebra_by_name
from limfuse.induction.fused import induced_fusion
from limfuse.induction.induced import induce, min_weight_summand
from limfuse.induction.frobenius import frobenius_dim
from limfuse.induction.locality import locality


MAX_LABELS = 100_000
MAX_TRUNCATE = 1_000
MAX_CASES = 10_000


class ConfigError(ValueError):
    """Bad command-line configuration; maps to exit code 2."""


def _config(make: Callable, *args):
    """`make(*args)`, its ValueError raised as a ConfigError (exit 2)."""
    try:
        return make(*args)
    except ValueError as e:
        raise ConfigError(str(e)) from None


def _pick_label(cat: CategorySpec, first: int | None, second: int | None, what: str) -> SimpleLabel:
    label_type = getattr(cat, "label_type", None)
    if label_type is None:
        raise ConfigError(f"category {cat.name} has no index selectors; use algebra commands")
    arity = len(cat.unit.indices)
    if first is None:
        raise ConfigError(f"missing index selector for the {what} label")
    if arity == 2 and second is None:
        raise ConfigError(f"missing second index selector for the {what} label")
    if arity == 1 and second is not None:
        raise ConfigError(f"category {cat.name} needs {arity} index selector(s) per label")
    return _config(label_type, *(first, second)[:arity])


def _canonical_base(alg: AlgebraObject, values: list[int | None]) -> SimpleLabel:
    """`alg.canonical_base` of the selectors given."""
    return _config(alg.canonical_base, [v for v in values if v is not None])


def _write_tsv(rows: list[list[str]]) -> None:
    """The rows as tab-separated lines, in one write."""
    sys.stdout.write("".join(["\t".join(row) + "\n" for row in rows]))


def _emit(fmt: str, command: str, header: list[str], rows: list[list[str]], extra: dict | None = None) -> None:
    if fmt == "tsv":
        return _write_tsv(rows)
    import json

    doc = {"command": command, "rows": [dict(zip(header, row)) for row in rows]}
    if extra:
        doc.update(extra)
    print(json.dumps(doc, indent=2, sort_keys=True))


def _require_positive(value: int, flag: str) -> None:
    if value < 1:
        raise ConfigError(f"{flag} must be >= 1")


def _require_at_most(value: int, flag: str, cap: int) -> None:
    if value > cap:
        raise ConfigError(f"{flag} {value} exceeds the cap of {cap}")


def _require_label_count(cat: CategorySpec, bound: int, flag: str) -> None:
    """Refuse a scan of the index box whose bound ** arity labels exceed MAX_LABELS."""
    arity = len(cat.unit.indices)
    if bound**arity > MAX_LABELS:
        raise ConfigError(f"{flag} {bound} asks for {bound}**{arity} labels of {cat.name}, "
                          f"above the cap of {MAX_LABELS}")


def _require_fusion_size(x: SimpleLabel, y: SimpleLabel) -> None:
    """Refuse a product whose summand count exceeds MAX_LABELS: each slot's
    parity range holds min(a, b) indices, and the slots multiply."""
    count = math.prod(min(a, b) for a, b in zip(x.indices, y.indices))
    if count > MAX_LABELS:
        raise ConfigError(f"the product of {x} and {y} has {count} summands, "
                          f"above the cap of {MAX_LABELS}")


def cmd_weights(args) -> int:
    _require_positive(args.bound, "--bound")
    cat = _config(category_by_name, args.category)
    _require_label_count(cat, args.bound, "--bound")
    rows = [
        [str(x), cat.weight_vec(x).format(cat.base_parameter)]
        for x in cat.labels_up_to(args.bound)
    ]
    _emit(args.format, "weights", ["label", "weight"], rows, {"category": cat.name})
    return 0


def cmd_fuse(args) -> int:
    cat = _config(category_by_name, args.category)
    x = _pick_label(cat, args.n, args.m, "first")
    y = _pick_label(cat, args.r, args.s_index, "second")
    _require_fusion_size(x, y)
    rows = [[str(z), str(mult)] for z, mult in cat.fusion_of(x, y)]
    _emit(args.format, "fuse", ["label", "multiplicity"], rows,
          {"category": cat.name, "x": str(x), "y": str(y)})
    return 0


def cmd_monodromy(args) -> int:
    cat = _config(category_by_name, args.category)
    x = _pick_label(cat, args.n, args.m, "first")
    y = _pick_label(cat, args.r, args.s_index, "second")
    _require_fusion_size(x, y)
    report = monodromy(cat, x, y)
    if args.format == "json":
        import json

        print(json.dumps({"command": "monodromy", "category": cat.name, "x": str(x),
                          "y": str(y), "rows": report.to_json()}, indent=2, sort_keys=True))
    else:
        _write_tsv([[e["summand"], e["exponent"], e["status"], e["phase"] or "-"] for e in report.to_json()])
    return 0


def cmd_locality(args) -> int:
    alg = _config(algebra_by_name, args.algebra)
    base = _canonical_base(alg, [args.n, args.m])
    cert = locality(alg, base)
    fam = cert.exponent_family
    family = format_intfrac(fam[:3], fam[3:], "r") if fam is not None else "-"
    rows = [[str(base), cert.verdict, str(cert.witness) if cert.witness else "-", family]]
    _emit(args.format, "locality", ["base", "verdict", "witness", "family"], rows,
          {"algebra": alg.name})
    return 0


def cmd_induce(args) -> int:
    _require_positive(args.truncate, "--truncate")
    _require_at_most(args.truncate, "--truncate", MAX_TRUNCATE)
    alg = _config(algebra_by_name, args.algebra)
    base = _canonical_base(alg, [args.n, args.m])
    mod = induce(alg, base)
    rows = [[str(r), str(mod.restriction(r))] for r in range(1, args.truncate + 1)]
    _emit(args.format, "induce", ["r", "restriction"], rows,
          {"algebra": alg.name, "base": str(base)})
    return 0


def cmd_min_weight(args) -> int:
    try:
        sample = parse_rat(args.sample)
    except (ValueError, ZeroDivisionError):
        raise ConfigError(f"--sample is not a rational: {args.sample!r}") from None
    if sample <= 0:
        raise ConfigError("--sample must be positive")
    _require_positive(args.truncate, "--truncate")
    _require_at_most(args.truncate, "--truncate", MAX_TRUNCATE)
    alg = _config(algebra_by_name, args.algebra)
    base = _canonical_base(alg, [args.n, args.m])
    r_star, weight = min_weight_summand(induce(alg, base), sample=sample, truncate=args.truncate)
    rows = [[str(r_star), format_ratfunc(weight, alg.base_category.base_parameter)]]
    _emit(args.format, "min-weight", ["r", "weight"], rows,
          {"algebra": alg.name, "base": str(base)})
    return 0


def cmd_frobenius(args) -> int:
    alg = _config(algebra_by_name, args.algebra)
    base1 = _canonical_base(alg, [args.n, args.m])
    base2 = _canonical_base(alg, [args.r, args.s_index])
    dim = frobenius_dim(alg, base1, base2)
    rows = [[str(base1), str(base2), str(dim)]]
    _emit(args.format, "frobenius", ["base1", "base2", "dim"], rows, {"algebra": alg.name})
    return 0


def cmd_fuse_induced(args) -> int:
    alg = _config(algebra_by_name, args.algebra)
    base1 = _canonical_base(alg, [args.n, args.m])
    base2 = _canonical_base(alg, [args.r, args.s_index])
    _require_fusion_size(base1, base2)
    result = induced_fusion(alg, base1, base2)
    rows = [[str(z), str(mult)] for z, mult in result]
    _emit(args.format, "fuse", ["label", "multiplicity"], rows,
          {"algebra": alg.name, "x": str(alg.to_induced(base1)), "y": str(alg.to_induced(base2))})
    return 0


def cmd_center(args) -> int:
    cat = _config(category_by_name, args.category)
    if args.bound < 1 or args.witness_bound < 1:
        raise ConfigError("scan bounds must be >= 1")
    arity = len(cat.unit.indices)
    if (args.bound * args.witness_bound) ** arity > MAX_LABELS:
        raise ConfigError(f"--bound {args.bound} and --witness-bound {args.witness_bound} ask for "
                          f"({args.bound}*{args.witness_bound})**{arity} label pairs of {cat.name}, "
                          f"above the cap of {MAX_LABELS}")
    found = mueger_scan(cat, args.bound, args.witness_bound)
    rows = [[str(x)] for x in found]
    _emit(args.format, "center", ["label"], rows,
          {"category": cat.name, "bound": args.bound, "witness_bound": args.witness_bound})
    return 0


def run_selftest(seed: int, cases: int):
    """`limfuse.dirlim.selftest.run_selftest`, imported on the first call, so
    only a `dirlim-selftest` process loads dirlim."""
    from limfuse.dirlim.selftest import run_selftest

    return run_selftest(seed=seed, cases=cases)


def cmd_dirlim_selftest(args) -> int:
    _require_positive(args.cases, "--cases")
    _require_at_most(args.cases, "--cases", MAX_CASES)
    res = run_selftest(seed=args.seed, cases=args.cases)
    print(f"{res.passed}/{res.cases} passed")
    if not res.ok:
        for _, k, problems in res.failures:
            for p in problems:
                print(f"case {k}: {p}", file=sys.stderr)
        return 1
    return 0


class Option(NamedTuple):
    """One `--flag value` option of a command, in argparse's `add_argument` terms."""
    flag: str
    type: Callable[[str], object] = str
    default: object = None
    choices: tuple[str, ...] | None = None
    required: bool = False
    help: str | None = None

    @property
    def dest(self) -> str:
        return self.flag[2:].replace("-", "_")


def _command(func, help, *options):
    return func, help, {o.flag: o for o in options}


_FORMAT, _BOUND, _TRUNCATE = (Option("--format", default="tsv", choices=("tsv", "json")),
                              Option("--bound", int, 12), Option("--truncate", int, 20))
_CAT, _ALG = Option("--category", required=True), Option("--algebra", required=True)
_N = Option("--n", int, help="first index of the first label")
_M = Option("--m", int, help="second index of the first label")
_R = Option("--r", int, help="first index of the second label")
_S = Option("--s-index", int, help="second index of the second label")

# The command table, in the order `limfuse -h` lists it: name -> (function,
# help, {flag: option}).  `build_parser` and `_match` both read it.
COMMANDS = {
    "weights": _command(cmd_weights, "conformal-weight table", _FORMAT, _CAT, _BOUND),
    "fuse": _command(cmd_fuse, "fusion product of two simples", _FORMAT, _CAT, _N, _M, _R, _S),
    "monodromy": _command(cmd_monodromy, "per-summand double-braiding exponents", _FORMAT, _CAT, _N, _M, _R, _S),
    "locality": _command(cmd_locality, "locality certificate for an induced module", _FORMAT, _ALG, _N, _M),
    "induce": _command(cmd_induce, "restriction table of an induced module", _FORMAT, _ALG, _N, _M, _TRUNCATE),
    "min-weight": _command(
        cmd_min_weight, "minimum-weight slice of an induced module", _FORMAT, _ALG, _N, _M, _TRUNCATE,
        Option("--sample", default="355/113", help="rational s > 0 at which weights are compared; it "
               "matters only when a slice's r^2 or r coefficient depends on the parameter")),
    "frobenius": _command(cmd_frobenius, "Hom dimension between two induced modules", _FORMAT, _ALG, _N, _M, _R, _S),
    "fuse-induced": _command(cmd_fuse_induced, "fusion of two induced modules", _FORMAT, _ALG, _N, _M, _R, _S),
    "center": _command(cmd_center, "transparent-object scan", _FORMAT, _CAT, _BOUND, Option("--witness-bound", int, 8)),
    "dirlim-selftest": _command(cmd_dirlim_selftest, "seeded property suite for the limit machinery",
                                Option("--seed", int, 0), Option("--cases", int, 100)),
}


@functools.cache
def build_parser():
    """The one parser of this process, built from COMMANDS on first use."""
    import argparse
    parser = argparse.ArgumentParser(
        prog="limfuse",
        description="Exact tables for direct limits and generic fusion-category data.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (func, help, options) in COMMANDS.items():
        p = sub.add_parser(name, help=help)
        p.set_defaults(func=func)
        for o in options.values():
            p.add_argument(o.flag, dest=o.dest, type=o.type, default=o.default, choices=o.choices,
                           required=o.required, help=o.help)
    return parser


def _match(argv: list[str]) -> types.SimpleNamespace | None:
    """The namespace argparse would make of `argv`, when it is a command and
    `--flag value` pairs that its options accept exactly; None otherwise."""
    entry = COMMANDS.get(argv[0]) if len(argv) % 2 else None
    if entry is None:
        return None
    func, _, options = entry
    given = {}
    for k in range(1, len(argv), 2):
        o, value = options.get(argv[k]), argv[k + 1]
        if o is None or o.flag in given or value.startswith("-"):  # unknown, repeated, or no value
            return None
        try:
            given[o.flag] = value = o.type(value)
        except ValueError:
            return None
        if o.choices is not None and value not in o.choices:
            return None
    if any(o.required and flag not in given for flag, o in options.items()):
        return None
    return types.SimpleNamespace(func=func, command=argv[0],
                                 **{o.dest: given.get(flag, o.default) for flag, o in options.items()})


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _match(argv) or build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except ValueError as e:  # NotLocal, TruncationTooSmall, ForeignLabel and CategoryMismatch among them
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
