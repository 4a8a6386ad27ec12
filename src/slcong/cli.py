"""Command-line surface; formats and exit codes are documented in docs/formats.md.

Exit codes: 0 success / all claims verified, 1 a mathematical claim failed,
2 invalid or out-of-range input semilattice, 3 I/O, JSON or usage error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

from . import congruences, core, enumeration, joinsub, structure, verify
from .errors import (
    InternalInconsistency,
    InvalidTable,
    SemilatticeError,
    TooLarge,
    UnknownName,
)

EXIT_OK = 0
EXIT_CLAIM_FAILED = 1
EXIT_BAD_INPUT = 2
EXIT_IO = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.exit(EXIT_IO, f"{self.prog}: error: {message}\n")


def _load_table(source: str) -> core.SemilatticeTable:
    if source == "-":
        text = sys.stdin.read()
    elif source.lstrip().startswith("{"):
        text = source
    elif os.path.exists(source):
        with open(source, encoding="utf-8") as fh:
            text = fh.read()
    else:
        try:
            return core.named(source)
        except UnknownName:
            raise FileNotFoundError(f"no such file or catalog name: {source}") from None
    try:
        obj = json.loads(text)
    except RecursionError:
        raise ValueError("JSON input is nested too deeply") from None
    if not isinstance(obj, dict) or "meet" not in obj:
        raise ValueError('expected a JSON object {"n": ..., "meet": [[...], ...]}')
    table = core.validate(obj["meet"])
    if "n" in obj:
        n = obj["n"]
        if not isinstance(n, int) or isinstance(n, bool):
            raise ValueError('field "n" is not an integer')
        if n != table.n:
            raise ValueError(f'field "n" does not match the table\'s {table.n} rows')
    return table


def _dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _emit_json(obj) -> None:
    print(_dumps(obj))


def _scaled_form(k: int, n: int) -> str:
    c = Fraction(k * 64, 1 << n)
    return f"{c}*2^({n}-6)"


def cmd_validate(args) -> int:
    table = _load_table(args.table)
    if args.format == "json":
        _emit_json({"valid": True, "n": table.n})
    else:
        print(f"valid meet semilattice, n={table.n}")
    return EXIT_OK


_COUNT_METHODS = ("congruences", "subsets", "incl-excl", "all")


def cmd_count(args) -> int:
    table = _load_table(args.table)
    pj = joinsub.PartialJoinStructure(table)
    counts = {}
    if args.method in ("congruences", "all"):
        counts["congruences"] = len(congruences.all_meet_congruences(table))
    if args.method in ("subsets", "all"):
        counts["subsets"] = pj.count_bruteforce()
    if args.method in ("incl-excl", "all"):
        counts["incl-excl"] = pj.count_inclusion_exclusion()
    if args.method is None:
        counts[pj.route()] = pj.count()
    agree = len(set(counts.values())) == 1
    if args.format == "json":
        _emit_json({"n": table.n, "counts": counts, "agree": agree})
    else:
        for method, k in counts.items():
            print(f"{method}: {k} = {_scaled_form(k, table.n)}")
        if args.method == "all":
            print(f"agreement: {'yes' if agree else 'NO'}")
    return EXIT_OK if agree else EXIT_CLAIM_FAILED


def cmd_classify(args) -> int:
    table = _load_table(args.table)
    report = structure.classify(table)
    if args.format == "json":
        _emit_json(report.to_obj())
    else:
        print(f"class: {report.semilattice_class.value}")
        print(f"n: {report.n}")
        print(
            f"congruences: {report.congruence_count}"
            f" = {_scaled_form(report.congruence_count, report.n)}"
        )
        print(f"ubtas: {report.ubta_count}")
        if report.nucleus is not None:
            print(f"nucleus: {list(report.nucleus)}")
            print(f"skeleton: {_dumps(report.to_obj()['skeleton'])}")
    return EXIT_OK


def cmd_spectrum(args) -> int:
    if args.n < 2:
        raise TooLarge(f"n must be at least 2, got {args.n}")
    if args.top is not None and args.top < 1:
        raise TooLarge(f"top count must be at least 1, got {args.top}")
    sp = enumeration.spectrum(args.n, max_n=args.max_n, top=args.top, jobs=args.jobs)
    top = None
    if args.top is not None:
        top = enumeration.top_values(sp, args.top)
    if args.format == "json":
        obj = sp.to_obj()
        if not args.witnesses:
            del obj["witnesses"]
        if top is not None:
            obj["top"] = [
                {"value": v, "classes": sorted(c.value for c in classes)}
                for v, classes in top
            ]
        _emit_json(obj)
    else:
        print(f"NCsl({args.n}) = {{{', '.join(str(v) for v in sp.values)}}}")
        for value in sp.values:
            print(f"  {value}: {sp.witness_totals[value]} classes")
        if top is not None:
            for value, classes in top:
                names = ", ".join(sorted(c.value for c in classes))
                print(f"top {value} = {_scaled_form(value, args.n)}: {names}")
        if args.witnesses:
            for value in sp.values:
                for S in sp.witnesses[value]:
                    print(f"witness {value}: {json.dumps(S.to_obj(), sort_keys=True)}")
    return EXIT_OK


def _enum_filter(name: str):
    if name == "tree":
        return structure.is_tree
    if name == "quasi-tree":
        return structure.is_quasi_tree
    if name == "lattice":
        return congruences.is_lattice
    if name.startswith("class:"):
        wanted = name.split(":", 1)[1]
        valid = {c.value for c in structure.SemilatticeClass}
        if wanted not in valid:
            raise ValueError(f"unknown class {wanted!r}, expected one of {sorted(valid)}")
        return lambda S: structure.classify(S).semilattice_class.value == wanted
    raise ValueError(f"unknown filter {name!r}")


def cmd_enumerate(args) -> int:
    keep = _enum_filter(args.filter) if args.filter else None
    tables = enumeration.enumerate_semilattices(args.n, max_n=args.max_n, jobs=args.jobs)
    if keep:
        tables = [S for S in tables if keep(S)]
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        for i, S in enumerate(tables):
            path = os.path.join(args.out, f"sl{args.n}_{i:05d}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(S.to_obj(), fh, sort_keys=True, separators=(",", ":"))
                fh.write("\n")
        print(f"wrote {len(tables)} tables to {args.out}")
    else:
        for S in tables:
            _emit_json(S.to_obj())
    return EXIT_OK


def cmd_verify(args) -> int:
    results = verify.run_claims(args.n_max)
    if args.format == "json":
        _emit_json({"results": [r.to_obj() for r in results], "passed": all(r.passed for r in results)})
    else:
        for r in results:
            status = "PASS" if r.passed else "FAIL"
            print(f"{status} {r.claim} ({r.detail}) [{r.seconds:.2f}s]")
    return EXIT_OK if all(r.passed for r in results) else EXIT_CLAIM_FAILED


def export_dot(table: core.SemilatticeTable, mark_nucleus: bool = False) -> str:
    """Hasse diagram in DOT; with mark_nucleus the nucleus vertices are filled."""
    marked = set(structure.nucleus(table)) if mark_nucleus else set()
    lines = ["digraph hasse {", "  rankdir=BT;", "  node [shape=circle];"]
    for x in range(table.n):
        if x in marked:
            lines.append(
                f'  {x} [label="{x}", style=filled, fillcolor=black, fontcolor=white];'
            )
        else:
            lines.append(f'  {x} [label="{x}"];')
    for lower, upper in table.covers:
        lines.append(f"  {lower} -> {upper};")
    lines.append("}")
    return "\n".join(lines)


def cmd_export_dot(args) -> int:
    table = _load_table(args.table)
    print(export_dot(table, mark_nucleus=args.mark_nucleus))
    return EXIT_OK


def _add_format(p):
    p.add_argument("--format", choices=("human", "json"), default="human")


def _add_max_n(p):
    p.add_argument(
        "--max-n",
        type=int,
        default=None,
        help=f"enumeration bound (default {enumeration.DEFAULT_MAX_N})",
    )


def _add_jobs(p):
    p.add_argument(
        "--jobs",
        type=int,
        default=None,
        metavar="J",
        help="processes that share the walk, at most one per subtree (default: the"
        " usable cores); the output does not depend on it",
    )


def _add_validate(sub):
    p = sub.add_parser("validate", help="check the semilattice axioms on a table")
    p.add_argument("table", help="path, inline JSON, '-' for stdin, or a catalog name")
    _add_format(p)
    p.set_defaults(func=cmd_validate)


def _add_count(sub):
    p = sub.add_parser("count", help="count congruences / join-closed subsets")
    p.add_argument("table")
    p.add_argument(
        "--method",
        choices=_COUNT_METHODS,
        default=None,
        help="counting route (default: the route classify counts with, incl-excl"
        " or subsets, whichever is cheaper, on the whole table when n <= 13, and"
        " components when the UBTA clauses of a larger table split; all runs"
        " the first three)",
    )
    _add_format(p)
    p.set_defaults(func=cmd_count)


def _add_classify(sub):
    p = sub.add_parser("classify", help="extremal classification of a semilattice")
    p.add_argument("table")
    _add_format(p)
    p.set_defaults(func=cmd_classify)


def _add_spectrum(sub):
    p = sub.add_parser("spectrum", help="congruence-count spectrum NCsl(n)")
    p.add_argument("n", type=int)
    p.add_argument("--witnesses", action="store_true")
    p.add_argument("--top", type=int, default=None, metavar="M")
    _add_max_n(p)
    _add_jobs(p)
    _add_format(p)
    p.set_defaults(func=cmd_spectrum)


def _add_enumerate(sub):
    p = sub.add_parser("enumerate", help="all n-element semilattices up to isomorphism")
    p.add_argument("n", type=int)
    p.add_argument(
        "--filter",
        default=None,
        help="tree | quasi-tree | lattice | class:<Name>",
    )
    p.add_argument("--out", default=None, help="write one JSON file per table")
    _add_max_n(p)
    _add_jobs(p)
    p.set_defaults(func=cmd_enumerate)


def _add_verify(sub):
    p = sub.add_parser("verify", help="run the verification claims up to n_max")
    p.add_argument("n_max", type=int)
    _add_format(p)
    p.set_defaults(func=cmd_verify)


def _add_export_dot(sub):
    p = sub.add_parser("export-dot", help="Hasse diagram as DOT")
    p.add_argument("table")
    p.add_argument("--mark-nucleus", action="store_true")
    p.set_defaults(func=cmd_export_dot)


# in the order the top-level help lists them
_COMMANDS = {
    "validate": _add_validate,
    "count": _add_count,
    "classify": _add_classify,
    "spectrum": _add_spectrum,
    "enumerate": _add_enumerate,
    "verify": _add_verify,
    "export-dot": _add_export_dot,
}


def _build_parser(argv) -> _Parser:
    """The parser for argv: when argv starts with a command, only that
    command's parser is built, since building all of them costs more than
    parsing; otherwise, for top-level help or a usage error, all of them."""
    parser = _Parser(prog="slcong", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    if argv and argv[0] in _COMMANDS:
        _COMMANDS[argv[0]](sub)
    else:
        for add in _COMMANDS.values():
            add(sub)
    return parser


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _build_parser(argv).parse_args(argv)
    try:
        return args.func(args)
    except InvalidTable as exc:
        print(f"invalid semilattice: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except InternalInconsistency as exc:
        print(f"internal inconsistency: {exc}", file=sys.stderr)
        return EXIT_CLAIM_FAILED
    except SemilatticeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
