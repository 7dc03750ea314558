"""Command-line entry points.

Exit codes: 0 when the command succeeds and no violation was found, 1
when a property fails or a verification run produced a counterexample,
2 on usage, parse or input errors, 141 (SIGPIPE) when stdout's reader quits.
"""

import argparse
import json
import os
import sys
from dataclasses import fields
from itertools import product
from pathlib import Path

from .checkers import classify
from .dot import export_dot
from .errors import BudgetError, LamlatError
from .fixtures import FIXTURE_NAMES, fixture
from .instances import parse_instance, render_instance
from .lattice import LambdaLattice
from .poset import Poset, _check_size
from .report import build_report, render_text
from .search import EnumerationFilter, enumerate_posets, verify
from .search import HARD_MAX_CANONICAL, HARD_MAX_ELEMENTS  # the size guards the help names

# enumerate lists at most this many posets, above the 184 697 bounded ones up to
# 7 elements; longer listings (labeled n = 7 alone has 6 129 859) would exhaust memory
LISTING_CAP = 200_000

# the six SM/WLCC/LCC rows the lower covering condition allows (LCC implies WLCC), yes first
_ROW_ORDER = tuple(t for t in product((True, False), repeat=3) if t[1] or not t[2])


def _load(spec: str) -> tuple[str, Poset | LambdaLattice]:
    """Resolve FILE-or-fixture-name to a parsed instance."""
    path = Path(spec)
    if path.exists():
        try:
            text = path.read_text(encoding="utf-8")
        except UnicodeDecodeError as exc:
            raise LamlatError(f"{spec} is not UTF-8 text: {exc}") from exc
        return path.stem, parse_instance(text)
    if spec in FIXTURE_NAMES:
        return spec, fixture(spec)
    raise FileNotFoundError(f"no such file or fixture: {spec}")


def _emit(args, payload: dict, text: str) -> None:
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(text, end="" if text.endswith("\n") else "\n")


def _yesno(b: bool) -> str:
    return "yes" if b else "no"


def _cmd_check(args) -> int:
    name, inst = _load(args.file)
    if isinstance(inst, Poset):
        bounded = inst.is_directed()  # on a finite carrier, the same fact
        payload = {
            "instance": name,
            "kind": "poset",
            "n": inst.n,
            "directed": bounded,
            "bounded": bounded,
        }
        text = (
            f"instance: {name} (poset, n={inst.n})\n"
            f"directed: {_yesno(bounded)}\n"
            f"bounded: {_yesno(bounded)}\n"
        )
        _emit(args, payload, text)
        return 0
    report = inst.axiom_report()
    payload = {"instance": name, "kind": "lambda-lattice", "n": inst.n,
               "axioms": report.to_dict(), "all_pass": report.all_pass}
    lines = [f"instance: {name} (lambda-lattice, n={inst.n})"]
    for f in fields(report):
        v = getattr(report, f.name)
        state = "pass" if v.holds else f"FAIL at {v.witness} ({v.note})"
        lines.append(f"{f.name.replace('_', ' ')}: {state}")
    lines.append(f"result: {'axioms hold' if report.all_pass else 'axiom violation'}")
    _emit(args, payload, "\n".join(lines) + "\n")
    return 0 if report.all_pass else 1


def _cmd_classify(args) -> int:
    name, inst = _load(args.file)
    if isinstance(inst, Poset):
        raise LamlatError(
            "instance has no operation tables; add join:/meet: lines, 'acute' or 'lattice'"
        )
    doc = build_report(name, inst)
    _emit(args, doc.to_dict(), render_text(doc))
    return 0


def _cmd_table(args) -> int:
    by_triple: dict[tuple[bool, bool, bool], list[str]] = {}
    for fixture_name in FIXTURE_NAMES:
        triple = classify(fixture(fixture_name)).row()
        by_triple.setdefault(triple, []).append(fixture_name)
    rows = [{"sm": sm, "wlcc": wlcc, "lcc": lcc, "instances": by_triple.get((sm, wlcc, lcc), [])}
            for sm, wlcc, lcc in _ROW_ORDER]
    header = f"{'SM':<5}{'WLCC':<6}{'LCC':<5}instances"
    body = [
        f"{_yesno(r['sm']):<5}{_yesno(r['wlcc']):<6}{_yesno(r['lcc']):<5}"
        + ", ".join(r["instances"])
        for r in rows
    ]
    _emit(args, {"rows": rows}, "\n".join([header, *body]) + "\n")
    return 0


def _cmd_verify(args) -> int:
    flt = None
    if args.max_n is not None:
        flt = EnumerationFilter(max_elements=_check_size(args.max_n, "--max-n must be at least 1"))
    result = verify(args.theorem, flt)
    lines = [
        f"theorem: {result.theorem_id}",
        f"scope: {result.scope}",
        f"posets checked: {result.posets_checked}",
        f"completions checked: {result.lattices_checked}",
    ]
    if result.counterexample is None:
        lines.append("counterexample: none")
    else:
        ce = result.counterexample
        instance_text = render_instance(ce.instance())
        lines.append("counterexample:")
        lines.extend("  " + ln for ln in instance_text.splitlines())
        lines.append(f"  witness: {ce.witness}")
        if ce.note:
            lines.append(f"  note: {ce.note}")
    expected = "clean" if result.expected_clean else "a counterexample"
    lines.append(f"expected: {expected} ({'met' if result.expectation_met else 'MISSED'})")
    lines.append(f"elapsed: {result.elapsed:.2f}s")
    _emit(args, result.to_dict(), "\n".join(lines) + "\n")
    return 0 if result.counterexample is None else 1


def _cmd_enumerate(args) -> int:
    flt = EnumerationFilter(
        max_elements=_check_size(args.n, "--n must be at least 1"),
        require_bounded=args.bounded,
        canonical_only=args.canonical,
    )
    counts: dict[int, int] = {}
    listed = []  # (n, covers) per poset; holding the posets themselves costs more memory
    for p in enumerate_posets(flt):
        counts[p.n] = counts.get(p.n, 0) + 1
        if not args.count_only:
            if len(listed) == LISTING_CAP:
                raise BudgetError(
                    f"listing stops at {LISTING_CAP} posets; use --count-only, "
                    "or narrow the listing with --bounded or --canonical"
                )
            listed.append((p.n, p.covers))
    total = sum(counts.values())
    counted = {str(k): v for k, v in sorted(counts.items())}
    if args.json:
        _print_listing_json(counted, total, listed)
        return 0
    for k, v in counted.items():
        print(f"n={k}: {v}")
    print(f"total: {total}")
    for n, covers in listed:
        print(f"n={n}  covers: " + " ".join(f"{a}<{b}" for a, b in covers))
    return 0


def _print_listing_json(counts: dict, total: int, listed: list) -> None:
    """Print the enumerate payload as json.dumps(indent=2, sort_keys=True) would.

    The posets are printed one at a time, so neither the nested payload
    nor its whole text is held. An empty listing means --count-only: any
    other listing holds at least the one-element poset.
    """
    counted = json.dumps(counts, indent=2, sort_keys=True).replace("\n", "\n  ")
    print('{\n  "counts": ' + counted + ",")
    if listed:
        print('  "posets": [')
        end = len(listed) - 1
        for i, (n, covers) in enumerate(listed):
            item = json.dumps({"covers": [list(c) for c in covers], "n": n}, indent=2)
            print("    " + item.replace("\n", "\n    ") + ("," if i < end else ""))
        print("  ],")
    print(f'  "total": {total}\n}}')


def _cmd_export_dot(args) -> int:
    _, inst = _load(args.file)
    print(export_dot(inst), end="")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lamlat",
        description="Finite lambda-lattices: check, classify, enumerate, verify.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="machine-readable output")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", parents=[common], help="validate an instance file")
    p.add_argument("file", help="instance file or built-in fixture name")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("classify", parents=[common], help="full property report")
    p.add_argument("file", help="instance file or built-in fixture name")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("table", parents=[common],
                       help="SM/WLCC/LCC classification of the fixture catalog")
    p.set_defaults(func=_cmd_table)

    p = sub.add_parser("verify", parents=[common],
                       help="replay a registered theorem over all small instances")
    p.add_argument("theorem", help="theorem id, e.g. TH1 (see README for the list)")
    p.add_argument("--max-n", type=int, default=None,
                   help=f"largest carrier size, at most {HARD_MAX_ELEMENTS}")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("enumerate", parents=[common], help="stream labeled posets or their classes")
    p.add_argument("--n", type=int, required=True,
                   help=f"largest carrier size, at most {HARD_MAX_ELEMENTS}, "
                        f"or {HARD_MAX_CANONICAL} with --canonical")
    p.add_argument("--bounded", "--directed", action="store_true")
    p.add_argument("--canonical", action="store_true",
                   help="one representative per isomorphism class")
    p.add_argument("--count-only", action="store_true")
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("export-dot", parents=[common],
                       help="Hasse diagram in Graphviz DOT form")
    p.add_argument("file", help="instance file or built-in fixture name")
    p.set_defaults(func=_cmd_export_dot)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        code = args.func(args)
        sys.stdout.flush()  # here, so that a closed pipe is caught below and not at exit
        return code
    except BrokenPipeError:  # `lamlat enumerate | head`: the rest goes to devnull, silently
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except (OSError, LamlatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
