"""Line-oriented instance files.

Grammar (whitespace separated, '#' starts a comment, line order free):

    elements: <name>+
    covers: (<a> < <b>)+
    join: <a> <b> = <c>
    meet: <a> <b> = <c>
    acute
    lattice

A file with no join/meet line and neither directive parses to a bare
Poset. Otherwise the result is a LambdaLattice: explicit assignments
are applied first, then either every remaining incomparable pair goes
to (top, bottom) when 'acute' is present, or pairs with a unique
minimal upper bound / unique maximal lower bound are forced to it;
anything still open is an error. 'lattice' only marks the text as a
completion, for one whose every value is forced.
"""

import re

from .errors import BadChoiceError, ParseError
from .lattice import ChoiceSpec, LambdaLattice, _unforced, from_choice
from .poset import Poset, _bits

_TOKEN = re.compile(r"\S+")


def _tokens(line: str) -> list[tuple[str, int]]:
    return [(m.group(), m.start() + 1) for m in _TOKEN.finditer(line)]


def parse_instance(text: str) -> Poset | LambdaLattice:
    """Parse instance text; see the module docstring for the grammar."""
    elements: list[str] | None = None
    # each name is kept with its column: (name, column) tokens
    covers: list[tuple[tuple[str, int], tuple[str, int], int]] = []
    assignments: list[tuple[str, tuple[str, int], tuple[str, int], tuple[str, int], int]] = []
    directives: set[str] = set()

    for lineno, raw in enumerate(text.splitlines(), start=1):
        toks = _tokens(raw.split("#", 1)[0])
        if not toks:
            continue
        head, col = toks[0]
        rest = toks[1:]
        if head == "elements:":
            if elements is not None:
                raise ParseError("duplicate elements: line", lineno, col)
            if not rest:
                raise ParseError("elements: needs at least one name", lineno, col)
            names = [t for t, _ in rest]
            if len(set(names)) != len(names):
                raise ParseError("duplicate element name", lineno, col)
            elements = names
        elif head == "covers:":
            if not rest or len(rest) % 3:
                raise ParseError("covers: expects groups of '<a> < <b>'", lineno, col)
            for i in range(0, len(rest), 3):
                a, (op, co), b = rest[i:i + 3]
                if op != "<":
                    raise ParseError(f"expected '<', got {op!r}", lineno, co)
                covers.append((a, b, lineno))
        elif head in ("join:", "meet:"):
            if len(rest) != 4 or rest[2][0] != "=":
                raise ParseError(f"{head} expects '<a> <b> = <c>'", lineno, col)
            assignments.append((head[:-1], rest[0], rest[1], rest[3], lineno))
        elif head in ("acute", "lattice"):
            if rest:
                raise ParseError(f"unexpected {rest[0][0]!r} after {head!r}", lineno, rest[0][1])
            directives.add(head)
        else:
            raise ParseError(f"unknown directive {head!r}", lineno, col)

    if elements is None:
        raise ParseError("missing elements: line", 1)
    index = {name: i for i, name in enumerate(elements)}

    def resolve(token: tuple[str, int], lineno: int) -> int:
        name, col = token
        if name not in index:
            raise ParseError(f"unknown element {name!r}", lineno, col)
        return index[name]

    pairs = [(resolve(a, ln), resolve(b, ln)) for a, b, ln in covers]
    poset = Poset.from_covers(len(elements), pairs, labels=tuple(elements))

    if not assignments and not directives:
        return poset

    joins: dict[tuple[int, int], int] = {}
    meets: dict[tuple[int, int], int] = {}
    for kind, ta, tb, tc, lineno in assignments:
        x, y, v = resolve(ta, lineno), resolve(tb, lineno), resolve(tc, lineno)
        (a, col), b = ta, tb[0]  # a pair's own errors point at its first name
        if x == y:
            raise ParseError(f"{kind} needs two distinct elements", lineno, col)
        if not poset.incomparable(x, y):
            raise BadChoiceError(
                f"line {lineno}: {kind}({a}, {b}) assigns a comparable pair;"
                " its value is determined by the order",
                pair=(x, y),
            )
        key = (x, y) if x < y else (y, x)
        target = joins if kind == "join" else meets
        if key in target:
            raise ParseError(f"duplicate {kind} assignment for {a}, {b}", lineno, col)
        target[key] = v

    if "acute" in directives and poset.bounds() is not None:
        for key in poset.incomparable_pairs:  # every open pair goes to (top, bottom)
            joins.setdefault(key, poset.top)
            meets.setdefault(key, poset.bottom)
    return from_choice(poset, ChoiceSpec(joins, meets))


def render_instance(obj: Poset | LambdaLattice) -> str:
    """Canonical text for an instance; parse_instance inverts it.

    Join/meet lines appear only for values the forced-fill rule would
    not reproduce, so rendering is minimal as well as lossless; a
    completion with none gets a bare 'lattice' line instead.
    """
    p = obj.poset if isinstance(obj, LambdaLattice) else obj
    names = p.labels or [str(i) for i in range(p.n)]
    lines = ["elements: " + " ".join(names)]
    covers = [f"{names[a]} < {names[b]}" for a, row in enumerate(p._covers_above) for b in _bits(row)]
    if covers:
        lines.append("covers: " + "  ".join(covers))
    if isinstance(obj, LambdaLattice):
        picks = [f"{op}: {names[x]} {names[y]} = {names[v]}" for op, x, y, v in _unforced(obj)]
        lines += picks or ["lattice"]
    return "\n".join(lines) + "\n"
