"""Lambda-lattice algebras: operation tables, axiom checks, completions of directed posets."""

from dataclasses import dataclass, field
from itertools import product
from typing import Iterator, Mapping, Sequence

from .errors import (
    ArgumentError,
    BadChoiceError,
    IncompleteChoiceError,
    NotDirectedError,
    RangeError,
    UnboundedError,
)
from .poset import Poset, _bits, _check_index, _completion_rows, _least, _positions
from .verdict import HOLDS, DictRecord, Verdict

Pair = tuple[int, int]


def _normalized(assignments: Mapping[Pair, int]) -> dict[Pair, int]:
    out: dict[Pair, int] = {}
    for (x, y), v in dict(assignments).items():
        if not all(isinstance(i, int) and not isinstance(i, bool) for i in (x, y, v)):
            raise RangeError(f"pick ({x!r}, {y!r}) = {v!r} holds an element that is not an int")
        if x == y:
            raise ArgumentError(f"({x}, {y}) is not a pair of distinct elements")
        key = (x, y) if x < y else (y, x)
        if key in out and out[key] != v:
            raise ArgumentError(f"conflicting assignments for pair {key}")
        out[key] = v
    return out


@dataclass(frozen=True)
class ChoiceSpec:
    """Join and meet picks for incomparable pairs, keyed by (low, high) index pair."""

    joins: dict = field(default_factory=dict)
    meets: dict = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "joins", _normalized(self.joins))
        object.__setattr__(self, "meets", _normalized(self.meets))


@dataclass(frozen=True)
class AxiomReport(DictRecord):
    """Verdicts for the three defining identities of the algebra."""

    commutativity: Verdict
    weak_associativity: Verdict
    absorption: Verdict

    @property
    def all_pass(self) -> bool:
        return self.commutativity.holds and self.weak_associativity.holds and self.absorption.holds


def _table(t) -> tuple[tuple[int, ...], ...]:
    n = len(t)
    if n == 0:
        raise ArgumentError("an operation table needs at least one element")
    rows = []
    for row in t:
        row = tuple(row)
        if len(row) != n:
            raise ArgumentError("operation table must be square")
        for v in row:
            _check_index(n, v)
        rows.append(row)
    return tuple(rows)


def check_axioms(join, meet) -> AxiomReport:
    """Evaluate commutativity, weak associativity and absorption on raw tables.

    Each failed identity reports its least witness in scan order
    (pairs for commutativity and absorption, triples for weak
    associativity); the note names the failing identity.
    """
    jt, mt = _table(join), _table(meet)
    if len(jt) != len(mt):
        raise ArgumentError("join and meet tables differ in size")
    n = len(jt)

    # each identity is stated once over a (join, meet) side tuple; its scan
    # visits the tuples in order and tries the join half before the meet
    # half, so the first failure is the least witness
    sides = (("v", "^", jt, mt), ("^", "v", mt, jt))

    def first_failure(failures, note: str) -> Verdict:
        hit = next(failures, None)
        if hit is None:
            return HOLDS
        w, op, dual = hit
        return Verdict(False, w, note.format(op=op, dual=dual))

    pairs = tuple(product(range(n), repeat=2))
    return AxiomReport(
        first_failure((((x, y), op, dual) for x, y in pairs if x < y
                       for op, dual, t, _ in sides if t[x][y] != t[y][x]),
                      "x {op} y = y {op} x fails"),
        first_failure((((x, y, z), op, dual) for x, y, z in product(range(n), repeat=3)
                       for op, dual, t, _ in sides if t[x][t[t[x][y]][z]] != t[t[x][y]][z]),
                      "x {op} ((x {op} y) {op} z) = (x {op} y) {op} z fails"),
        first_failure((((x, y), op, dual) for x, y in pairs
                       for op, dual, t, d in sides if t[x][d[x][y]] != x),
                      "x {op} (x {dual} y) = x fails"),
    )


class LambdaLattice:
    """Symmetric join/meet tables over a poset.

    Construction enforces the table contract: comparable pairs map to max
    and min, incomparable pairs map into their common upper/lower bound
    sets, and the order induced by the tables is the poset order.
    """

    __slots__ = ("poset", "join_table", "meet_table")

    def __init__(self, poset: Poset, join, meet):
        self.poset = poset
        self.join_table, self.meet_table = _table(join), _table(meet)
        self._validate()

    @classmethod
    def _from_tables(cls, poset: Poset, join: tuple, meet: tuple) -> "LambdaLattice":
        # trusted path for builders that meet the contract; keeps the tuples as given
        ll = cls.__new__(cls)
        ll.poset, ll.join_table, ll.meet_table = poset, join, meet
        return ll

    def _validate(self) -> None:
        p, n = self.poset, self.poset.n
        jt, mt = self.join_table, self.meet_table
        # _table has checked that each table is square with entries in range
        if len(jt) != n or len(mt) != n:
            raise ArgumentError("operation tables must be n x n")
        up = p._up
        for x in range(n):
            for y in range(x, n):
                jv, mv = jt[x][y], mt[x][y]
                if jt[y][x] != jv or mt[y][x] != mv:
                    raise ArgumentError(f"tables must be symmetric at ({x}, {y})")
                if not (up[x] >> y & 1 or up[y] >> x & 1):
                    _check_bound(p, "join", x, y, jv)
                    _check_bound(p, "meet", x, y, mv)
                elif (jv, mv) != ((y, x) if up[x] >> y & 1 else (x, y)):
                    raise BadChoiceError(
                        f"comparable pair ({p.label(x)}, {p.label(y)}) must use max and min",
                        pair=(x, y),
                    )

    # ----- basic access -----

    @property
    def n(self) -> int:
        return self.poset.n

    @property
    def labels(self):
        return self.poset.labels

    def label(self, x: int) -> str:
        return self.poset.label(x)

    def join(self, x: int, y: int) -> int:
        _check_index(self.n, x)
        _check_index(self.n, y)
        return self.join_table[x][y]

    def meet(self, x: int, y: int) -> int:
        _check_index(self.n, x)
        _check_index(self.n, y)
        return self.meet_table[x][y]

    def choice_spec(self) -> ChoiceSpec:
        """The assignments carried by the incomparable pairs."""
        joins, meets = {}, {}
        for x, y in self.poset.incomparable_pairs:
            joins[(x, y)] = self.join_table[x][y]
            meets[(x, y)] = self.meet_table[x][y]
        return ChoiceSpec(joins, meets)

    def axiom_report(self) -> AxiomReport:
        return check_axioms(self.join_table, self.meet_table)

    # ----- transformations -----

    def restrict(self, elements) -> "LambdaLattice":
        """Table restriction to a subset closed under both operations.

        Closure is tested on incomparable pairs only: a comparable pair's
        join and meet are the pair itself.
        """
        elems = sorted(set(elements))
        sub = self.poset.restrict(elems)  # checks the indices
        pos, mask = _positions(self.n, elems)
        inc = self.poset._incomparable
        jt, mt = self.join_table, self.meet_table
        for x in elems:
            for y in _bits(inc[x] & mask):
                if not (mask >> jt[x][y] & 1 and mask >> mt[x][y] & 1):
                    raise ArgumentError("subset is not closed under the operations")
        # a closed subset keeps the table contract, so no validation is needed
        return LambdaLattice._from_tables(
            sub,
            tuple([tuple([pos[jt[x][y]] for y in elems]) for x in elems]),
            tuple([tuple([pos[mt[x][y]] for y in elems]) for x in elems]),
        )

    def relabel(self, perm: Sequence[int]) -> "LambdaLattice":
        n = self.n
        sub = self.poset.relabel(perm)
        jt = [[0] * n for _ in range(n)]
        mt = [[0] * n for _ in range(n)]
        for x in range(n):
            for y in range(n):
                jt[perm[x]][perm[y]] = perm[self.join_table[x][y]]
                mt[perm[x]][perm[y]] = perm[self.meet_table[x][y]]
        return LambdaLattice._from_tables(sub, _frozen(jt), _frozen(mt))

    def is_isomorphic(self, other: "LambdaLattice") -> bool:
        """Isomorphic posets whose tables agree once both are relabeled canonically.

        Only the relabelings onto the poset's canonical form are tried, so
        the encodings compared share their poset part.
        """
        return (self.poset.is_isomorphic(other.poset)
                and _least_encoding(self) == _least_encoding(other))

    def encoding(self) -> tuple:
        """Sort key: poset encoding plus the per-pair (join, meet) choices.

        Matches the order in which enumerate_completions yields
        completions of one poset, so iteration order and encoding order
        agree globally.
        """
        choices = tuple(
            (self.join_table[x][y], self.meet_table[x][y])
            for x, y in self.poset.incomparable_pairs
        )
        return (self.poset.encoding(), choices)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, LambdaLattice)
            and self.poset == other.poset
            and self.join_table == other.join_table
            and self.meet_table == other.meet_table
        )

    def __hash__(self) -> int:
        return hash((self.poset, self.join_table, self.meet_table))

    def __repr__(self) -> str:
        spec = self.choice_spec()
        picks = ", ".join(
            f"{self.label(x)}v{self.label(y)}={self.label(v)}" for (x, y), v in spec.joins.items()
        )
        return f"LambdaLattice(n={self.n}, joins=[{picks}])"


def _least_encoding(ll: LambdaLattice) -> tuple:
    return min(ll.relabel(perm).encoding() for perm in ll.poset._canonical[1])


# ----- construction from a poset plus choices -----


def forced_join(p: Poset, x: int, y: int) -> int | None:
    """The least common upper bound, or None when there is none."""
    _check_index(p.n, x)
    _check_index(p.n, y)
    return _least(p._up[x] & p._up[y], p._up)


def forced_meet(p: Poset, x: int, y: int) -> int | None:
    """The greatest common lower bound, or None when there is none."""
    _check_index(p.n, x)
    _check_index(p.n, y)
    return _least(p._down[x] & p._down[y], p._down)


def _frozen(rows) -> tuple[tuple[int, ...], ...]:
    return tuple(map(tuple, rows))


def _check_bound(p: Poset, op: str, x: int, y: int, v) -> None:
    """Raise unless v is a common upper ("join") or lower ("meet") bound of x and y."""
    _check_index(p.n, v)
    masks, side = (p._up, "upper") if op == "join" else (p._down, "lower")
    if not (masks[x] & masks[y]) >> v & 1:
        raise BadChoiceError(
            f"{op}({p.label(x)}, {p.label(y)}) = {p.label(v)} is not a common {side} bound",
            pair=(x, y),
        )


def from_choice(p: Poset, choice: ChoiceSpec | None = None) -> LambdaLattice:
    """Complete a directed poset into a lambda-lattice.

    Comparable pairs take max and min. For an incomparable pair the
    choice spec may pick any common upper/lower bound, not only a
    minimal or maximal one. A pair left out takes its forced value: the
    least upper bound (greatest lower bound) when there is one. Whatever
    remains unassigned raises IncompleteChoiceError.
    """
    if not p.is_directed():
        raise NotDirectedError("a completion needs a directed poset")
    joins = dict(choice.joins) if choice is not None else {}
    meets = dict(choice.meets) if choice is not None else {}
    jt, mt, pairs = _completion_rows(p)
    sides = (("join", joins, jt, forced_join), ("meet", meets, mt, forced_meet))
    missing: list[tuple[str, int, int]] = []
    for x, y in pairs:
        for op, picks, table, forced in sides:
            v = picks.pop((x, y)) if (x, y) in picks else forced(p, x, y)
            if v is None:
                missing.append((op, x, y))
            else:
                _check_bound(p, op, x, y, v)
                table[x][y] = table[y][x] = v
    if joins or meets:
        pair = next(iter(joins or meets))
        raise BadChoiceError(
            f"assignment for pair {pair} which is not an incomparable pair of the poset",
            pair=pair,
        )
    if missing:
        gaps = ", ".join(f"{kind}({p.label(x)}, {p.label(y)})" for kind, x, y in missing)
        raise IncompleteChoiceError(
            f"no value for: {gaps}", pairs=tuple((x, y) for _, x, y in missing)
        )
    return LambdaLattice._from_tables(p, _frozen(jt), _frozen(mt))


def acute(p: Poset) -> LambdaLattice:
    """The completion sending every incomparable pair to (top, bottom).

    Top and bottom bound every pair, so the tables meet the contract and
    are built trusted; equal to from_choice with every pair picked as
    (top, bottom).
    """
    if p.bounds() is None:
        raise UnboundedError("the acute completion needs a bounded poset")
    jt, mt, pairs = _completion_rows(p)
    for x, y in pairs:
        jt[x][y] = jt[y][x] = p.top
        mt[x][y] = mt[y][x] = p.bottom
    return LambdaLattice._from_tables(p, _frozen(jt), _frozen(mt))


# ----- algebra-level predicates -----


def idempotency_holds(ll: LambdaLattice) -> bool:
    """Diagonal fixpoints of both tables; a consequence of the axioms."""
    return all(
        ll.join_table[x][x] == x and ll.meet_table[x][x] == x for x in range(ll.n)
    )


def _unforced(ll: LambdaLattice) -> Iterator[tuple[str, int, int, int]]:
    """(op, x, y, value) for each incomparable pair x < y whose pick is not forced.

    A common upper bound v of x and y is the least one exactly when up[v] ==
    up[x] & up[y], poset._least's rule tested at one candidate; meets read
    the down rows the same way. All joins come first, then all meets.
    """
    p = ll.poset
    for op, table, rows in (("join", ll.join_table, p._up), ("meet", ll.meet_table, p._down)):
        for x, y in p.incomparable_pairs:
            v = table[x][y]
            if rows[v] != rows[x] & rows[y]:
                yield op, x, y, v


def is_lattice(ll: LambdaLattice) -> bool:
    """Join is always the least upper bound and meet the greatest lower bound."""
    return next(_unforced(ll), None) is None


def _inner(p: Poset) -> int:
    """Mask of the elements strictly between the bottom and the top.

    A lambda-lattice is bounded: two maximal elements would have no join.
    """
    return ((1 << p.n) - 1) & ~(1 << p.bottom | 1 << p.top)


def _monotone_failure(ll: LambdaLattice, tables) -> tuple[int, int, int] | None:
    """The least (x, y, z) with x < y and t[x][z] not <= t[y][z] for one of the tables.

    Only z incomparable to x or to y can fail: a chain's joins and meets
    are max and min. Neither can x = 0 (0 v z = z and 0 ^ z = 0) or
    y = 1 (x v z <= 1 and x ^ z <= z = 1 ^ z), so x and y are inner.
    """
    p = ll.poset
    up, inc = p._up, p._incomparable
    inner = _inner(p)
    for x in _bits(inner):
        for y in _bits(up[x] & inner & ~(1 << x)):
            for z in _bits(inc[x] | inc[y]):
                for t in tables:
                    if not up[t[x][z]] >> t[y][z] & 1:
                        return (x, y, z)
    return None


def is_monotone(ll: LambdaLattice) -> bool:
    """x <= y forces x v z <= y v z and x ^ z <= y ^ z for every z."""
    return _monotone_failure(ll, (ll.join_table, ll.meet_table)) is None


def is_modular(ll: LambdaLattice) -> bool:
    """x <= z forces x v (y ^ z) = (x v y) ^ z for every y.

    Only y incomparable to x or to z can fail: a chain is modular. Nor
    can z = x (absorption), x = 0 (y ^ z on both sides) or z = 1
    (x v y on both sides), so x < z are inner.
    """
    p = ll.poset
    inc = p._incomparable
    jt, mt = ll.join_table, ll.meet_table
    inner = _inner(p)
    for x in _bits(inner):
        for z in _bits(p._up[x] & inner & ~(1 << x)):
            for y in _bits(inc[x] | inc[z]):
                if jt[x][mt[y][z]] != mt[jt[x][y]][z]:
                    return False
    return True


def is_distributive(ll: LambdaLattice) -> bool:
    """Both distributive laws over all triples.

    Triples forming a chain are skipped: a chain is distributive. So are
    triples holding a bound: with x = 0 or 1 both sides agree outright,
    and with y or z = 0 or 1 they agree by absorption, so x, y and z are
    inner.
    """
    inc = ll.poset._incomparable
    jt, mt = ll.join_table, ll.meet_table
    inner = _bits(_inner(ll.poset))
    for x in inner:
        for y in inner:
            for z in inner if inc[x] >> y & 1 else _bits(inc[x] | inc[y]):
                if mt[x][jt[y][z]] != jt[mt[x][y]][mt[x][z]]:
                    return False
                if jt[x][mt[y][z]] != mt[jt[x][y]][jt[x][z]]:
                    return False
    return True


def convex_closed_subsets(ll: LambdaLattice) -> Iterator[frozenset[int]]:
    """Nonempty convex subsets closed under both tables, ascending by bitmask.

    Each mask from 1 to 2^n - 1 is tried in turn; convexity is
    Poset.is_convex. Closure is tested on incomparable pairs only: a
    comparable pair's join and meet are the pair itself. Each yielded
    subset induces a lambda-lattice via LambdaLattice.restrict. Cost
    grows as 2^n; intended for n <= 12.
    """
    p = ll.poset
    jt, mt = ll.join_table, ll.meet_table
    pairs = p.incomparable_pairs
    for mask in range(1, 1 << p.n):
        if not p.is_convex(_bits(mask)):
            continue
        for x, y in pairs:
            if (mask >> x & 1 and mask >> y & 1
                    and not (mask >> jt[x][y] & 1 and mask >> mt[x][y] & 1)):
                break
        else:
            yield frozenset(_bits(mask))
