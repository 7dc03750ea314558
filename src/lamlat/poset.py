"""Finite posets: order matrices, covers, bounds, heights, chains, convexity."""

from dataclasses import dataclass
from functools import cached_property, lru_cache, reduce
from itertools import chain, groupby, permutations, product, repeat
from operator import and_
from typing import Iterable, Iterator, Sequence

from .errors import (
    ArgumentError,
    CycleError,
    InvalidOrderError,
    NoTopError,
    RangeError,
    UnboundedError,
)
from .verdict import HOLDS, Verdict, failing


class _cached(cached_property):
    """functools.cached_property without the lock Python < 3.12 takes on first access.

    The value is stored with setattr, which keeps CPython's compact
    per-instance attribute values; writing to obj.__dict__ would build a
    dict object on every instance that caches anything.
    """

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        value = self.func(obj)
        setattr(obj, self.attrname, value)
        return value


class _BitTable(dict):
    """mask -> the indices of its set bits, ascending, computed on first use and kept below 2^10."""

    def __missing__(self, mask: int) -> tuple[int, ...]:
        if mask < 0:
            raise ValueError(f"a bit mask must not be negative, not {mask}")
        bits = tuple(i for i in range(mask.bit_length()) if mask >> i & 1)
        return self.setdefault(mask, bits) if mask < 1 << 10 else bits


_bits = _BitTable().__getitem__  # larger masks are not kept: convex_closed_subsets reads all 2^n


def _is_int(v) -> bool:
    """The one test for an index, a size or a permutation entry: an int that is not a bool."""
    return isinstance(v, int) and not isinstance(v, bool)


def _check_index(n: int, *xs) -> None:
    for x in xs:
        if not _is_int(x) or not 0 <= x < n:
            raise RangeError(f"element index {x!r} out of range 0..{n - 1}")


def _check_size(value, message: str) -> int:
    """value, if it is an int of at least 1; message is the error for a smaller int."""
    if not _is_int(value):
        raise ArgumentError(f"a size must be an int, not {value!r}")
    if value < 1:
        raise ArgumentError(message)
    return value


def _least(bounds: int, toward: Sequence[int]) -> int | None:
    """The least member of bounds along the toward rows, if any.

    bounds must be an intersection of toward rows: with up-set rows it is
    an up-set, and an up-set has a least member e exactly when it equals
    up[e] (dually, down-set rows give the greatest member). On a finite
    carrier that is also the unique minimal (maximal) member.
    """
    return toward.index(bounds) if bounds in toward else None


def _permuted(up: Sequence[int], perm: Sequence[int]) -> tuple[int, ...]:
    """Relation rows carried along the old-index -> new-index permutation."""
    out = [0] * len(up)
    for i, row in enumerate(up):
        mask = 0
        for j in _bits(row):
            mask |= 1 << perm[j]
        out[perm[i]] = mask
    return tuple(out)


def _positions(n: int, elems: Sequence[int]) -> tuple[list[int], int]:
    """Per element its index in the sorted elems (0 for non-members), and elems as a mask."""
    pos = [0] * n
    mask = 0
    for i, e in enumerate(elems):
        pos[e] = i
        mask |= 1 << e
    return pos, mask


def _validate_order(n: int, up: Sequence[int]) -> None:
    for i in range(n):
        if not up[i] >> i & 1:
            raise InvalidOrderError(f"relation is not reflexive at element {i}")
    for i in range(n):
        for j in _bits(up[i] & ~(1 << i)):
            if up[j] >> i & 1:
                raise CycleError(f"antisymmetry fails between {i} and {j}")
            if up[j] & ~up[i]:
                raise InvalidOrderError(f"transitivity fails through {i} <= {j}")


def _checked_labels(n: int, labels: Sequence[str] | None) -> tuple[str, ...] | None:
    """Labels as strings, one per element, pairwise distinct, each one token of an instance file."""
    if labels is None:
        return None
    labels = tuple(str(s) for s in labels)
    if len(labels) != n:
        raise ArgumentError("labels must match the element count")
    if len(set(labels)) != n:
        raise ArgumentError("labels must be unique")
    if any(s.split() != [s] or "#" in s for s in labels):  # so parse_instance reads them back
        raise ArgumentError("labels must be nonempty and hold no whitespace or '#'")
    return labels


@dataclass(frozen=True)
class Chain:
    """Saturated chain: consecutive elements form covering pairs."""

    elements: tuple[int, ...]

    @property
    def length(self) -> int:
        """Number of covering steps."""
        return len(self.elements) - 1


class Poset:
    """Immutable finite poset on elements 0..n-1.

    The relation is stored as one bitmask per element: bit j of the mask
    for i is set iff i <= j; a matrix entry must be 0, 1 or a bool.
    Labels are display metadata only; equality and hashing use the order
    structure alone.
    """

    def __init__(self, leq: Sequence[Sequence[object]], labels: Sequence[str] | None = None):
        n = len(leq)
        if n == 0:
            raise ArgumentError("a poset needs at least one element")
        up = []
        for i, row in enumerate(leq):
            row = list(row)
            if len(row) != n:
                raise InvalidOrderError("relation matrix must be square")
            mask = 0
            for j, v in enumerate(row):
                if not (isinstance(v, int) and v in (0, 1)):  # bools are ints
                    raise InvalidOrderError(
                        f"relation matrix entry ({i}, {j}) is {v!r}, not 0, 1, True or False")
                if v:
                    mask |= 1 << j
            up.append(mask)
        _validate_order(n, up)
        self.n, self._up, self.labels = n, tuple(up), _checked_labels(n, labels)

    @classmethod
    def _from_masks(cls, n: int, up: Sequence[int], labels=None) -> "Poset":
        # trusted path for generators; skips matrix validation
        p = cls.__new__(cls)
        p.n, p._up = n, tuple(up)
        p.labels = None if labels is None else _checked_labels(n, labels)
        return p

    @classmethod
    def from_covers(cls, n: int, covers: Iterable[tuple[int, int]],
                    labels: Sequence[str] | None = None) -> "Poset":
        """Reflexive-transitive closure of a cover list; rejects cyclic input."""
        _check_size(n, "a poset needs at least one element")
        up = [1 << i for i in range(n)]
        for a, b in covers:
            _check_index(n, a, b)
            if a == b:
                raise CycleError(f"self-cover on element {a}")
            up[a] |= 1 << b
        for k in range(n):  # Warshall's closure, one bitmask row at a time
            for i in range(n):
                if up[i] >> k & 1:
                    up[i] |= up[k]
        _validate_order(n, up)  # the closure is reflexive and transitive: only a cycle fails
        return cls._from_masks(n, up, labels)

    # ----- relation queries -----

    def leq(self, x: int, y: int) -> bool:
        _check_index(self.n, x, y)
        return bool(self._up[x] >> y & 1)

    def lt(self, x: int, y: int) -> bool:
        return x != y and self.leq(x, y)

    def incomparable(self, x: int, y: int) -> bool:
        return not self.leq(x, y) and not self.leq(y, x)

    def label(self, x: int) -> str:
        return self.labels[x] if self.labels is not None else str(x)

    @_cached
    def _down(self) -> tuple[int, ...]:
        down = [0] * self.n
        for i, row in enumerate(self._up):
            for j in _bits(row):
                down[j] |= 1 << i
        return tuple(down)

    def up_set(self, x: int) -> frozenset[int]:
        """Elements at or above x."""
        _check_index(self.n, x)
        return frozenset(_bits(self._up[x]))

    def down_set(self, x: int) -> frozenset[int]:
        """Elements at or below x."""
        _check_index(self.n, x)
        return frozenset(_bits(self._down[x]))

    def upper_bounds(self, x: int, y: int) -> frozenset[int]:
        """Common upper bounds of x and y."""
        _check_index(self.n, x, y)
        return frozenset(_bits(self._up[x] & self._up[y]))

    def lower_bounds(self, x: int, y: int) -> frozenset[int]:
        """Common lower bounds of x and y."""
        _check_index(self.n, x, y)
        return frozenset(_bits(self._down[x] & self._down[y]))

    def is_directed(self) -> bool:
        """Every pair has a common upper bound and a common lower bound.

        On a finite carrier this means that a bottom and a top exist.
        """
        return self.bounds() is not None

    @_cached
    def bottom(self) -> int | None:
        """The least element: _least of the whole carrier, the empty intersection of rows."""
        return _least((1 << self.n) - 1, self._up)

    @_cached
    def top(self) -> int | None:
        """The greatest element: the one bit of the AND of the up-set rows, if any.

        The labeled stream stores it at build (search._labeled_posets), from
        the AND its walk keeps; any other poset computes it on first read.
        """
        common = reduce(and_, self._up)
        return common.bit_length() - 1 if common else None

    def bounds(self) -> tuple[int, int] | None:
        """(bottom, top) when both exist, else None."""
        if self.bottom is None or self.top is None:
            return None
        return (self.bottom, self.top)

    # ----- covers -----

    @_cached
    def _covers_above(self) -> tuple[int, ...]:
        # the covers of x: its strict up-set minus everything strictly above a member
        up, out = self._up, []
        for x, row in enumerate(up):
            s, higher = row ^ 1 << x, 0
            for z in _bits(s):
                higher |= up[z] ^ 1 << z
            out.append(s & ~higher)
        return tuple(out)

    @property
    def covers(self) -> tuple[tuple[int, int], ...]:
        """All covering pairs (x, y) with y covering x, lexicographic; built on each read, not held."""
        return tuple(
            (x, y) for x in range(self.n) for y in _bits(self._covers_above[x])
        )

    def covers_above(self, x: int) -> tuple[int, ...]:
        _check_index(self.n, x)
        return _bits(self._covers_above[x])

    def covers_below(self, x: int) -> tuple[int, ...]:
        _check_index(self.n, x)
        return tuple([w for w, row in enumerate(self._covers_above) if row >> x & 1])

    def is_cover(self, x: int, y: int) -> bool:
        """True iff y covers x."""
        _check_index(self.n, x, y)
        return bool(self._covers_above[x] >> y & 1)

    # ----- heights and chains -----

    @_cached
    def heights(self) -> tuple[int, ...]:
        """h(x) for every x: length of a longest chain from the bottom to x.

        Level k holds the elements that end a strict chain of length k from
        the bottom: level 1 is the bottom's strict up-set, and level k + 1
        the union of the strict up-sets of level k. h(x) is x's last level.
        """
        if self.bottom is None:
            raise UnboundedError("heights need a bottom element")
        strict = [row & ~(1 << x) for x, row in enumerate(self._up)]
        h = [0] * self.n
        level, k = strict[self.bottom], 1
        while level:
            above = 0
            for x in _bits(level):
                h[x] = k
                above |= strict[x]
            level, k = above, k + 1
        return tuple(h)

    def height(self, x: int) -> int:
        _check_index(self.n, x)
        return self.heights[x]

    def length(self) -> int:
        """Height of the top element."""
        if self.bounds() is None:
            raise UnboundedError("length needs bottom and top elements")
        return self.heights[self.top]

    def maximal_chains_to_top(self, a: int) -> list[Chain]:
        """All saturated chains from a to the top, in lexicographic order."""
        if self.top is None:
            raise NoTopError("poset has no top element")
        _check_index(self.n, a)
        if a == self.top:
            return [Chain((a,))]
        return [Chain((a, *c.elements)) for w in _bits(self._covers_above[a])
                for c in self.maximal_chains_to_top(w)]

    def _toward_bottom(self) -> list[int]:
        # the elements by ascending up-set size: each comes after every element above it
        if self.top is None:
            raise NoTopError("poset has no top element")
        return sorted(range(self.n), key=[row.bit_count() for row in self._up].__getitem__)

    def chain_lengths_to_top(self) -> tuple[int, ...]:
        """Per element, bit l set iff a saturated chain of length l runs from it to the top.

        One pass by ascending up-set size: each element ORs its covers' masks shifted by one.
        """
        order, above = self._toward_bottom(), self._covers_above
        lengths = [0] * self.n
        lengths[self.top] = 1
        for x in order:
            for w in _bits(above[x]):
                lengths[x] |= lengths[w] << 1
        return tuple(lengths)

    def chain_counts_to_top(self) -> tuple[int, ...]:
        """Per element, the number of saturated chains from it to the top; none is built.

        The pass of chain_lengths_to_top, summing the covers' counts.
        """
        order, above = self._toward_bottom(), self._covers_above
        counts = [0] * self.n
        counts[self.top] = 1
        for x in order:
            for w in _bits(above[x]):
                counts[x] += counts[w]
        return tuple(counts)

    # ----- structural predicates -----

    def has_lu_covering(self) -> Verdict:
        """Whenever x is covered by incomparable y and z, some u covers both.

        Distinct covers of x are incomparable: y < z would put y between x and z.
        Each unordered pair is tried once, as y < z, so the witness is the
        first failing (x, y, z) in lexicographic order.
        """
        above = self._covers_above
        for x, row in enumerate(above):
            if not row & (row - 1):
                continue  # fewer than two covers
            ys = _bits(row)
            for k, y in enumerate(ys):
                ay = above[y]
                for z in ys[k + 1:]:
                    if not ay & above[z]:
                        return failing((x, y, z))
        return HOLDS

    def is_convex(self, elements: Iterable[int]) -> bool:
        """Contains every element lying between two of its members."""
        mask = up = down = 0
        for x in elements:
            _check_index(self.n, x)
            mask |= 1 << x
            up |= self._up[x]
            down |= self._down[x]
        return up & down == mask  # up & down: the members and all elements between two

    @_cached
    def _incomparable(self) -> tuple[int, ...]:
        # per element: the mask of elements incomparable to it; this fact and the
        # next two are stored by _completion_rows, so a first read runs that pass
        _completion_rows(self)
        return self._incomparable

    @_cached
    def _incomparable_cells(self) -> tuple[tuple[int, int], ...]:
        # every ordered pair (x, y) with x || y, ascending by x and then by y
        _completion_rows(self)
        return self._incomparable_cells

    @_cached
    def incomparable_pairs(self) -> tuple[tuple[int, int], ...]:
        """Pairs (x, y) with x < y as indices and x, y order-incomparable."""
        _completion_rows(self)
        return self.incomparable_pairs

    def atoms(self) -> frozenset[int]:
        """Covers of the bottom element."""
        if self.bottom is None:
            raise UnboundedError("atoms need a bottom element")
        return frozenset(_bits(self._covers_above[self.bottom]))

    def _coatom_mask(self) -> int:
        """The elements covered by the top, as a mask: those whose only cover is the top.

        Any other cover of x would lie below the top.
        """
        if self.top is None:
            raise NoTopError("coatoms need a top element")
        top, mask = 1 << self.top, 0
        for x, row in enumerate(self._covers_above):
            if row == top:
                mask |= 1 << x
        return mask

    def coatoms(self) -> frozenset[int]:
        """Elements covered by the top."""
        return frozenset(_bits(self._coatom_mask()))

    # ----- transformations -----

    def relabel(self, perm: Sequence[int]) -> "Poset":
        """Image under old-index -> new-index permutation; labels move along."""
        n = self.n
        if not all(map(_is_int, perm)) or sorted(perm) != list(range(n)):
            raise ArgumentError("not a permutation of the carrier")
        up = _permuted(self._up, perm)
        labels = None
        if self.labels is not None:
            moved = [""] * n
            for i in range(n):
                moved[perm[i]] = self.labels[i]
            labels = tuple(moved)
        return Poset._from_masks(n, up, labels)

    def restrict(self, elements: Iterable[int]) -> "Poset":
        """Induced sub-order, reindexed over the sorted element list."""
        elements = tuple(elements)
        _check_index(self.n, *elements)  # before the set, where True would fold into 1
        elems = sorted(set(elements))
        if not elems:
            raise ArgumentError("a restriction needs at least one element")
        pos, mask = _positions(self.n, elems)
        up = []
        for e in elems:
            row = 0
            for j in _bits(self._up[e] & mask):
                row |= 1 << pos[j]
            up.append(row)
        labels = tuple(self.label(e) for e in elems) if self.labels is not None else None
        return Poset._from_masks(len(elems), up, labels)

    def encoding(self) -> tuple[int, ...]:
        """Total order key: element count followed by the relation bitmask rows.

        Enumeration yields posets in ascending encoding order, so the
        first hit of any scan is also the least.
        """
        return (self.n, *self._up)

    # ----- isomorphism: one canonical form over the size-sorted relabelings -----

    @_cached
    def _canonical(self) -> tuple[tuple[int, ...], tuple[tuple[int, ...], ...]]:
        # the least rows over the relabelings that list the elements by ascending
        # sizes, a product of permutations within equal sizes, and every old -> new
        # permutation reaching them: as isomorphisms keep the sizes, isomorphic
        # posets share the rows and every isomorphism onto them is among these
        sizes = [(d.bit_count(), u.bit_count()) for d, u in zip(self._down, self._up)]
        order = sorted(range(self.n), key=sizes.__getitem__)
        groups = [tuple(g) for _, g in groupby(order, sizes.__getitem__)]
        best, perms = None, []
        for listing in product(*map(permutations, groups)):
            perm = [0] * self.n
            for new, old in enumerate(chain.from_iterable(listing)):
                perm[old] = new
            rows = _permuted(self._up, perm)
            if best is None or rows < best:
                best, perms = rows, [tuple(perm)]
            elif rows == best:
                perms.append(tuple(perm))
        return best, tuple(perms)

    def is_isomorphic(self, other: "Poset") -> bool:
        """Same size and the same canonical form; computed once per poset object."""
        return self.n == other.n and self._canonical[0] == other._canonical[0]

    # ----- dunder -----

    def __eq__(self, other) -> bool:
        return isinstance(other, Poset) and self.n == other.n and self._up == other._up

    def __hash__(self) -> int:
        return hash((self.n, self._up))

    def __repr__(self) -> str:
        pairs = " ".join(f"{self.label(x)}<{self.label(y)}" for x, y in self.covers)
        return f"Poset(n={self.n}, covers=[{pairs}])"


# the bounded labeled posets with n <= 7 give 5 653 keys (2.7 MB, cells
# included) and the bounded classes with n <= 8 give 267; the bound stops
# larger inputs growing it
@lru_cache(maxsize=1 << 14)
def _base_row(n: int, x: int, up: int, down: int) -> tuple[tuple, tuple, int, tuple, tuple]:
    # x's join and meet rows, the mask of the elements incomparable to x,
    # its incomparable cells (x, y) ascending, and those with x < y; all
    # depend only on the elements above and below x
    j, m = [0] * n, [0] * n
    for y in _bits(up):
        j[y], m[y] = y, x
    for y in _bits(down):
        j[y], m[y] = x, y
    inc = ((1 << n) - 1) & ~(up | down)
    cells = tuple([(x, y) for y in _bits(inc)])
    return tuple(j), tuple(m), inc, cells, tuple([c for c in cells if c[1] > x])


def _completion_rows(p: Poset, acute: bool = False) -> tuple[Sequence, Sequence, tuple[tuple[int, int], ...]]:
    """Join rows, meet rows and incomparable pairs of p, from one pass over its rows.

    Comparable cells hold max and min, incomparable ones 0. A row holding
    an incomparable cell is a fresh list copy of its cached _base_row
    tuple, for the caller to write; every other row is that tuple, shared
    by every caller, which lattice._frozen keeps as it is. With acute set
    (p bounded), each such copy takes p's top and bottom in its
    incomparable cells and is frozen at once, and both tables come back as
    tuples: lattice.acute's tables, written nowhere else. The pass stores
    p._incomparable, p._incomparable_cells and p.incomparable_pairs, and
    is their one definition: the Poset properties of those names run it
    on first read, so nothing that reads p's completions builds them
    again. The pairs are the (x, y) with x < y and x || y, ascending.
    """
    n = p.n
    jt, mt, inc = [], [], []
    cells = pairs = ()  # grown by tuple concatenation: few rows hold incomparable cells
    rows = map(_base_row, repeat(n), range(n), p._up, p._down)
    if acute:  # a loop of its own: a per-row test in the loop below slowed the completion stream
        top, bottom = p.top, p.bottom
        for j, m, free, xcells, later in rows:
            if free:
                j, m = list(j), list(m)
                for y in _bits(free):
                    j[y] = top
                    m[y] = bottom
                j, m = tuple(j), tuple(m)
                cells += xcells
                pairs += later
            jt.append(j)
            mt.append(m)
            inc.append(free)
        jt, mt = tuple(jt), tuple(mt)
    else:
        for j, m, free, xcells, later in rows:
            if free:
                j, m = list(j), list(m)
                cells += xcells
                pairs += later
            jt.append(j)
            mt.append(m)
            inc.append(free)
    p._incomparable, p._incomparable_cells = tuple(inc), cells
    p.incomparable_pairs = pairs
    return jt, mt, pairs


class _BoundedPoset(Poset):
    """A bounded poset that answers its order queries from its middle poset.

    A bounded labeled poset on n > 1 elements decomposes uniquely into a
    bottom, a top and a poset on the other elements in increasing order,
    its middle. The bounded stream builds its posets here, one (bottom,
    top) block at a time, and shares each middle among all its blocks, so
    the middle's cached properties are computed once, on first use. block
    is (bottom, top, middle elements, carrier), where carrier[m] is the
    top plus the elements that the middle mask m selects by middle
    position. Each row is then one carrier lookup of the middle's row,
    computed on first use; every override equals the Poset property it
    replaces. No incomparability fact is overridden: _completion_rows
    stores them, as for every poset.
    """

    @classmethod
    def _block_posets(cls, n: int, b: int, t: int,
                      middles: Iterable[Poset]) -> Iterator["_BoundedPoset"]:
        """The posets of block (b, t), one per middle, in middle order: carrier rises with m."""
        middle = [e for e in range(n) if e not in (b, t)]
        carrier = [1 << t] * (1 << (n - 2))
        for m in range(1, len(carrier)):
            low = m & -m
            carrier[m] = carrier[m ^ low] | 1 << middle[low.bit_length() - 1]
        block = (b, t, middle, carrier)
        up = [0] * n
        up[b], up[t] = (1 << n) - 1, 1 << t
        for q in middles:
            for e, row in zip(middle, q._up):
                up[e] = carrier[row]
            p = cls.__new__(cls)
            p.n, p._up, p.labels, p._block, p._middle = n, tuple(up), None, block, q
            yield p

    @_cached
    def bottom(self) -> int:
        return self._block[0]

    @_cached
    def top(self) -> int:
        return self._block[1]

    @_cached
    def _down(self) -> tuple[int, ...]:
        b, t, middle, carrier = self._block
        out = [0] * self.n
        out[b], out[t] = 1 << b, (1 << self.n) - 1
        swap = carrier[0] | 1 << b  # drop the top, add the bottom
        for e, row in zip(middle, self._middle._down):
            out[e] = carrier[row] ^ swap
        return tuple(out)

    @_cached
    def _covers_above(self) -> tuple[int, ...]:
        # the top covers the middle's maximal elements and the bottom is
        # covered by its minimal ones, which no middle cover row holds; with
        # an empty middle the top covers the bottom
        b, _, middle, carrier = self._block
        out = [0] * self.n
        tb = carrier[0]
        covered = 0
        for e, row in zip(middle, self._middle._covers_above):
            out[e] = carrier[row] ^ tb if row else tb
            covered |= row
        minimal = (len(carrier) - 1) & ~covered
        out[b] = carrier[minimal] ^ tb if minimal else tb
        return tuple(out)


def mk_poset(k: int, labels: Sequence[str] | None = None) -> Poset:
    """Bounded poset of length two: bottom, a k-element antichain, top."""
    n = _check_size(k, "antichain size must be at least 1") + 2
    covers = [(0, i) for i in range(1, k + 1)] + [(i, n - 1) for i in range(1, k + 1)]
    if labels is None:
        labels = ("0", *(f"m{i}" for i in range(1, k + 1)), "1")
    return Poset.from_covers(n, covers, labels)
