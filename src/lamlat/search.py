"""Exhaustive enumeration of small posets and completions, plus the theorem harness.

Enumeration is labeled (not isomorphism-reduced) by default. A clean
harness run is exhaustive over the requested size range, so it is strong
evidence for the checked statement at desk scale, not a proof of the
general case; a counterexample refutes the statement. Each result's
scope says which.
"""

import time
from dataclasses import dataclass, replace
from heapq import heapify, heappop, heapreplace
from itertools import islice, permutations, repeat
from math import prod
from typing import Callable, Iterable, Iterator

from . import checkers
from .errors import ArgumentError, BudgetError, NotDirectedError, UnknownTheoremError
from .lattice import (
    LambdaLattice,
    acute,
    convex_closed_subsets,  # noqa: F401  (bench/tracing.py rebinds search.convex_closed_subsets)
    from_choice,  # noqa: F401  (bench/tracing.py rebinds search.from_choice)
    is_distributive,  # noqa: F401  (bench/tracing.py rebinds search.is_distributive)
    is_lattice,
    is_modular,
    is_monotone,
)
from .poset import Poset, _bits, _BoundedPoset, _check_size, _completion_rows
from .verdict import HOLDS, Verdict, failing

# the largest carrier a stream accepts, and the one bound on a run's work: at
# most 2 479 937 completions over the bounded labeled posets up to 7 elements
# (8 would stream 7 281 288 posets), 80 295 over the bounded classes up to 8
HARD_MAX_ELEMENTS = 7  # labeled streams
HARD_MAX_CANONICAL = 8  # canonical streams, bounded or not


@dataclass(frozen=True)
class EnumerationFilter:
    """Which posets an enumeration yields: every labeled poset, or with
    canonical_only one per isomorphism class, its canonical form
    (Poset._canonical).

    On finite carriers directedness and boundedness coincide, so
    require_bounded alone decides both. Both flags must be bools.
    """

    max_elements: int
    require_bounded: bool = False
    canonical_only: bool = False

    def __post_init__(self):
        _check_size(self.max_elements, "max_elements must be at least 1")
        for name in ("require_bounded", "canonical_only"):
            flag = getattr(self, name)
            if not isinstance(flag, bool):
                raise ArgumentError(f"{name} must be a bool, not {flag!r}")


# ----- labeled poset generation -----
#
# A labeled poset on 0..n-1 is its tuple of up-set rows, and the walk picks
# the rows whole, in index order, bits of later elements included. Row j
# holds j and lies inside cap, the AND of the earlier rows that hold j. Its
# part over 0..j-1 is an up-set of the order the earlier rows induce that
# misses below, the earlier elements whose rows hold j; each earlier
# element in it forces its own row's bits above j, and the other bits above
# j inside cap are free. Every such prefix extends to a poset, so the walk
# never dead-ends, and taking each row's candidates ascending by (high
# part, low part) makes the stream ascend. Nothing but the current path and
# the batch of its last two rows is held.


def _holders(rows: tuple[int, ...], bit: int, full: int) -> tuple[int, int]:
    """The rows holding bit, as a mask of their indices, and the AND of those rows."""
    below, cap = 0, full
    for i, row in enumerate(rows):
        if row & bit:
            below |= 1 << i
            cap &= row
    return below, cap


def _submasks(mask: int) -> Iterator[int]:
    """Every submask of mask, ascending."""
    sub = 0
    while True:
        yield sub
        if sub == mask:
            return
        sub = (sub - mask) & mask


def _row_walk(n: int, rows: tuple[int, ...], ups: list[int],
              common: int) -> Iterator[tuple[list[tuple[int, ...]], list[int | None]]]:
    """Every completion of at most n - 3 rows to a poset on n elements, ascending, in batches.

    ups holds the up-sets of the order rows induce on 0..len(rows)-1,
    ascending, and common is the AND of rows. The step for row n - 3
    hands each of its choices to _last_rows and yields the completions of
    each as one batch of row tuples, with the list of their tops.
    """
    j = len(rows)
    bit, full = 1 << j, (1 << n) - 1
    below, cap = _holders(rows, bit, full)
    high = cap & ~(2 * bit - 1)
    cands = []  # (low part, forced high part) per admissible up-set
    for s in ups:
        if not s & below and not s & ~cap:
            forced = 0
            for i in _bits(s):
                forced |= rows[i]
            cands.append((s, forced & high))
    # the up-sets of the order on 0..j, still ascending, depend on the low part alone
    keep = [t for t in ups if not t & below]
    kids = [(s, forced, keep + [t | bit for t in ups if not s & ~t]) for s, forced in cands]
    picks = ((sub | bit | s, nups) for sub in _submasks(high)
             for s, forced, nups in kids if not forced & ~sub)
    for row, nups in picks:
        if j + 3 < n:
            yield from _row_walk(n, rows + (row,), nups, common & row)
        else:
            yield _last_rows(n, rows + (row,), nups, common & row)


def _last_rows(n: int, rows: tuple[int, ...], ups: list[int],
               common: int) -> tuple[list[tuple[int, ...]], list[int | None]]:
    """Every completion of n - 2 rows, ascending, and the list of their tops.

    ups and common are as in _row_walk. The last row is the last element
    plus an up-set inside one mask, so both rows are picked at once. Row j
    = n - 2 may hold the last element only if cap does, and must if a
    member of its low part does. A top is the one bit of the AND of all
    rows, so no completion has one when common is 0.
    """
    j = len(rows)
    bit, last = 1 << j, 2 << j
    below = lbelow = 0
    cap = lcap = (1 << n) - 1
    for i, row in enumerate(rows):  # _holders for bit and for last in one pass
        if row & bit:
            below |= 1 << i
            cap &= row
        if row & last:
            lbelow |= 1 << i
            lcap &= row
    cands = [s for s in ups if not s & (below | ~cap)]
    forcing = lbelow if cap & last else 0
    batch = []
    out = ~(lcap & ~lbelow)  # what the last row misses when row j misses it
    lone = [(last | t,) for t in ups if not t & (below | out)]
    with_j = [] if bit & out else [last | bit | t for t in ups if not t & out]
    for s in cands:
        if not s & forcing:
            pre = rows + (bit | s,)
            batch += map(pre.__add__, lone)
            if with_j:
                batch += [pre + (r,) for r in with_j if not s & ~r]
    if cap & last:  # row j holds the last element, so the last row lies inside row j
        inside = [last | t for t in ups if not t & (below | ~(lcap & ~(lbelow | bit)))]
        for s in cands:
            pre, other = rows + (last | bit | s,), ~(s | last)
            batch += [pre + (r,) for r in inside if not r & other]
    if not common:
        return batch, [None] * len(batch)
    return batch, [a.bit_length() - 1 if (a := common & up[j] & up[-1]) else None for up in batch]


def _walk(n: int) -> Iterator[tuple[list[tuple[int, ...]], list[int | None]]]:
    """Every labeled poset on n elements as batches of up-set rows, ascending, with their tops.

    A poset's top is its greatest element, or None; the walk reads it off
    the AND of the rows it keeps along its path.
    """
    if n > 2:
        return _row_walk(n, (), [0], (1 << n) - 1)
    if n == 2:
        return iter((_last_rows(2, (), [0], 3),))
    return iter((([(1,) if n else ()], [0 if n else None]),))  # the one poset on n < 2 elements


def _labeled_posets(n: int) -> Iterator[Poset]:
    """Every labeled poset on n elements, ascending, each built once from _walk with its top."""
    new = Poset.__new__  # each poset is built as _from_masks does, with no call
    for batch, tops in _walk(n):
        for up, top in zip(batch, tops):
            p = new(Poset)
            p.n = n  # one store each: a four-name unpacking builds and unpacks a tuple
            p._up = up
            p.labels = None
            p.top = top
            yield p


def _canonical_masks() -> Iterator[list[tuple[int, ...]]]:
    """For n = 0, 1, 2, ... in turn, the canonical rows (Poset._canonical) on n elements, ascending.

    Removing a maximal element leaves a poset on n - 1 elements, so every
    class is the form of a class one size down with a new maximal element
    n - 1 above one of its down-sets d. Isomorphic children share one form,
    which the set keeps once. Each size is built once, from the one before.
    """
    forms, n = [()], 0
    while True:
        yield forms
        new, n, children = 1 << n, n + 1, set()
        for up in forms:
            for d in range(new):
                if not any(up[i] & d for i in _bits(~d & (new - 1))):  # no outsider below d
                    rows = [row | new if d >> i & 1 else row for i, row in enumerate(up)]
                    children.add(Poset._from_masks(n, (*rows, new))._canonical[0])
        forms = sorted(children)


def _merge_runs(streams: Iterable[Iterator]) -> Iterator:
    """Merge streams that each ascend by their items' _up rows into one ascending stream.

    A heap holds (rows, index, head, stream) per unfinished stream. The
    least stream keeps yielding while its rows stay below the least other
    head, and only then goes back on the heap, so the heap moves once per
    run of items, not once per item. Equal rows come out in stream order.
    """
    heap = []
    for i, stream in enumerate(streams):
        for head in stream:
            heap.append((head._up, i, head, stream))
            break
    heapify(heap)
    while len(heap) > 1:
        _, i, head, stream = heap[0]
        bound = heap[1][0] if len(heap) == 2 else min(heap[1][0], heap[2][0])
        yield head
        for item in stream:
            if item._up < bound:
                yield item
            else:
                heapreplace(heap, (item._up, i, item, stream))
                break
        else:
            heappop(heap)
    if heap:
        _, _, head, stream = heap[0]
        yield head
        yield from stream


def _bounded_posets(n: int, canonical_middles: list | None = None) -> Iterator[Poset]:
    """Every bounded labeled poset on n elements, ascending by order rows, built lazily.

    Above one element this merges the per-(bottom, top) block streams;
    the middle posets are built once per call and shared by every block.
    Given the canonical rows on n - 2 elements, it is the one canonical poset
    per isomorphism class: the bottom has the least sizes and the top the
    greatest, and the middle keeps its order with one added to both sizes, so
    the classes are the block (0, n - 1) over the canonical middles, built lazily.
    """
    if n == 1:
        return iter((Poset._from_masks(1, (1,)),))
    blocks = _BoundedPoset._block_posets
    if canonical_middles is not None:
        return blocks(n, 0, n - 1, map(Poset._from_masks, repeat(n - 2), canonical_middles))
    middles = list(_labeled_posets(n - 2))
    return _merge_runs([blocks(n, b, t, middles) for b, t in permutations(range(n), 2)])


def enumerate_posets(f: EnumerationFilter) -> Iterator[Poset]:
    """Every labeled poset passing the filter, or with canonical_only every class's form.

    Sizes ascend; within one size the order is sorted by relation
    encoding, so output is deterministic and the first hit of any scan
    is the least in encoding order among the posets streamed. A size
    above the stream's guard raises BudgetError before anything is built.
    Every labeled poset is built once from _walk's batches with its top
    already stored; bounded posets and canonical forms find theirs on
    first read.
    """
    guard = HARD_MAX_CANONICAL if f.canonical_only else HARD_MAX_ELEMENTS
    if f.max_elements > guard:
        kind = "canonical" if f.canonical_only else "labeled"
        raise BudgetError(
            f"{kind} enumeration is guarded at {guard} elements",
            required=f.max_elements,
        )
    # canonical rows, each size built once: the classes on n, or bounded ones' middles on n - 2
    forms = islice(_canonical_masks(), 0 if f.require_bounded else 1, None)
    for n in range(1, f.max_elements + 1):
        if f.require_bounded:
            yield from _bounded_posets(n, next(forms) if f.canonical_only and n > 1 else None)
        elif f.canonical_only:
            yield from map(Poset._from_masks, repeat(n), next(forms))
        else:
            yield from _labeled_posets(n)


def _bound_options(p: Poset, pairs) -> list[tuple[int, int, tuple[int, ...], tuple[int, ...]]]:
    """(x, y, common upper bounds, common lower bounds) per pair; the stream's and count's one check."""
    up, down = p._up, p._down
    options = []
    for x, y in pairs:
        ups, downs = _bits(up[x] & up[y]), _bits(down[x] & down[y])
        if not (ups and downs):
            raise NotDirectedError("completions need a directed poset")  # a bound is missing
        options.append((x, y, ups, downs))
    return options


def enumerate_completions(p: Poset) -> Iterator[LambdaLattice]:
    """Every completion of a directed poset, one per total choice, built lazily.

    The stream is the Cartesian product over incomparable pairs of all
    common upper bounds times all common lower bounds, in sorted pair
    and bound order; it is never cut short or sampled. A poset that is
    not directed raises NotDirectedError before any completion is built:
    on a finite carrier that is an incomparable pair with no common upper
    or no common lower bound, so an empty option tuple. The options are
    bits of the bound masks, so legal by construction, and each
    completion is built trusted.

    The product is walked as an odometer: its wheels are the option
    tuples with more than one option, the last turning fastest. The loop
    that reads each pair's options writes the first completion's cells.
    A step writes only the cells of the wheels that turned into the list
    rows of poset._completion_rows, the pass that also stores p's
    incomparability facts, and re-freezes only the rows holding them;
    every other row is the previous completion's tuple, and a table none
    of whose rows changed is the previous table. Rows without
    incomparable cells are the shared poset._base_row tuples.
    """
    jt, mt, pairs = _completion_rows(p)
    frozen = ([], [])  # each table's current row tuples, filled below
    wheels, last = [], [-1, -1]  # last: per table, the index of its last wheel
    for x, y, ups, downs in _bound_options(p, pairs):  # the join's wheel before the meet's
        jt[x][y] = jt[y][x] = ups[0]
        mt[x][y] = mt[y][x] = downs[0]
        if len(ups) > 1:
            last[0] = len(wheels)
            wheels.append((ups, len(ups) - 1, jt, frozen[0], x, y))
        if len(downs) > 1:
            last[1] = len(wheels)
            wheels.append((downs, len(downs) - 1, mt, frozen[1], x, y))
    frozen[0].extend(map(tuple, jt))
    frozen[1].extend(map(tuple, mt))
    tables = [tuple(frozen[0]), tuple(frozen[1])]
    new = LambdaLattice.__new__  # each completion is built as _from_tables does, with no call
    ll = new(LambdaLattice)
    ll.poset, ll.join_table, ll.meet_table = p, tables[0], tables[1]
    yield ll
    if not wheels:
        return
    at, final = [0] * len(wheels), len(wheels) - 1
    options, end, sr, sf, sx, sy = wheels[final]  # the fastest wheel turns in the inner loop
    spin, s = options[1:], last.index(final)  # its later options and its table
    while True:
        for v in spin:
            sr[sx][sy] = sr[sy][sx] = v
            sf[sx], sf[sy] = tuple(sr[sx]), tuple(sr[sy])
            tables[s] = tuple(sf)
            ll = new(LambdaLattice)
            ll.poset, ll.join_table, ll.meet_table = p, tables[0], tables[1]
            yield ll
        # the fastest wheel is at its last option: carry into the slower ones
        k, at[final] = final, end
        while k >= 0 and at[k] == wheels[k][1]:
            at[k] = 0
            k -= 1
        if k < 0:
            return
        at[k] += 1
        for i in range(k, final + 1):
            options, _, r, f, x, y = wheels[i]
            r[x][y] = r[y][x] = options[at[i]]
            f[x], f[y] = tuple(r[x]), tuple(r[y])
        if k <= last[0]:
            tables[0] = tuple(frozen[0])
        if k <= last[1]:
            tables[1] = tuple(frozen[1])
        ll = new(LambdaLattice)
        ll.poset, ll.join_table, ll.meet_table = p, tables[0], tables[1]
        yield ll


def completion_count(p: Poset) -> int:
    """Size of the completion stream without generating it; NotDirectedError as there."""
    return prod(len(u) * len(d) for _, _, u, d in _bound_options(p, p.incomparable_pairs))


# ----- theorem registry -----


@dataclass(frozen=True)
class Theorem:
    """A hypothesis/conclusion pair evaluated over enumerated instances."""

    theorem_id: str
    summary: str
    over: str  # "lattices" (completions of bounded posets), "bounded posets" or "posets"
    default_max_elements: int
    hypothesis: Callable
    conclusion: Callable  # instance -> Verdict
    refuted_at: int | None = None  # least carrier size with a counterexample; None: always clean


def _concl_lemma1(ll) -> Verdict:
    quad = checkers.lemma1_refutes(ll)
    if quad is None:
        return HOLDS
    return failing(quad, "all joins from the refuting quadruple agree")


_CHAIN_GAPS: dict[tuple[int, int], Verdict] = {}  # (element, lengths mask) -> its failing verdict


def _concl_equal_chain_lengths(p) -> Verdict:
    """Witness: the least element whose Poset.chain_lengths_to_top mask has more than one bit."""
    for a, lengths in enumerate(p.chain_lengths_to_top()):
        if lengths.bit_count() > 1:
            v = _CHAIN_GAPS.get((a, lengths))
            if v is None:  # the note is built once per (element, mask)
                v = _CHAIN_GAPS[a, lengths] = failing((a,), f"maximal chain lengths {list(_bits(lengths))}")
            return v
    return HOLDS


def _disagreement(**sides: bool) -> Verdict:
    """The failing verdict of sides that should agree, noting each as name=value."""
    return failing((), " ".join(f"{name.replace('_', '-')}={v}" for name, v in sides.items()))


def _concl_acute_equivalence(p) -> Verdict:
    char = checkers.acute_characterization(p)
    via_lcc = checkers.satisfies_lcc(acute(p)).holds
    atoms, coatoms = char._masks
    inc, reach = p._incomparable, 0  # stored by acute's pass
    for x in _bits(atoms):
        reach |= inc[x]
    via_atoms = not reach & ~coatoms  # each element incomparable to an atom is a coatom
    via_structure = char.clause is not checkers.AcuteClause.FAILS
    if via_lcc == via_atoms == via_structure:
        return HOLDS
    return _disagreement(lcc_of_acute=via_lcc, atom_condition=via_atoms, structural=via_structure)


def _concl_acute_finite(p) -> Verdict:
    via_lcc = checkers.satisfies_lcc(acute(p)).holds
    structural = checkers.acute_characterization(p).clause is not checkers.AcuteClause.FAILS
    return HOLDS if via_lcc == structural else _disagreement(lcc_of_acute=via_lcc, structural=structural)


def _concl_monotone_iff_lattice(ll) -> Verdict:
    mono, lat = is_monotone(ll), is_lattice(ll)
    return HOLDS if mono == lat else _disagreement(monotone=mono, lattice=lat)


def _concl_modular_implies_lattice(ll) -> Verdict:
    if is_lattice(ll) or not is_modular(ll):
        return HOLDS
    return failing((), "modular without being a lattice")


def _always(_) -> bool:
    return True


def _semimodular(ll) -> bool:
    return checkers.is_semimodular(ll).holds


THEOREMS: dict[str, Theorem] = {}


def _register(th: Theorem) -> None:
    THEOREMS[th.theorem_id] = th


_register(Theorem(
    "TH1", "semimodularity with cond3 implies the weak lower covering condition",
    over="lattices", default_max_elements=5,
    hypothesis=lambda ll: checkers.is_semimodular(ll).holds and checkers.cond3(ll).holds,
    conclusion=checkers.satisfies_wlcc,
))
_register(Theorem(
    "TH2", "semimodularity with cond4, cond5 and dcc implies the lower covering condition",
    over="lattices", default_max_elements=5,
    hypothesis=lambda ll: (
        checkers.is_semimodular(ll).holds
        and checkers.cond4(ll).holds
        and checkers.cond5(ll).holds
        and checkers.dcc(ll).holds
    ),
    conclusion=checkers.satisfies_lcc,
))
_register(Theorem(
    "LEM1", "a semimodular instance admits no join-collapsing quadruple",
    over="lattices", default_max_elements=5,
    hypothesis=_semimodular,
    conclusion=_concl_lemma1,
))
_register(Theorem(
    "LEM2", "convex closed subsets of a semimodular instance stay semimodular",
    over="lattices", default_max_elements=5,
    hypothesis=_semimodular,
    # equivalent: a convex closed S holding x || y holds their semimodularity frame; the carrier is an S
    conclusion=checkers.is_semimodular,
))
_register(Theorem(
    "HEIGHT", "under the lower covering condition the height inequality holds",
    over="lattices", default_max_elements=5, refuted_at=7,
    hypothesis=lambda ll: checkers.satisfies_lcc(ll).holds,
    conclusion=checkers.height_inequality,
))
_register(Theorem(
    "CHAINS", "with a top and the LU-covering property all maximal chains up agree in length",
    over="posets", default_max_elements=6,
    hypothesis=lambda p: p.top is not None and p.has_lu_covering().holds,
    conclusion=_concl_equal_chain_lengths,
))
_register(Theorem(
    "ACUTE", "the three characterizations of lower-covering acute completions agree",
    over="bounded posets", default_max_elements=6,
    hypothesis=_always,
    conclusion=_concl_acute_equivalence,
))
_register(Theorem(
    "COR1", "acute completions satisfy the lower covering condition iff the structure is trivial, pointed or Mk",
    over="bounded posets", default_max_elements=6,
    hypothesis=_always,
    conclusion=_concl_acute_finite,
))
_register(Theorem(
    "MONO", "both operations are monotone exactly on lattices",
    over="lattices", default_max_elements=5,
    hypothesis=_always,
    conclusion=_concl_monotone_iff_lattice,
))
_register(Theorem(
    "MODLAT", "modularity or distributivity forces a lattice",
    over="lattices", default_max_elements=5,
    hypothesis=_always,
    # distributive implies modular: with x <= z, x v (y ^ z) = (x v y) ^ (x v z) = (x v y) ^ z
    conclusion=_concl_modular_implies_lattice,
))

# each mutant is its parent with one named change, a dropped hypothesis or a stronger conclusion
_register(replace(THEOREMS["TH1"], theorem_id="TH1_NO_COND3",
                  summary="semimodularity alone implies the weak lower covering condition",
                  default_max_elements=6, refuted_at=6, hypothesis=_semimodular))
_register(replace(THEOREMS["TH1"], theorem_id="TH1_LCC_CONCLUSION",
                  summary="semimodularity with cond3 implies the lower covering condition",
                  refuted_at=5, conclusion=checkers.satisfies_lcc))
_register(replace(THEOREMS["TH2"], theorem_id="TH2_NO_COND4",
                  summary="semimodularity with cond5 implies the lower covering condition",
                  default_max_elements=6, refuted_at=6,
                  hypothesis=lambda ll: checkers.is_semimodular(ll).holds and checkers.cond5(ll).holds))
_register(replace(THEOREMS["TH2"], theorem_id="TH2_NO_COND5",
                  summary="semimodularity with cond4 implies the lower covering condition",
                  default_max_elements=6, refuted_at=5,
                  hypothesis=lambda ll: checkers.is_semimodular(ll).holds and checkers.cond4(ll).holds))
_register(replace(THEOREMS["CHAINS"], theorem_id="CHAINS_NO_LU",
                  summary="a top alone forces equal maximal chain lengths",
                  default_max_elements=5, refuted_at=5, hypothesis=lambda p: p.top is not None))


def _lookup(theorem_id: str) -> Theorem:
    th = THEOREMS.get(theorem_id.upper()) if isinstance(theorem_id, str) else None
    if th is None:
        known = ", ".join(sorted(THEOREMS))
        raise UnknownTheoremError(f"unknown theorem id {theorem_id!r}; known ids: {known}")
    return th


# ----- verification -----


@dataclass(frozen=True, slots=True)
class Counterexample:
    """An instance on which a theorem's hypotheses hold but its conclusion fails."""

    theorem_id: str
    poset: Poset
    lattice: LambdaLattice | None
    witness: tuple[int, ...]
    note: str

    def instance(self):
        return self.lattice if self.lattice is not None else self.poset

    def validate(self) -> bool:
        """Re-check hypothesis and failed conclusion through the checkers."""
        return violates(self.theorem_id, self.instance()) is not None

    def encoding(self) -> tuple:
        inst = self.instance()
        return inst.encoding() if self.lattice is not None else (inst.encoding(),)

    def to_dict(self) -> dict:
        d = {
            "theorem": self.theorem_id,
            "n": self.poset.n,
            "labels": [self.poset.label(i) for i in range(self.poset.n)],
            "covers": [list(c) for c in self.poset.covers],
            "witness": list(self.witness),
            "note": self.note,
        }
        if self.lattice is not None:
            spec = self.lattice.choice_spec()
            d["joins"] = {f"{x} {y}": v for (x, y), v in sorted(spec.joins.items())}
            d["meets"] = {f"{x} {y}": v for (x, y), v in sorted(spec.meets.items())}
        return d


@dataclass(frozen=True)
class VerificationResult:
    """Outcome of one exhaustive theorem run."""

    theorem_id: str
    max_elements: int
    posets_checked: int
    lattices_checked: int
    posets_skipped: int  # always 0: the size guards bound a run, and no poset is skipped
    counterexample: Counterexample | None
    elapsed: float
    scope: str
    expected_clean: bool
    all_counterexamples: tuple[Counterexample, ...] = ()

    @property
    def clean(self) -> bool:
        return self.counterexample is None

    @property
    def expectation_met(self) -> bool:
        return self.clean == self.expected_clean

    def to_dict(self) -> dict:
        return {
            "theorem": self.theorem_id,
            "max_elements": self.max_elements,
            "posets_checked": self.posets_checked,
            "lattices_checked": self.lattices_checked,
            "posets_skipped": self.posets_skipped,
            "counterexample": self.counterexample.to_dict() if self.counterexample else None,
            "counterexamples_found": len(self.all_counterexamples),
            "elapsed_seconds": round(self.elapsed, 6),
            "scope": self.scope,
            "expected_clean": self.expected_clean,
            "expectation_met": self.expectation_met,
        }


def _judge(th: Theorem, poset: Poset | None, instances: Iterable,
           collect_all: bool) -> tuple[int, list[Counterexample]]:
    """th judged on each instance in turn: how many were judged, and the counterexamples.

    With poset None every instance is a poset judged by itself, else a
    completion of poset. A counterexample is an instance whose hypothesis
    holds and whose conclusion fails; the first ends the loop unless
    collect_all is set.
    """
    hypothesis, conclusion, tid = th.hypothesis, th.conclusion, th.theorem_id
    judged, found = 0, []
    for judged, instance in enumerate(instances, 1):
        if hypothesis(instance):
            v = conclusion(instance)
            if not v.holds:
                found.append(Counterexample(tid, instance, None, v.witness, v.note) if poset is None
                             else Counterexample(tid, poset, instance, v.witness, v.note))
                if not collect_all:
                    break
    return judged, found


def _poset_filter(over: str, flt: EnumerationFilter) -> EnumerationFilter:
    """flt, required to yield bounded posets unless the instances of kind over are all posets."""
    return replace(flt, require_bounded=flt.require_bounded or over != "posets")


def violates(theorem_id: str, instance) -> Counterexample | None:
    """Evaluate a single instance; a result means hypotheses hold and the conclusion fails.

    A theorem over posets reads a lambda-lattice as its poset; an
    instance outside what the theorem ranges over raises TypeError.
    """
    th = _lookup(theorem_id)
    lattice = instance if isinstance(instance, LambdaLattice) else None
    poset = instance if lattice is None else instance.poset
    if th.over == "lattices" and lattice is None or th.over == "bounded posets" and poset.bounds() is None:
        raise TypeError(f"{th.theorem_id} quantifies over {th.over}")
    _, found = (_judge(th, poset, (lattice,), False) if th.over == "lattices"
                else _judge(th, None, (poset,), False))
    return found[0] if found else None


def verify(
    theorem_id: str,
    flt: EnumerationFilter | None = None,
    *,
    collect_all: bool = False,
) -> VerificationResult:
    """Replay one theorem over every enumerated instance in range.

    Stops at the first counterexample in stream order unless the bool
    collect_all is set. Every streamed poset is checked, and the stream
    guards bound the run. Completions stream lazily, so a first-hit run
    stops building at the counterexample. The scope names what was
    searched and what the outcome shows: a clean run is evidence, not a
    proof, and a counterexample refutes the statement.
    """
    th = _lookup(theorem_id)
    if not isinstance(collect_all, bool):
        raise ArgumentError(f"collect_all must be a bool, not {collect_all!r}")
    if flt is None:
        flt = EnumerationFilter(max_elements=th.default_max_elements)
    eff = _poset_filter(th.over, flt)
    on_lattices = th.over == "lattices"

    start = time.perf_counter()
    posets_checked = lattices_checked = 0
    found: list[Counterexample] = []

    if on_lattices:  # the instances of p are its completions
        for p in enumerate_posets(eff):
            posets_checked += 1
            judged, hits = _judge(th, p, enumerate_completions(p), collect_all)
            lattices_checked += judged
            if hits:
                found += hits
                if not collect_all:
                    break
    else:  # every poset is an instance
        posets_checked, found = _judge(th, None, enumerate_posets(eff), collect_all)

    elapsed = time.perf_counter() - start
    kind = "bounded posets" if eff.require_bounded else "posets"
    which = "one representative per isomorphism class of" if eff.canonical_only else "all labeled"
    tail = " and all their completions" if on_lattices else ""
    scope = f"{which} {kind} with at most {eff.max_elements} elements{tail}"
    if not found:
        scope = f"exhaustive over {scope}; evidence for the general statement, not a proof"
    elif collect_all:
        scope = f"exhaustive over {scope}; its counterexamples refute the statement"
    else:
        upto = ("up to the first counterexample among the representatives in their order"
                if eff.canonical_only else "in encoding order up to the least counterexample")
        scope = f"searched {scope} {upto}, which refutes the statement"
    return VerificationResult(
        theorem_id=th.theorem_id,
        max_elements=eff.max_elements,
        posets_checked=posets_checked,
        lattices_checked=lattices_checked,
        posets_skipped=0,
        counterexample=found[0] if found else None,
        elapsed=elapsed,
        scope=scope,
        expected_clean=th.refuted_at is None or eff.max_elements < th.refuted_at,
        all_counterexamples=tuple(found),
    )


def independence_table(
    flt: EnumerationFilter | None = None,
    instances=None,
) -> frozenset[tuple[bool, bool, bool]]:
    """Realized (semimodular, wlcc, lcc) truth triples.

    Classifies either the given instances or every completion of every
    directed poset passing the filter; the stream guards bound the run,
    so there is nothing to skip.
    """
    if instances is None:
        if flt is None:
            raise ArgumentError("need a filter or explicit instances")
        eff = _poset_filter("lattices", flt)
        instances = (ll for p in enumerate_posets(eff) for ll in enumerate_completions(p))
    triples = set()
    for ll in instances:
        triples.add((
            checkers.is_semimodular(ll).holds,
            checkers.satisfies_wlcc(ll).holds,
            checkers.satisfies_lcc(ll).holds,
        ))
    return frozenset(triples)
