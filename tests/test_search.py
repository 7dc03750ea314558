import hashlib
import tracemalloc
from collections import Counter
from itertools import chain, islice, product
from math import factorial
from pathlib import Path
from types import SimpleNamespace

import pytest

from lamlat import (
    ArgumentError,
    BudgetError,
    ChoiceSpec,
    EnumerationFilter,
    LambdaLattice,
    LamlatError,
    NotDirectedError,
    Poset,
    UnknownTheoremError,
    Verdict,
    acute,
    check_axioms,
    completion_count,
    enumerate_completions,
    enumerate_posets,
    from_choice,
    independence_table,
    mk_poset,
    render_instance,
    verify,
    violates,
)
from lamlat import checkers, lattice, poset, search
from lamlat.cli import main
from lamlat.fixtures import fixture, fixture_poset
from lamlat.poset import _BoundedPoset, _validate_order
from lamlat.search import THEOREMS, _bounded_posets, _canonical_masks, _merge_runs

from conftest import labeled_rows
from oracles import (
    all_labeled_posets_naive,
    convex_closed_subsets_naive,
    has_bottom,
    has_top,
    is_directed_naive,
    relation_from_covers,
)


def count_posets(**kw):
    return sum(1 for _ in enumerate_posets(EnumerationFilter(**kw)))


# ----- enumeration -----

def test_counts_match_naive_oracle():
    running = 0
    for n in range(1, 5):
        expected = len(all_labeled_posets_naive(n))
        running += expected
        assert count_posets(max_elements=n) == running


def test_count_n5():
    assert count_posets(max_elements=5) == 1 + 3 + 19 + 219 + 4231


def test_bounded_filter_matches_naive_oracle():
    for n in range(1, 5):
        rels = all_labeled_posets_naive(n)
        expected = sum(1 for r in rels if has_bottom(n, r) and has_top(n, r))
        got = sum(
            1 for p in enumerate_posets(EnumerationFilter(max_elements=n, require_bounded=True))
            if p.n == n
        )
        assert got == expected


def test_labeled_streams_at_six_are_valid_sorted_and_decompose():
    rows = tuple(labeled_rows(6))
    assert len(rows) == 130023  # A001035
    assert all(a < b for a, b in zip(rows, rows[1:]))  # strictly ascending, hence distinct
    for up in rows:
        _validate_order(6, up)
    # a bounded poset is a labeled poset with a row holding every element
    # (the bottom) and an element lying in every row (the top)
    for n, count in ((5, 380), (6, 6570)):
        full = (1 << n) - 1
        expected = tuple(
            up for up in labeled_rows(n)
            if full in up and any(all(row >> t & 1 for row in up) for t in range(n))
        )
        assert len(expected) == count
        assert tuple(p._up for p in _bounded_posets(n)) == expected


# sha256 over bytes((n, *rows)) of every labeled poset with at most 6
# elements, in stream order; taken from the sorted stream the walk replaced
LABELED_UPTO6_SHA256 = "9879166e88fd7dbfbc7d8bde40dced5b797de90fce79733821454423755c4fb6"


def test_labeled_stream_up_to_six_is_pinned():
    digest, count = hashlib.sha256(), 0
    for n in range(1, 7):
        for up in labeled_rows(n):
            digest.update(bytes((n, *up)))
            count += 1
    assert count == 134496
    assert digest.hexdigest() == LABELED_UPTO6_SHA256


def test_labeled_stream_stores_each_top_from_the_walk():
    # every labeled poset comes with its top already stored, the one the
    # AND of its rows gives; the bounded and canonical streams build their
    # posets as before and leave the top to its first read
    n, rows = 0, []
    for p in enumerate_posets(EnumerationFilter(max_elements=6)):
        if p.n != n:
            assert rows == [] or rows == list(labeled_rows(n))
            n, rows = p.n, []
        assert "top" in vars(p)
        assert p.top == Poset._from_masks(p.n, p._up).top, p
        rows.append(p._up)
    assert n == 6 and rows == list(labeled_rows(6))
    for p in enumerate_posets(EnumerationFilter(max_elements=5, require_bounded=True)):
        assert type(p) is _BoundedPoset or p.n == 1
        assert "top" not in vars(p)
    forms = _canonical_masks()
    next(forms)
    for n in range(1, 6):
        canonical = EnumerationFilter(max_elements=n, canonical_only=True)
        posets = [p for p in enumerate_posets(canonical) if p.n == n]
        assert [p._up for p in posets] == next(forms)
        assert all(vars(p).keys() == {"n", "_up", "labels"} for p in posets)


def test_labeled_walk_matches_sorted_naive_oracle_up_to_4():
    assert tuple(labeled_rows(0)) == ((),)
    for n in range(1, 5):
        expected = sorted(
            tuple(sum(1 << j for j in range(n) if (i, j) in rel) for i in range(n))
            for rel in all_labeled_posets_naive(n)
        )
        assert list(labeled_rows(n)) == expected


def test_labeled_walk_at_seven_streams_without_holding_rows():
    # the walk holds only its current path, so the first rows of the
    # 6 129 859 at n = 7 come without building the rest
    tracemalloc.start()
    try:
        last = ()
        for up in islice(labeled_rows(7), 50_000):
            assert up > last
            _validate_order(7, up)
            last = up
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


@pytest.mark.parametrize("keys", [
    [],
    [[], [], []],
    [[1, 4, 9]],
    [[], [2, 3], []],
    [[1, 3, 5, 7], [2, 4, 6, 8]],  # runs of length 1
    [[5, 6], [1, 2, 3, 7, 8, 9, 10, 11], [4]],  # the second stream outlasts the others
    [[2, 5], [1, 2, 2], [0, 2, 9]],  # equal rows come out in stream order
])
def test_merge_runs_matches_sorted_concatenation(keys):
    # stand-ins for posets: _merge_runs orders items by their _up rows
    items = [[SimpleNamespace(_up=k, tag=(s, i)) for i, k in enumerate(ks)]
             for s, ks in enumerate(keys)]
    expected = sorted((item for stream in items for item in stream), key=lambda item: item._up)
    assert [item.tag for item in _merge_runs(map(iter, items))] == [item.tag for item in expected]


# sha256 over bytes((n, *rows)) of every bounded poset with at most 7
# elements, in stream order; taken from the stream before it was merged
BOUNDED_UPTO7_SHA256 = "87418ad8392a6211ae23999fed2cc66aba038da9f6617786a53dc5646c7c79b8"


def test_bounded_stream_up_to_seven_is_sorted_bounded_and_pinned(bounded_upto6):
    # every size streams posets that answer from their middle, strictly
    # ascending, in the order pinned before the block streams were merged
    stream = enumerate_posets(EnumerationFilter(max_elements=7, require_bounded=True))
    digest = hashlib.sha256()
    for p in bounded_upto6:
        assert next(stream) == p
        digest.update(bytes((p.n, *p._up)))
    count, last = 0, ()
    for p in stream:
        assert p.n == 7 and type(p) is _BoundedPoset
        assert p._up > last
        digest.update(bytes((p.n, *p._up)))
        count, last = count + 1, p._up
    assert count == 42 * 4231 == 177702  # n(n-1) A001035(n-2)
    assert digest.hexdigest() == BOUNDED_UPTO7_SHA256


def test_bounded_stream_builds_lazily(monkeypatch):
    # the first poset of a size is taken after at most one poset per
    # (bottom, top) block has been built; a block builds each poset just
    # before it yields it
    built = []
    block_posets = _BoundedPoset._block_posets

    def counting(n, b, t, middles):
        for p in block_posets(n, b, t, middles):
            built.append((b, t))
            yield p

    monkeypatch.setattr(_BoundedPoset, "_block_posets", counting)
    stream = _bounded_posets(7)
    assert built == []
    first = next(stream)
    assert first.bounds() in built
    assert len(built) == len(set(built)) <= 42


def test_bounded_n2_is_two_labeled_chains():
    # labeled enumeration: 0<1 and 1<0 both count
    ps = [p for p in enumerate_posets(EnumerationFilter(max_elements=2, require_bounded=True)) if p.n == 2]
    assert len(ps) == 2
    canon = [
        p for p in enumerate_posets(EnumerationFilter(max_elements=2, require_bounded=True, canonical_only=True))
        if p.n == 2
    ]
    assert len(canon) == 1


def test_canonical_bounded_stream_is_one_block_of_canonical_middles():
    # one poset per class of bounded posets, A000112 at n - 2, all from the block (0, n - 1)
    middles = list(islice(_canonical_masks(), 6))
    for n, classes in zip(range(1, 8), (1, 1, 1, 2, 5, 16, 63)):
        stream = list(_bounded_posets(n, middles[n - 2] if n > 1 else None))
        assert len(stream) == classes
        assert all(p.bounds() == (0, n - 1) and p._canonical[0] == p._up for p in stream)
        assert all(a._up < b._up for a, b in zip(stream, stream[1:]))
        assert not any(a.is_isomorphic(b) for i, a in enumerate(stream) for b in stream[i + 1:])
        if n <= 6:
            full = (p for p in _bounded_posets(n) if p._canonical[0] == p._up)
            assert [p._up for p in stream] == [p._up for p in full]


def test_canonical_masks_are_one_form_per_class():
    # A000112 classes; by orbit-stabilizer the labelings of a class number
    # n!/|Aut(P)|, so the classes' labelings sum to A001035, and a bounded
    # labeling is a choice of bottom and top around a labeled middle; so
    # n!/|Aut(P)| times P's completions, summed over the bounded classes up
    # to 6, is the 19 955 labeled completions
    labeled = (1, 1, 3, 19, 219, 4231, 130023, 6129859)
    sizes, completions = [], 1  # the one-element poset has one completion
    for n, (classes, forms) in enumerate(zip((1, 1, 2, 5, 16, 63, 318, 2045), _canonical_masks())):
        sizes.append(forms)
        assert len(forms) == classes
        assert all(a < b for a, b in zip(forms, forms[1:]))
        posets = [Poset._from_masks(n, r) for r in forms]
        assert all(p._canonical[0] == p._up for p in posets)
        assert sum(factorial(n) // len(p._canonical[1]) for p in posets) == labeled[n]
        if n >= 2:
            bounded = [(factorial(n) // len(p._canonical[1]), p)
                       for p in _bounded_posets(n, sizes[n - 2])]
            assert sum(k for k, _ in bounded) == n * (n - 1) * labeled[n - 2]
            if n <= 6:
                completions += sum(k * completion_count(p) for k, p in bounded)
        if n <= 5:
            assert forms == [r for r in labeled_rows(n) if Poset._from_masks(n, r)._canonical[0] == r]
    assert completions == 19955


@pytest.mark.parametrize("theorem_id", ["ACUTE", "COR1", "TH1", "TH1_LCC_CONCLUSION"])
def test_labeled_counts_are_the_class_counts_times_their_labelings(theorem_id):
    # each count is invariant under relabeling and a class P has n!/|Aut(P)|
    # labelings, with Aut(P) the permutations onto P's own form: so per size
    # the labeled posets, completions and collect_all counterexamples are the
    # sums over the bounded classes of n!/|Aut(P)| times P's own counts
    th = THEOREMS[theorem_id]
    labeled, before = {}, (0, 0, 0)
    for n in range(1, 7):
        r = verify(theorem_id, EnumerationFilter(max_elements=n), collect_all=True)
        now = (r.posets_checked, r.lattices_checked, len(r.all_counterexamples))
        labeled[n] = tuple(a - b for a, b in zip(now, before))
        before = now
    classes = {n: (0, 0, 0) for n in range(1, 7)}
    flt = EnumerationFilter(max_elements=6, require_bounded=True, canonical_only=True)
    for p in enumerate_posets(flt):
        if th.over == "lattices":
            judged, found = search._judge(th, p, enumerate_completions(p), True)
        else:
            judged, found = 0, search._judge(th, None, (p,), True)[1]
        k = factorial(p.n) // len(p._canonical[1])
        classes[p.n] = tuple(c + k * o for c, o in zip(classes[p.n], (1, judged, len(found))))
    assert labeled == classes
    assert sum(c for c, _, _ in labeled.values()) == 6995
    completions, found = (sum(counts[i] for counts in labeled.values()) for i in (1, 2))
    assert (completions, found) == {"ACUTE": (0, 0), "COR1": (0, 0), "TH1": (19955, 0),
                                    "TH1_LCC_CONCLUSION": (19955, 2520)}[theorem_id]


def test_a_canonical_run_builds_each_size_once(monkeypatch):
    # every size the run reaches is built once, from the size before
    built = Counter()

    def counted():
        for forms in _canonical_masks():
            built[len(forms[0])] += 1
            yield forms

    monkeypatch.setattr(search, "_canonical_masks", counted)
    for max_n, bounded, classes, sizes in ((6, False, 1 + 2 + 5 + 16 + 63 + 318, 7),
                                           (7, True, 1 + 1 + 1 + 2 + 5 + 16 + 63, 6)):
        built.clear()
        f = EnumerationFilter(max_elements=max_n, require_bounded=bounded, canonical_only=True)
        assert sum(1 for _ in enumerate_posets(f)) == classes
        assert built == dict.fromkeys(range(sizes), 1)


def test_directed_equals_bounded_on_finite():
    for n in range(1, 5):
        rels = all_labeled_posets_naive(n)
        assert all(
            (has_bottom(n, r) and has_top(n, r)) == is_directed_naive(n, r) for r in rels
        )
    assert count_posets(max_elements=4, require_bounded=True) == 1 + 2 + 6 + 36


def test_every_enumerated_poset_is_directed_under_filter():
    for p in enumerate_posets(EnumerationFilter(max_elements=4, require_bounded=True)):
        assert p.is_directed()
        assert p.bounds() is not None


def test_enumeration_deterministic_and_sorted():
    first = [p.encoding() for p in enumerate_posets(EnumerationFilter(max_elements=4))]
    second = [p.encoding() for p in enumerate_posets(EnumerationFilter(max_elements=4))]
    assert first == second
    by_size: dict[int, list] = {}
    for p in enumerate_posets(EnumerationFilter(max_elements=4)):
        by_size.setdefault(p.n, []).append(p.encoding())
    for encs in by_size.values():
        assert encs == sorted(encs)


def test_canonical_filter_counts_isomorphism_classes():
    # distinct unlabeled posets on 1..4 elements: 1, 2, 5, 16
    counts = {}
    for p in enumerate_posets(EnumerationFilter(max_elements=4, canonical_only=True)):
        counts[p.n] = counts.get(p.n, 0) + 1
    assert counts == {1: 1, 2: 2, 3: 5, 4: 16}


def test_hard_guard():
    # labeled streams stop at 7 elements and canonical ones, bounded or not, at
    # 8; no bounded class up to 8 has more than 4 096 completions, and every
    # labeling of a class has as many, so neither has a labeled poset up to 7
    with pytest.raises(BudgetError):
        list(enumerate_posets(EnumerationFilter(max_elements=8)))
    for bounded in (False, True):
        with pytest.raises(BudgetError):
            list(enumerate_posets(
                EnumerationFilter(max_elements=9, require_bounded=bounded, canonical_only=True)))
    f = EnumerationFilter(max_elements=8, require_bounded=True, canonical_only=True)
    posets = list(enumerate_posets(f))
    classes = Counter(p.n for p in posets)
    assert [classes[n] for n in range(1, 9)] == [1, 1, 1, 2, 5, 16, 63, 318]
    assert max(map(completion_count, posets)) == 4096
    with pytest.raises(ValueError):
        EnumerationFilter(max_elements=0)


# ----- completions -----

def test_chain_single_completion():
    chain = Poset.from_covers(4, [(0, 1), (1, 2), (2, 3)])
    assert len(list(enumerate_completions(chain))) == 1


def test_fig3_nine_completions():
    p = fixture_poset("FIG3")
    # |U(a,b)| * |L(a,b)| * |U(c,d)| * |L(c,d)| = 3 * 1 * 1 * 3
    assert completion_count(p) == 9
    lls = list(enumerate_completions(p))
    assert len(lls) == 9
    assert len(set(lls)) == 9
    assert fixture("FIG3") in lls


def test_fig6_completions_include_family():
    p = fixture_poset("FIG6")
    lls = list(enumerate_completions(p))
    assert len(lls) == 36
    family = [ll for ll in lls if ll.join_table[1][3] == 4]
    assert len(family) == 12
    assert fixture("FIG6") in family


def _product_of_choices(p):
    """Completions built one by one through from_choice, in product order."""
    pairs = p.incomparable_pairs
    options = [
        [(u, l) for u in sorted(p.upper_bounds(x, y)) for l in sorted(p.lower_bounds(x, y))]
        for x, y in pairs
    ]
    for combo in product(*options):
        joins = {pair: u for pair, (u, _) in zip(pairs, combo)}
        meets = {pair: l for pair, (_, l) in zip(pairs, combo)}
        yield from_choice(p, ChoiceSpec(joins, meets))


def test_trusted_stream_matches_validated_construction():
    total = 0
    for p in enumerate_posets(EnumerationFilter(max_elements=5, require_bounded=True)):
        stream = list(enumerate_completions(p))
        assert stream == list(_product_of_choices(p))
        for ll in stream:
            assert ll == from_choice(p, ll.choice_spec())
            assert ll == LambdaLattice(p, ll.join_table, ll.meet_table)
        total += len(stream)
    assert total == 545


def test_stream_ascends_by_encoding_at_six():
    total, last = 0, None
    for p in enumerate_posets(EnumerationFilter(max_elements=6, require_bounded=True)):
        for ll in enumerate_completions(p):
            key = ll.encoding()
            assert last is None or last < key
            last = key
            total += 1
    assert total == 19955


# sha256 over bytes((n, *join rows, *meet rows)) of every completion of the
# bounded posets with at most 6 elements, in stream order; taken from the
# stream before its completions shared the rows they do not change
COMPLETIONS_UPTO6_SHA256 = "b6603910a2c502c9134a66c965caafa1e1b555aa1ebfbbcd48feb5f6633a770f"


def test_completion_stream_up_to_six_is_pinned():
    digest, total = hashlib.sha256(), 0
    for p in enumerate_posets(EnumerationFilter(max_elements=6, require_bounded=True)):
        for ll in enumerate_completions(p):
            digest.update(bytes((p.n, *chain.from_iterable(ll.join_table + ll.meet_table))))
            total += 1
    assert total == 19955
    assert digest.hexdigest() == COMPLETIONS_UPTO6_SHA256


@pytest.mark.parametrize("name", ["FIG3", "FIG6"])
def test_completions_share_the_rows_they_do_not_change(name):
    # a row without incomparable cells is one tuple for every completion and
    # for acute; a later completion's row, or whole table, is the previous
    # completion's object exactly when none of its cells changed
    p = fixture_poset(name)
    stream = list(enumerate_completions(p))
    first = stream[0]
    for ll in (*stream[1:], acute(p)):
        for table, shared in ((ll.join_table, first.join_table), (ll.meet_table, first.meet_table)):
            assert type(table) is tuple and all(type(row) is tuple for row in table)
            assert all(table[x] is shared[x] for x, inc in enumerate(p._incomparable) if not inc)
    kept = Counter()
    for prev, ll in zip(stream, stream[1:]):
        for table, before in ((ll.join_table, prev.join_table), (ll.meet_table, prev.meet_table)):
            same = [row is old for row, old in zip(table, before)]
            assert same == [row == old for row, old in zip(table, before)]
            assert (table is before) == all(same)
            kept[table is before] += 1
    assert kept[True] and kept[False]  # each kind of step occurs


def test_completion_stream_matches_from_choice_over_the_classes_up_to_7():
    # the odometer against from_choice over itertools.product of the options,
    # table by table and in order, with up to 10 pairs (20 digits) per poset;
    # a class's last pairs tend to have one join and several meets, and its
    # dual (same labels, order reversed) the other way round
    f = EnumerationFilter(max_elements=7, require_bounded=True, canonical_only=True)
    total = most_pairs = 0
    for q in enumerate_posets(f):
        for p in (q, Poset._from_masks(q.n, q._down)):
            stream = [(ll.join_table, ll.meet_table) for ll in enumerate_completions(p)]
            assert stream == [(ll.join_table, ll.meet_table) for ll in _product_of_choices(p)], p
            total += len(stream)
            most_pairs = max(most_pairs, len(p.incomparable_pairs))
    assert (total, most_pairs) == (2 * 1266, 10)


def test_completions_need_directed():
    with pytest.raises(NotDirectedError):
        list(enumerate_completions(Poset([[1, 0], [0, 1]])))


@pytest.mark.parametrize(
    "build", [lambda p: next(enumerate_completions(p)), completion_count], ids=["stream", "count"]
)
@pytest.mark.parametrize("side", ["join", "meet"])
def test_not_directed_is_reported_before_any_completion_is_built(side, build):
    # 0 < 1, 2 < 3, 4 (or its dual): the pair (1, 2) has two joins (meets),
    # but the later pair (3, 4) has no upper (lower) bound at all, so neither
    # the first completion nor a product of 2 * 0 completions comes back
    covers = [(0, 1), (0, 2), (1, 3), (1, 4), (2, 3), (2, 4)]
    p = Poset.from_covers(5, covers if side == "join" else [(b, a) for a, b in covers])
    assert p.incomparable_pairs == ((1, 2), (3, 4))
    with pytest.raises(NotDirectedError):
        build(p)


def test_completion_count_raises_where_the_stream_does_on_all_posets_up_to_4():
    # both raise from the one check in _bound_options
    posets = directed = 0
    for p in enumerate_posets(EnumerationFilter(max_elements=4)):
        posets += 1
        if not is_directed_naive(p.n, relation_from_covers(p.n, p.covers)):
            with pytest.raises(NotDirectedError):
                completion_count(p)
            with pytest.raises(NotDirectedError):
                list(enumerate_completions(p))
            continue
        directed += 1
        assert completion_count(p) == len(list(enumerate_completions(p))), p
    assert posets == 1 + 3 + 19 + 219
    assert 0 < directed < posets


def test_all_small_completions_pass_axioms(small_completions):
    for ll in small_completions:
        assert check_axioms(ll.join_table, ll.meet_table).all_pass


# ----- verification -----

def test_verify_th1_small_clean():
    r = verify("TH1", EnumerationFilter(max_elements=4))
    assert r.counterexample is None
    assert r.posets_checked == 1 + 2 + 6 + 36
    assert r.lattices_checked >= r.posets_checked
    assert "not a proof" in r.scope


def test_verify_scope_names_what_was_enumerated():
    labeled = verify("TH1", EnumerationFilter(max_elements=5))
    canonical = verify("TH1", EnumerationFilter(max_elements=5, canonical_only=True))
    assert (labeled.posets_checked, labeled.lattices_checked) == (425, 545)
    assert (canonical.posets_checked, canonical.lattices_checked) == (10, 12)
    assert labeled.scope.startswith("exhaustive over all labeled bounded posets ")
    assert canonical.scope.startswith(
        "exhaustive over one representative per isomorphism class of bounded posets ")
    assert "labeled" not in canonical.scope


def test_verify_scope_follows_the_outcome():
    flt = EnumerationFilter(max_elements=5)
    first, every = verify("CHAINS_NO_LU", flt), verify("CHAINS_NO_LU", flt, collect_all=True)
    assert not first.clean and len(every.all_counterexamples) > 1
    assert first.scope == ("searched all labeled posets with at most 5 elements in encoding order "
                           "up to the least counterexample, which refutes the statement")
    assert every.scope == ("exhaustive over all labeled posets with at most 5 elements; "
                           "its counterexamples refute the statement")
    for r in (first, every):
        assert "evidence" not in r.scope
    # the first representative's counterexample need not be isomorphic to the least labeled one
    canonical = verify("CHAINS_NO_LU", EnumerationFilter(max_elements=5, canonical_only=True))
    assert canonical.scope == (
        "searched one representative per isomorphism class of posets with at most 5 elements "
        "up to the first counterexample among the representatives in their order, "
        "which refutes the statement")


def test_verify_unknown_id():
    with pytest.raises(UnknownTheoremError):
        verify("NOPE")


@pytest.mark.parametrize("call", [
    lambda: verify(3),
    lambda: verify(b"TH1"),
    lambda: violates(None, mk_poset(2)),
])
def test_a_theorem_id_that_is_not_a_str_is_unknown(call):
    with pytest.raises(UnknownTheoremError, match="unknown theorem id"):
        call()


@pytest.mark.parametrize("call", [
    lambda: EnumerationFilter(max_elements=0),
])
def test_sizes_and_budgets_below_one_rejected(call):
    with pytest.raises(ArgumentError) as err:
        call()
    assert isinstance(err.value, LamlatError) and isinstance(err.value, ValueError)


@pytest.mark.parametrize("call, message", [
    (lambda: Poset([]), "a poset needs at least one element"),
    (lambda: Poset.from_covers(0, []), "a poset needs at least one element"),
    (lambda: Poset([[1, 1], [0, 1]], labels=("a",)), "labels must match the element count"),
    (lambda: Poset.from_covers(2, [(0, 1)], labels=("a", "a")), "labels must be unique"),
    (lambda: check_axioms([], []), "an operation table needs at least one element"),
    (lambda: check_axioms([[0, 1]], [[0]]), "operation table must be square"),
    (lambda: check_axioms([[0]], [[0, 0], [0, 1]]), "join and meet tables differ in size"),
    (lambda: LambdaLattice(Poset([[1, 1], [0, 1]]), [[0]], [[0]]),
     "operation tables must be n x n"),
    (lambda: LambdaLattice(Poset([[1, 1], [0, 1]]), [[0, 1], [1, 1]], [[0]]),
     "operation tables must be n x n"),  # one table of the wrong size is enough
    (lambda: mk_poset(2).relabel([0, 0, 1, 2]), "not a permutation of the carrier"),
    (lambda: mk_poset(2).relabel([0.0, 1, 2, 3]), "not a permutation of the carrier"),
    (lambda: mk_poset(2).relabel([True, 0, 2, 3]), "not a permutation of the carrier"),
    (lambda: mk_poset(2).restrict([]), "a restriction needs at least one element"),
    (lambda: mk_poset(0), "antichain size must be at least 1"),
    (lambda: ChoiceSpec(joins={(1, 1): 3}), "(1, 1) is not a pair of distinct elements"),
    (lambda: ChoiceSpec(meets={(1, 2): 0, (2, 1): 3}), "conflicting assignments for pair (1, 2)"),
    (lambda: LambdaLattice(Poset([[1, 1], [0, 1]]), [[0, 1], [0, 1]], [[0, 0], [0, 1]]),
     "tables must be symmetric at (0, 1)"),
    (lambda: acute(mk_poset(2)).restrict([1, 2]), "subset is not closed under the operations"),
    (lambda: independence_table(), "need a filter or explicit instances"),
    # a truthy string would otherwise switch a filter on
    (lambda: EnumerationFilter(max_elements=4, require_bounded="no"),
     "require_bounded must be a bool, not 'no'"),
    (lambda: EnumerationFilter(max_elements=4, require_bounded=None),
     "require_bounded must be a bool, not None"),
    (lambda: EnumerationFilter(max_elements=4, canonical_only=1),
     "canonical_only must be a bool, not 1"),
    (lambda: EnumerationFilter(max_elements=4, canonical_only="false"),
     "canonical_only must be a bool, not 'false'"),
    # read by truthiness, "no" would collect all 60 counterexamples at n <= 5
    (lambda: verify("TH1_LCC_CONCLUSION", EnumerationFilter(max_elements=5), collect_all="no"),
     "collect_all must be a bool, not 'no'"),
])
def test_malformed_posets_labels_and_tables_raise_argument_error(call, message):
    with pytest.raises(ArgumentError) as err:
        call()
    assert isinstance(err.value, LamlatError) and isinstance(err.value, ValueError)
    assert str(err.value) == message


@pytest.mark.parametrize("value", [True, 2.5, "3", 0])
@pytest.mark.parametrize("caller, below_one", [
    (mk_poset, "antichain size must be at least 1"),
    (lambda k: Poset.from_covers(k, []), "a poset needs at least one element"),
    (lambda k: EnumerationFilter(max_elements=k), "max_elements must be at least 1"),
    ("--n", "--n must be at least 1"),
    ("--max-n", "--max-n must be at least 1"),
], ids=["mk_poset", "from_covers", "EnumerationFilter", "enumerate --n", "verify --max-n"])
def test_a_size_is_an_int_of_at_least_one(capsys, caller, below_one, value):
    # poset._check_size is the one rule: a bool, a float or a str is not a
    # size, and an int below one keeps its caller's message
    if callable(caller):
        with pytest.raises(ArgumentError) as err:
            caller(value)
        assert str(err.value) == (below_one if value == 0 else f"a size must be an int, not {value!r}")
        return
    # the command line reads its text as an int first: "True" and "2.5" fail there, "3" is 3
    argv = ["enumerate", "--count-only"] if caller == "--n" else ["verify", "TH1"]
    code = main([*argv, caller, str(value)])
    err = capsys.readouterr().err
    if value == "3":
        assert (code, err) == (0, "")
    else:
        assert code == 2
        assert (f"error: {below_one}" if value == 0 else f"invalid int value: '{value}'") in err


def test_mutant_chains_no_lu_finds_counterexample():
    r = verify("CHAINS_NO_LU", EnumerationFilter(max_elements=5))
    ce = r.counterexample
    assert ce is not None
    assert ce.lattice is None
    assert ce.poset.top is not None
    lengths = {c.length for c in ce.poset.maximal_chains_to_top(ce.witness[0])}
    assert len(lengths) > 1


@pytest.mark.parametrize("theorem_id", ["CHAINS_NO_LU", "TH1_LCC_CONCLUSION"])
def test_held_counterexamples_keep_only_their_instance(theorem_id):
    # validating, rendering and printing a held counterexample caches no
    # covers on its poset, and neither record has a __dict__
    r = verify(theorem_id, EnumerationFilter(max_elements=5), collect_all=True)
    assert len(r.all_counterexamples) > 1
    for ce in r.all_counterexamples:
        assert ce.validate()
        render_instance(ce.instance())
        ce.to_dict()
        assert "covers" not in vars(ce.poset)
        assert not hasattr(ce, "__dict__")
        assert (ce.lattice is None) == (theorem_id == "CHAINS_NO_LU")
        assert not hasattr(ce.lattice, "__dict__")


@pytest.mark.parametrize("theorem_id", ["MONO", "TH1"])
def test_a_lattice_run_reads_incomparability_only_from_the_completion_pass(monkeypatch, theorem_id):
    # the completion pass is the one definition of the incomparable mask,
    # cells and pairs, and the Poset properties only run it: a lattice run
    # runs it once per streamed poset (so is_lattice in MONO's conclusion
    # builds no pairs again), and never for the middles the posets are
    # built from; a plain read runs it once for all three facts
    ran, stored = [], {}
    facts = {"_incomparable": (0, 4, 2, 0), "_incomparable_cells": ((1, 2), (2, 1)),
             "incomparable_pairs": ((1, 2),)}

    def counted(p, rows=poset._completion_rows):
        ran.append(p)
        out = rows(p)
        stored.update((name, vars(p)[name]) for name in facts)
        return out

    for module in (poset, lattice, search):
        monkeypatch.setattr(module, "_completion_rows", counted)
    r = verify(theorem_id, EnumerationFilter(max_elements=5))
    assert (r.posets_checked, r.lattices_checked) == (425, 545)
    assert len(ran) == len({id(p) for p in ran}) == 425  # ran holds them, so no id is reused
    assert all(type(p) is _BoundedPoset or p.n == 1 for p in ran)
    for name, fact in facts.items():  # each property, read first, returns what the pass stored
        ran.clear()
        p = mk_poset(2)
        assert getattr(p, name) is stored[name] and ran == [p], name
        assert stored[name] == fact
    assert (p._incomparable, p._incomparable_cells) == ((0, 4, 2, 0), ((1, 2), (2, 1)))
    assert ran == [p]


def test_verify_reports_least_counterexample():
    collected = verify("TH1_LCC_CONCLUSION", EnumerationFilter(max_elements=5), collect_all=True)
    stopped = verify("TH1_LCC_CONCLUSION", EnumerationFilter(max_elements=5))
    assert len(collected.all_counterexamples) >= 1
    encodings = [ce.encoding() for ce in collected.all_counterexamples]
    assert stopped.counterexample.encoding() == min(encodings)
    assert stopped.counterexample.encoding() == encodings[0]


def test_verify_deterministic():
    a = verify("TH1_LCC_CONCLUSION", EnumerationFilter(max_elements=5))
    b = verify("TH1_LCC_CONCLUSION", EnumerationFilter(max_elements=5))
    assert a.counterexample.encoding() == b.counterexample.encoding()
    assert (a.posets_checked, a.lattices_checked) == (b.posets_checked, b.lattices_checked)


def test_height_is_refuted_at_seven():
    # HEIGHT as formalised: clean on every completion up to n = 6, and this is
    # the least labeled counterexample at n = 7
    r = verify("HEIGHT", EnumerationFilter(max_elements=7))
    assert (r.posets_checked, r.lattices_checked, r.posets_skipped) == (7039, 20225, 0)
    d = r.counterexample.to_dict()
    assert d["n"] == 7
    assert d["covers"] == [[1, 0], [2, 0], [3, 0], [4, 1], [5, 2], [5, 3], [5, 4], [6, 5]]
    assert d["joins"] == dict.fromkeys(["1 2", "1 3", "2 3", "2 4", "3 4"], 0)
    assert d["meets"] == {"1 2": 5, "1 3": 5, "2 3": 5, "2 4": 6, "3 4": 6}
    assert d["witness"] == [2, 3]
    assert d["note"] == "h(a)=2 h(b)=2 h(join)=4 h(meet)=1"
    assert r.counterexample.validate()


def test_lem2_statement_holds_literally_on_every_completion_up_to_5(fixtures, completions_upto5):
    # the paper's statement read literally: on a semimodular instance every
    # convex subset closed under both operations restricts to a semimodular
    # lambda-lattice; on any other instance the whole carrier is such a
    # subset and fails
    semimodular = failing = subsets = 0
    for ll in completions_upto5 + list(fixtures.values()):
        rel = relation_from_covers(ll.n, ll.poset.covers)
        closed = convex_closed_subsets_naive(ll.n, rel, ll.join_table, ll.meet_table)
        if checkers.is_semimodular(ll).holds:
            semimodular += 1
            for s in closed:
                subsets += 1
                assert checkers.is_semimodular(ll.restrict(s)).holds, (ll.encoding(), s)
        else:
            failing += 1
            assert frozenset(range(ll.n)) in closed, ll.encoding()
            assert not checkers.is_semimodular(ll.restrict(range(ll.n))).holds, ll.encoding()
    # 425 + 4 fixtures semimodular with 5 671 + 88 subsets, 120 + 3 fixtures not
    assert (semimodular, subsets, failing) == (429, 5759, 123)


def test_lem2_verify_decides_from_semimodularity_alone():
    # LEM2's hypothesis is semimodularity and so is its conclusion: a run walks no subset
    assert THEOREMS["LEM2"].conclusion is checkers.is_semimodular
    r = verify("LEM2", EnumerationFilter(max_elements=5))
    assert r.clean
    assert (r.posets_checked, r.lattices_checked, r.posets_skipped) == (425, 545, 0)


def test_violates_on_fixture():
    assert violates("TH1_NO_COND3", fixture("FIG5")) is not None
    assert violates("TH1", fixture("FIG5")) is None  # cond3 fails, hypothesis not met
    assert violates("CHAINS", fixture_poset("FIG2")) is None
    assert violates("CHAINS_NO_LU", fixture_poset("FIG5")) is not None


@pytest.mark.parametrize("theorem_id, instance, over", [
    ("TH1", fixture_poset("FIG5"), "lattices"),
    ("ACUTE", mk_poset(2).restrict([1, 2]), "bounded posets"),
    ("COR1", Poset.from_covers(3, [(0, 1), (0, 2)]), "bounded posets"),
])
def test_violates_rejects_an_instance_outside_what_the_theorem_ranges_over(theorem_id, instance, over):
    assert THEOREMS[theorem_id].over == over
    with pytest.raises(TypeError) as err:
        violates(theorem_id, instance)
    assert str(err.value) == f"{theorem_id} quantifies over {over}"


def test_violates_on_posets_takes_any_poset_and_reads_a_lattice_as_its_poset():
    antichain = mk_poset(2).restrict([1, 2])  # no bottom, no top
    assert THEOREMS["CHAINS_NO_LU"].over == "posets"
    assert violates("CHAINS_NO_LU", antichain) is None  # the hypothesis wants a top
    ce = violates("CHAINS_NO_LU", fixture("FIG5"))
    assert ce is not None and ce.lattice is None
    assert ce == violates("CHAINS_NO_LU", fixture_poset("FIG5"))
    assert violates("ACUTE", fixture("FIG3")) is None  # clean on the bounded poset of FIG3


@pytest.mark.parametrize("theorem_id", sorted(THEOREMS))
def test_violates_judges_every_instance_as_verify_does_up_to_5(theorem_id):
    # at n <= 4 no theorem has a counterexample; at n <= 5 CHAINS_NO_LU,
    # TH1_LCC_CONCLUSION and TH2_NO_COND5 have 120, 60 and 60
    th = THEOREMS[theorem_id]
    result = verify(theorem_id, EnumerationFilter(max_elements=5), collect_all=True)
    flt = EnumerationFilter(max_elements=5, require_bounded=th.over != "posets")
    instances = list(enumerate_posets(flt))
    if th.over == "lattices":
        instances = [ll for p in instances for ll in enumerate_completions(p)]
        assert len(instances) == result.lattices_checked == 545
    else:
        assert len(instances) == result.posets_checked
    expected = iter(result.all_counterexamples)
    for inst in instances:
        ce = violates(theorem_id, inst)
        if ce is not None:
            want = next(expected)
            assert (ce.witness, ce.note, ce.encoding()) == (want.witness, want.note, want.encoding())
            assert ce.to_dict() == want.to_dict()
    assert next(expected, None) is None


@pytest.mark.parametrize("theorem_id", [
    "TH1_NO_COND3", "TH1_LCC_CONCLUSION", "TH2_NO_COND4", "TH2_NO_COND5", "CHAINS_NO_LU"])
def test_a_first_hit_run_counts_up_to_the_first_instance_violates_refutes(theorem_id):
    # the oracle walks the streams itself and judges one instance at a time
    th = THEOREMS[theorem_id]
    flt = EnumerationFilter(max_elements=th.refuted_at, require_bounded=th.over != "posets")

    def ranked_instances():
        for poset_rank, p in enumerate(enumerate_posets(flt), 1):
            for inst in (enumerate_completions(p) if th.over == "lattices" else (p,)):
                yield poset_rank, inst

    for rank, (poset_rank, inst) in enumerate(ranked_instances(), 1):
        hit = violates(theorem_id, inst)
        if hit is not None:
            break
    r = verify(theorem_id, EnumerationFilter(max_elements=th.refuted_at))
    if th.over == "lattices":
        assert (r.lattices_checked, r.posets_checked) == (rank, poset_rank)
    else:
        assert (r.posets_checked, r.lattices_checked) == (rank, 0)
    assert r.counterexample.to_dict() == hit.to_dict()
    assert len(r.all_counterexamples) == 1


def test_theorem_registry_shape():
    assert {"TH1", "TH2", "LEM1", "LEM2", "HEIGHT", "CHAINS", "ACUTE", "COR1",
            "MONO", "MODLAT"} <= set(THEOREMS)
    assert {tid: th.refuted_at for tid, th in THEOREMS.items() if th.refuted_at is not None} == {
        "HEIGHT": 7, "TH1_NO_COND3": 6, "TH1_LCC_CONCLUSION": 5, "TH2_NO_COND4": 6,
        "TH2_NO_COND5": 5, "CHAINS_NO_LU": 5,
    }


def test_each_mutant_is_its_parent_with_one_change_sharing_the_rest():
    th = THEOREMS
    assert th["TH1_NO_COND3"].conclusion is th["TH1"].conclusion
    assert th["TH1_LCC_CONCLUSION"].hypothesis is th["TH1"].hypothesis
    assert th["TH1_NO_COND3"].hypothesis is th["LEM1"].hypothesis is th["LEM2"].hypothesis
    assert th["TH2_NO_COND4"].conclusion is th["TH2_NO_COND5"].conclusion is th["TH2"].conclusion
    assert th["CHAINS_NO_LU"].conclusion is th["CHAINS"].conclusion
    assert len({th[tid].hypothesis for tid in ("ACUTE", "COR1", "MONO", "MODLAT")}) == 1
    assert {tid: (t.over, t.default_max_elements, t.refuted_at) for tid, t in th.items()} == {
        "TH1": ("lattices", 5, None),
        "TH2": ("lattices", 5, None),
        "LEM1": ("lattices", 5, None),
        "LEM2": ("lattices", 5, None),
        "HEIGHT": ("lattices", 5, 7),
        "CHAINS": ("posets", 6, None),
        "ACUTE": ("bounded posets", 6, None),
        "COR1": ("bounded posets", 6, None),
        "MONO": ("lattices", 5, None),
        "MODLAT": ("lattices", 5, None),
        "TH1_NO_COND3": ("lattices", 6, 6),
        "TH1_LCC_CONCLUSION": ("lattices", 5, 5),
        "TH2_NO_COND4": ("lattices", 6, 6),
        "TH2_NO_COND5": ("lattices", 6, 5),
        "CHAINS_NO_LU": ("posets", 5, 5),
    }


def test_readme_theorem_table_matches_the_registry():
    # the last three cells are read from the right: a statement may hold '|' in backticks
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    table = text.split("## Theorem ids for `verify`", 1)[1].split("\n\n")[1]
    rows = {}
    for line in table.splitlines()[2:]:
        cells = [c.strip() for c in line.strip().strip("|").split("|")]
        rows[cells[0].strip("`")] = tuple(cells[-3:])
    assert rows.keys() == THEOREMS.keys()
    for tid, th in THEOREMS.items():
        refuted = "—" if th.refuted_at is None else f"n = {th.refuted_at}"
        assert rows[tid] == (th.over, f"n ≤ {th.default_max_elements}", refuted), tid


def test_disagreeing_sides_are_noted_name_by_name(monkeypatch):
    # MONO, ACUTE and COR1 are clean, so one side is broken to read each failing note
    monkeypatch.setattr(checkers, "satisfies_lcc", lambda ll: Verdict(False, (0, 1)))
    monkeypatch.setattr(search, "is_monotone", lambda ll: False)
    m2 = mk_poset(2)
    found = {tid: violates(tid, inst) for tid, inst in (("MONO", acute(m2)), ("ACUTE", m2), ("COR1", m2))}
    assert {tid: (ce.witness, ce.note) for tid, ce in found.items()} == {
        "MONO": ((), "monotone=False lattice=True"),
        "ACUTE": ((), "lcc-of-acute=False atom-condition=True structural=True"),
        "COR1": ((), "lcc-of-acute=False structural=True"),
    }


@pytest.mark.parametrize("theorem_id", sorted(THEOREMS))
def test_every_theorem_meets_its_expectation_and_is_refuted_where_registered(theorem_id, default_run):
    th = THEOREMS[theorem_id]
    r = default_run(theorem_id)
    assert r.expected_clean == (th.refuted_at is None or th.default_max_elements < th.refuted_at)
    assert r.expectation_met
    if th.refuted_at is not None:
        below = verify(theorem_id, EnumerationFilter(max_elements=th.refuted_at - 1))
        at = verify(theorem_id, EnumerationFilter(max_elements=th.refuted_at))
        assert below.clean and below.expectation_met
        assert not at.clean and at.expectation_met
        assert at.counterexample.poset.n == th.refuted_at
        assert at.counterexample.validate()


def test_semimodular_lattices_satisfy_lcc_up_to_n6():
    # classical fact recovered on every enumerated lattice completion
    from lamlat import is_lattice, is_semimodular, satisfies_lcc

    lattices = 0
    for p in enumerate_posets(EnumerationFilter(max_elements=6, require_bounded=True)):
        for ll in enumerate_completions(p):
            if not is_lattice(ll):
                continue
            lattices += 1
            if is_semimodular(ll).holds:
                assert satisfies_lcc(ll).holds
    assert lattices > 1000


# ----- independence table -----

def test_independence_fixtures_realize_six_rows(fixtures):
    triples = independence_table(instances=fixtures.values())
    assert triples == {
        (True, True, True), (True, True, False), (True, False, False),
        (False, True, True), (False, True, False), (False, False, False),
    }


def test_independence_small_subset_of_six():
    triples = independence_table(EnumerationFilter(max_elements=3))
    assert triples <= {
        (True, True, True), (True, True, False), (True, False, False),
        (False, True, True), (False, True, False), (False, False, False),
    }


def test_independence_never_lcc_without_wlcc():
    triples = independence_table(EnumerationFilter(max_elements=4))
    assert not any(lcc and not wlcc for (_, wlcc, lcc) in triples)
