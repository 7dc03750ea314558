from itertools import islice, permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lamlat import (
    Chain,
    CycleError,
    EnumerationFilter,
    InvalidOrderError,
    NoTopError,
    Poset,
    RangeError,
    UnboundedError,
    enumerate_posets,
    forced_join,
    forced_meet,
    mk_poset,
)
from lamlat.fixtures import FIXTURE_NAMES, fixture_poset
from lamlat.poset import _bits, _BoundedPoset, _completion_rows
from lamlat.search import THEOREMS, _bounded_posets

from conftest import labeled_rows
from oracles import (
    _heights,
    all_labeled_posets_naive,
    cover_paths,
    cover_relation,
    covers_above_strict,
    equal_chain_lengths_failure,
    has_top,
    incomparable_cells_naive,
    is_directed_naive,
    isomorphic_naive,
    least_bound_naive,
    lu_covering_witness,
    oracle_height,
    oracle_lower_bounds,
    oracle_upper_bounds,
    relation_from_covers,
    top_element,
)

FIG2_COVERS = [(0, 1), (0, 2), (0, 3), (1, 4), (1, 5), (2, 4), (2, 5), (3, 5), (4, 6), (5, 6)]


def test_chain_from_covers():
    p = Poset.from_covers(3, [(0, 1), (1, 2)])
    assert p.leq(0, 2)
    assert p.lt(0, 2)
    assert not p.leq(2, 0)
    assert p.covers == ((0, 1), (1, 2))


def test_fig2_incomparabilities():
    p = fixture_poset("FIG2")
    a, b, c, d, e = 1, 2, 3, 4, 5
    assert p.incomparable(a, b)
    assert p.incomparable(c, d)
    assert p.incomparable(d, e)
    assert p.leq(a, e) and p.leq(b, d)


def test_cycle_rejected():
    with pytest.raises(CycleError):
        Poset.from_covers(2, [(0, 1), (1, 0)])
    with pytest.raises(CycleError):
        Poset.from_covers(2, [(0, 0)])
    with pytest.raises(CycleError, match="antisymmetry fails between 0 and 1"):
        Poset.from_covers(3, [(0, 1), (1, 2), (2, 0)])


def test_bad_cover_index():
    with pytest.raises(RangeError):
        Poset.from_covers(2, [(0, 5)])


def test_matrix_constructor_validates():
    Poset([[1, 1], [0, 1]])
    with pytest.raises(InvalidOrderError):
        Poset([[0, 1], [0, 1]])  # not reflexive
    with pytest.raises(CycleError):
        Poset([[1, 1], [1, 1]])  # not antisymmetric
    with pytest.raises(InvalidOrderError):
        Poset([[1, 1, 0], [0, 1, 1], [0, 0, 1]])  # not transitive


def test_upper_bounds_fig2():
    p = fixture_poset("FIG2")
    # frozen from oracle_upper_bounds: U(a, b) = {d, e, 1}
    assert p.upper_bounds(1, 2) == frozenset({4, 5, 6})
    assert p.upper_bounds(1, 2) == oracle_upper_bounds(7, FIG2_COVERS, 1, 2)


def test_upper_bounds_reflexive_pair():
    p = fixture_poset("FIG4")
    for x in range(p.n):
        assert p.upper_bounds(x, x) == p.up_set(x)


def test_lower_bounds_fig3():
    p = fixture_poset("FIG3")
    # frozen from oracle_lower_bounds: L(c, d) = {0, a, b}
    assert p.lower_bounds(3, 4) == frozenset({0, 1, 2})
    assert p.lower_bounds(3, 4) == oracle_lower_bounds(6, list(p.covers), 3, 4)


def test_directedness_and_bounds():
    fig2 = fixture_poset("FIG2")
    assert fig2.is_directed()
    assert fig2.bounds() == (0, 6)

    antichain = Poset([[1, 0], [0, 1]])
    assert not antichain.is_directed()
    assert antichain.bounds() is None
    assert antichain.bottom is None and antichain.top is None

    singleton = Poset([[1]])
    assert singleton.is_directed()
    assert singleton.bounds() == (0, 0)


def test_heights_fig4():
    p = fixture_poset("FIG4")
    # frozen from oracle_height: h(c) = 2, h(g) = 3, length = 4
    assert p.height(3) == 2
    assert p.height(7) == 3
    assert p.length() == 4
    for x in range(p.n):
        assert p.height(x) == oracle_height(10, list(p.covers), 0, x)


def test_heights_fig2():
    p = fixture_poset("FIG2")
    assert p.height(4) == p.height(5) == 2


def test_height_singleton():
    p = Poset([[1]])
    assert p.height(0) == 0
    assert p.length() == 0


def test_height_needs_bottom():
    antichain = Poset([[1, 0], [0, 1]])
    with pytest.raises(UnboundedError):
        antichain.height(0)


def test_maximal_chains_fig2():
    p = fixture_poset("FIG2")
    chains = p.maximal_chains_to_top(0)
    # frozen from cover_paths: five chains, all of length 3
    assert len(chains) == 5
    assert {c.length for c in chains} == {3}
    paths = [c.elements for c in chains]
    assert paths == sorted(paths)  # lexicographic order
    for c in chains:
        assert c.elements[0] == 0 and c.elements[-1] == p.top
        for x, y in zip(c.elements, c.elements[1:]):
            assert p.is_cover(x, y)


def test_maximal_chains_from_top():
    p = fixture_poset("FIG2")
    assert p.maximal_chains_to_top(p.top) == [Chain((p.top,))]
    assert p.maximal_chains_to_top(p.top)[0].length == 0


def test_maximal_chains_fig5_unequal():
    p = fixture_poset("FIG5")
    chains = p.maximal_chains_to_top(0)
    # frozen from cover_paths: 0-a-b-d-1 and 0-a-c-1
    assert [c.elements for c in chains] == [(0, 1, 2, 4, 5), (0, 1, 3, 5)]
    assert sorted(c.length for c in chains) == [3, 4]
    assert cover_paths(6, list(p.covers), 0, 5) == [(0, 1, 2, 4, 5), (0, 1, 3, 5)]


def test_chains_need_top():
    antichain = Poset([[1, 0], [0, 1]])
    with pytest.raises(NoTopError):
        antichain.maximal_chains_to_top(0)


def test_chain_lengths_to_top():
    assert fixture_poset("FIG2").chain_lengths_to_top() == (8, 4, 4, 4, 2, 2, 1)
    assert fixture_poset("FIG5").chain_lengths_to_top()[0] == 0b11000  # lengths 3 and 4
    with pytest.raises(NoTopError):
        Poset([[1, 0], [0, 1]]).chain_lengths_to_top()


def test_top_and_chain_lengths_match_oracles_up_to_5_and_fixtures():
    # Poset.top against the set-based top, and the CHAINS conclusion's
    # verdict, witness and note against the lengths of the cover paths
    conclusion = THEOREMS["CHAINS"].conclusion
    posets = list(enumerate_posets(EnumerationFilter(max_elements=5)))
    posets += [fixture_poset(name) for name in FIXTURE_NAMES]
    topped = failing = 0
    for p in posets:
        rel = relation_from_covers(p.n, p.covers)
        assert p.top == top_element(p.n, rel), p
        assert (p.top is not None) == has_top(p.n, rel), p
        if p.top is None:
            continue
        topped += 1
        v = conclusion(p)
        expected = equal_chain_lengths_failure(p.n, rel)
        assert v.holds == (expected is None), p
        if expected is not None:
            assert (v.witness, v.note) == expected, p
            failing += 1
    assert len(posets) == 4473 + len(FIXTURE_NAMES)
    assert 0 < failing < topped < len(posets)


def test_lu_covering_fig2_holds():
    assert fixture_poset("FIG2").has_lu_covering().holds


def test_lu_covering_fig5_witness():
    v = fixture_poset("FIG5").has_lu_covering()
    assert not v.holds
    assert v.witness == (1, 2, 3)  # a covered by incomparable b, c with no common cover


def test_lu_covering_chain_vacuous():
    assert Poset.from_covers(4, [(0, 1), (1, 2), (2, 3)]).has_lu_covering().holds


def test_lu_covering_monotone_under_deletion():
    # FIG2 without its top: d and e lose their only common cover
    p = Poset.from_covers(6, [(0, 1), (0, 2), (0, 3), (1, 4), (1, 5), (2, 4), (2, 5), (3, 5)])
    v = p.has_lu_covering()
    assert not v.holds
    assert v.witness == (1, 4, 5)


def test_lu_covering_matches_oracle_on_all_posets_up_to_5():
    posets = failing = 0
    for p in enumerate_posets(EnumerationFilter(max_elements=5)):
        v = p.has_lu_covering()
        assert (v.witness is None) == v.holds
        assert v.witness == lu_covering_witness(p.n, relation_from_covers(p.n, p.covers)), p
        posets += 1
        failing += not v.holds
    assert posets == 4473
    assert 0 < failing < posets


def test_incomparable_cells_match_oracle_on_all_posets_up_to_5():
    posets = 0
    for p in enumerate_posets(EnumerationFilter(max_elements=5)):
        rel = relation_from_covers(p.n, p.covers)
        assert list(p._incomparable_cells) == incomparable_cells_naive(p.n, rel), p
        posets += 1
    assert posets == 4473


def test_directed_and_forced_bounds_match_oracles_on_all_posets_up_to_5():
    # is_directed is boundedness; forced_join and forced_meet are the least and
    # greatest common bounds, on every ordered pair, comparable pairs included
    posets = directed = pairs = forced = 0
    for p in enumerate_posets(EnumerationFilter(max_elements=5)):
        rel = relation_from_covers(p.n, p.covers)
        assert p.is_directed() == is_directed_naive(p.n, rel), p
        for x in range(p.n):
            for y in range(p.n):
                join, meet = forced_join(p, x, y), forced_meet(p, x, y)
                assert join == least_bound_naive(p.n, rel, x, y, "upper"), (p, x, y)
                assert meet == least_bound_naive(p.n, rel, x, y, "lower"), (p, x, y)
                forced += join is not None
        posets += 1
        directed += p.is_directed()
        pairs += p.n ** 2
    assert posets == 4473
    assert 0 < directed < posets
    assert 0 < forced < pairs


def test_heights_match_oracle_on_every_poset_with_a_bottom_up_to_5_and_fixtures():
    posets = [p for p in enumerate_posets(EnumerationFilter(max_elements=5))
              if p.bottom is not None]
    posets += [fixture_poset(name) for name in FIXTURE_NAMES]
    for p in posets:
        assert list(p.heights) == _heights(p.n, relation_from_covers(p.n, p.covers)), p
    assert len(posets) == 1183 + len(FIXTURE_NAMES)
    assert max(max(p.heights) for p in posets) == 4


def test_bounded_stream_posets_answer_like_plain_posets_up_to_6_and_sampled_at_7(bounded_upto6):
    # the bounded stream's posets answer from their middle poset, and the
    # completion pass stores their incomparability facts; each override and
    # each stored fact must equal the generic property of the same order rows
    overrides = ("bottom", "top", "_down", "_covers_above")
    facts = ("_incomparable", "_incomparable_cells", "incomparable_pairs")
    assert set(overrides) <= set(vars(_BoundedPoset))
    assert not set(facts) & set(vars(_BoundedPoset))
    # bench/tracing.py rebinds these on Poset, so the stream must inherit them
    assert not {"leq", "is_directed", "maximal_chains_to_top", "has_lu_covering"} & set(
        vars(_BoundedPoset))
    sample7 = list(islice(_bounded_posets(7), 0, None, 41))
    assert {p.bounds() for p in sample7} == set(permutations(range(7), 2))  # all 42 blocks
    from_middle = 0
    for p in bounded_upto6 + sample7:
        q = Poset._from_masks(p.n, p._up)
        for name in facts:  # drop what an earlier read cached, so the pass supplies it
            vars(p).pop(name, None)
        _completion_rows(p)
        assert set(facts) <= set(vars(p)), p
        for name in overrides + facts:
            assert getattr(p, name) == getattr(q, name), (p, name)
        assert (p.covers, p.heights) == (q.covers, q.heights), p
        assert (p.atoms(), p.coatoms(), p.bounds()) == (q.atoms(), q.coatoms(), q.bounds()), p
        assert p == q and q == p and hash(p) == hash(q), p
        from_middle += isinstance(p, _BoundedPoset)
    assert len(sample7) == 4335  # ceil(177702 / 41)
    assert from_middle == 6995 - 1 + 4335  # all but the one-element poset


def test_bits_matches_bit_loop_across_table_boundary():
    def bit_loop(mask):
        while mask:
            low = mask & -mask
            yield low.bit_length() - 1
            mask ^= low

    for m in range(1024):
        assert _bits(m) == tuple(bit_loop(m)), m


def test_convexity_fig2():
    p = fixture_poset("FIG2")
    assert p.is_convex({0, 1, 2})
    assert not p.is_convex({0, 4})  # a sits between 0 and d
    assert p.is_convex(set())
    assert p.is_convex(range(p.n))


def test_cover_rows_match_the_strict_list_rule_on_all_labeled_posets_at_6():
    # the cover_relation comparison below stops at 5 elements
    count = 0
    for up in labeled_rows(6):
        assert Poset._from_masks(6, up)._covers_above == covers_above_strict(up), up
        count += 1
    assert count == 130023


def test_atoms_coatoms():
    p = fixture_poset("FIG2")
    assert p.atoms() == {1, 2, 3}
    assert p.coatoms() == {4, 5}
    m3 = mk_poset(3)
    assert m3.atoms() == m3.coatoms() == {1, 2, 3}


def test_cover_and_dual_accessors_match_the_relation_on_all_posets_up_to_5():
    # the relation is read off leq, the stored order; covers, atoms and
    # coatoms are derived from it, so the oracle shares none of their rules
    posets = bottoms = tops = 0
    for p in enumerate_posets(EnumerationFilter(max_elements=5)):
        n = p.n
        rel = {(a, b) for a in range(n) for b in range(n) if p.leq(a, b)}
        covers = cover_relation(n, rel)
        for x in range(n):
            assert p.covers_above(x) == tuple(sorted(b for a, b in covers if a == x)), (p, x)
            assert p.covers_below(x) == tuple(sorted(a for a, b in covers if b == x)), (p, x)
            assert p.up_set(x) == {b for b in range(n) if (x, b) in rel}, (p, x)
            assert p.down_set(x) == {a for a in range(n) if (a, x) in rel}, (p, x)
        bottom = next((b for b in range(n) if all((b, y) in rel for y in range(n))), None)
        top = top_element(n, rel)
        if bottom is None:
            with pytest.raises(UnboundedError):
                p.atoms()
        else:
            assert p.atoms() == {b for a, b in covers if a == bottom}, p
            bottoms += 1
        if top is None:
            with pytest.raises(NoTopError):
                p.coatoms()
        else:
            assert p.coatoms() == {a for a, b in covers if b == top}, p
            tops += 1
        posets += 1
    assert posets == 4473
    assert 0 < bottoms < posets and 0 < tops < posets


def test_mk_poset_shapes():
    m1 = mk_poset(1)
    assert m1.n == 3 and m1.covers == ((0, 1), (1, 2))
    m2 = mk_poset(2)
    assert m2.n == 4 and m2.bounds() == (0, 3)
    m3 = mk_poset(3)
    assert m3.length() == 2
    assert len(m3.incomparable_pairs) == 3


def test_restrict_and_relabel():
    p = fixture_poset("FIG2")
    sub = p.restrict({0, 1, 2, 4})
    assert sub.n == 4
    assert sub.covers == ((0, 1), (0, 2), (1, 3), (2, 3))
    assert sub.labels == ("0", "a", "b", "d")

    q = p.relabel([6, 5, 4, 3, 2, 1, 0])
    assert q.is_isomorphic(p)
    assert q != p


def test_isomorphism_detects_difference():
    chain = Poset.from_covers(3, [(0, 1), (1, 2)])
    vee = Poset.from_covers(3, [(0, 1), (0, 2)])
    assert not chain.is_isomorphic(vee)
    assert chain.is_isomorphic(chain.relabel([2, 0, 1]))


def test_is_isomorphic_matches_naive_oracle_on_all_pairs_up_to_4():
    rels = [(n, rel) for n in range(1, 5) for rel in all_labeled_posets_naive(n)]
    posets = [Poset([[(x, y) in rel for y in range(n)] for x in range(n)]) for n, rel in rels]
    got = [p.is_isomorphic(q) for p in posets for q in posets]
    expected = [isomorphic_naive(a, b) for a in rels for b in rels]
    assert len(got) == 242 * 242
    assert got == expected
    assert 0 < sum(got) < len(got)


def test_least_relabelings_count_classes_like_is_canonical_up_to_5():
    # the least relabelings and the posets that are their own form both
    # count the unlabeled posets; the form's permutations are every
    # relabeling onto the least rows, which lattice._least_encoding relies
    # on, and those rows list the elements by ascending (down-set size,
    # up-set size)
    for n, classes in zip(range(1, 6), (1, 2, 5, 16, 63)):
        posets = [Poset._from_masks(n, up) for up in labeled_rows(n)]
        assert len({p._canonical[0] for p in posets}) == classes
        assert sum(p._canonical[0] == p._up for p in posets) == classes
        for p in posets:
            least, perms = p._canonical
            assert set(perms) == {
                perm for perm in permutations(range(n)) if p.relabel(perm)._up == least
            }
            q = Poset._from_masks(n, least)
            sizes = [(d.bit_count(), u.bit_count()) for d, u in zip(q._down, q._up)]
            assert sizes == sorted(sizes)


def test_labels_cosmetic():
    a = Poset.from_covers(2, [(0, 1)], labels=("x", "y"))
    b = Poset.from_covers(2, [(0, 1)], labels=("p", "q"))
    assert a == b
    assert hash(a) == hash(b)
    with pytest.raises(ValueError):
        Poset.from_covers(2, [(0, 1)], labels=("x", "x"))


# ----- invariants -----

cover_sets = st.integers(2, 6).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.sets(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).map(
                lambda t: (min(t), max(t))
            ).filter(lambda t: t[0] != t[1]),
            max_size=8,
        ),
    )
)


@given(cover_sets)
@settings(max_examples=120)
def test_covers_roundtrip(case):
    n, covers = case
    p = Poset.from_covers(n, covers)
    assert Poset.from_covers(n, p.covers) == p


@given(cover_sets)
@settings(max_examples=120)
def test_cover_increases_height(case):
    n, covers = case
    p = Poset.from_covers(n, covers)
    if p.bottom is None:
        return
    for x, y in p.covers:
        assert p.height(y) >= p.height(x) + 1
