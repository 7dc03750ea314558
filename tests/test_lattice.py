import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lamlat import (
    BadChoiceError,
    ChoiceSpec,
    EnumerationFilter,
    IncompleteChoiceError,
    LambdaLattice,
    NotDirectedError,
    Poset,
    RangeError,
    UnboundedError,
    acute,
    check_axioms,
    convex_closed_subsets,
    enumerate_completions,
    enumerate_posets,
    forced_join,
    forced_meet,
    from_choice,
    idempotency_holds,
    is_distributive,
    is_lattice,
    is_modular,
    is_monotone,
    mk_poset,
)
from lamlat.fixtures import FIXTURE_NAMES, fixture, fixture_poset
from lamlat.lattice import _unforced
from lamlat.poset import _base_row, _completion_rows
from lamlat.verdict import HOLDS

from oracles import (
    axiom_failures_naive,
    convex_closed_subsets_naive,
    incomparable_cells_naive,
    is_lattice_naive,
    isomorphic_naive,
    relation_from_covers,
)


def boolean_2x2():
    return from_choice(mk_poset(2))


def test_base_rows_match_oracle_up_to_5_and_fixtures():
    # max and min on comparable pairs, 0 on incomparable ones
    posets = list(enumerate_posets(EnumerationFilter(max_elements=5)))
    posets += [fixture_poset(name) for name in FIXTURE_NAMES]
    for p in posets:
        rel = relation_from_covers(p.n, p.covers)
        cells = tuple(incomparable_cells_naive(p.n, rel))
        jt, mt, pairs = _completion_rows(p)
        assert pairs == tuple((x, y) for x, y in cells if x < y)
        assert p.incomparable_pairs is pairs
        # each row's incomparable mask and cells, and what the pass stores from them
        inc = tuple(sum(1 << y for c, y in cells if c == x) for x in range(p.n))
        for x in range(p.n):
            row = _base_row(p.n, x, p._up[x], p._down[x])
            assert row[2:] == (inc[x], tuple(c for c in cells if c[0] == x),
                               tuple(c for c in cells if c[0] == x < c[1])), (p, x)
        assert (p._incomparable, p._incomparable_cells) == (inc, cells)
        for x in range(p.n):
            for y in range(p.n):
                if (x, y) in rel:
                    expected = (y, x)
                elif (y, x) in rel:
                    expected = (x, y)
                else:
                    expected = (0, 0)
                assert (jt[x][y], mt[x][y]) == expected, (p, x, y)
    assert len(posets) == 4473 + len(FIXTURE_NAMES)


def test_completion_rows_are_fresh_lists_only_where_callers_write(bounded_upto6):
    # callers write the incomparable cells into the list rows they get;
    # every other row is one cached tuple, shared by every call
    for p in (fixture_poset("FIG2"), *bounded_upto6[-50:]):
        jt, mt, _ = _completion_rows(p)
        before = [tuple(row) for row in jt + mt]
        for x, inc in enumerate(p._incomparable):
            for row in (jt[x], mt[x]):
                assert type(row) is (list if inc else tuple)
                if inc:
                    row[:] = [-1] * p.n
        again, again_m, _ = _completion_rows(p)
        assert [tuple(row) for row in again + again_m] == before, p
        assert [again[x] is jt[x] for x in range(p.n)] == [not inc for inc in p._incomparable]


def test_check_axioms_fixtures_pass(fixtures):
    for name, ll in fixtures.items():
        report = check_axioms(ll.join_table, ll.meet_table)
        assert report.all_pass, name


def test_check_axioms_boolean_lattice():
    ll = boolean_2x2()
    assert check_axioms(ll.join_table, ll.meet_table).all_pass


def test_check_axioms_twisted_chain():
    # 2-chain with join(0,1) = 0: absorption breaks; computed by direct
    # evaluation, the first failing pair in scan order is (1, 0)
    report = check_axioms([[0, 0], [0, 1]], [[0, 0], [0, 1]])
    assert report.commutativity.holds
    assert not report.absorption.holds
    assert report.absorption.witness == (1, 0)
    assert report.all_pass is False  # commutativity alone does not pass


def test_check_axioms_commutativity_witness():
    report = check_axioms([[0, 1], [0, 1]], [[0, 0], [0, 1]])
    assert not report.commutativity.holds
    assert report.commutativity.witness == (0, 1)


def test_check_axioms_range_error():
    with pytest.raises(RangeError):
        check_axioms([[0, 5], [5, 1]], [[0, 0], [0, 1]])


def _boolean_tables_with_join_12(v):
    ll = from_choice(mk_poset(2))
    join = [list(row) for row in ll.join_table]
    join[1][2] = join[2][1] = v
    return join, ll.meet_table


@pytest.mark.parametrize("build, value", [
    (lambda: from_choice(mk_poset(2), ChoiceSpec(joins={(1, 2): 3.9})), 3.9),
    (lambda: from_choice(mk_poset(2), ChoiceSpec(joins={(1, 2): "3"})), "3"),
    (lambda: from_choice(mk_poset(2), ChoiceSpec(meets={(1, 2): True})), True),
    (lambda: from_choice(mk_poset(2), ChoiceSpec(joins={(1.0, 2): 3})), 1.0),
    (lambda: LambdaLattice(mk_poset(2), *_boolean_tables_with_join_12(3.7)), 3.7),
    (lambda: check_axioms([[0, 1.5], [1, 1]], [[0, 0], [0, 1]]), 1.5),
], ids=["float-pick", "str-pick", "bool-pick", "float-pair", "float-table-entry", "float-axiom-entry"])
def test_non_integer_element_values_are_rejected_not_coerced(build, value):
    # int() used to read 3.9 as 3, "3" as 3 and True as 1
    with pytest.raises(RangeError, match=re.escape(repr(value))):
        build()


def random_table(rng, n):
    """Random entries, made symmetric and made idempotent each with chance one half."""
    t = [[rng.randrange(n) for _ in range(n)] for _ in range(n)]
    if rng.random() < 0.5:
        for x in range(n):
            for y in range(x):
                t[x][y] = t[y][x]
    if rng.random() < 0.5:
        for x in range(n):
            t[x][x] = x
    return t


def test_check_axioms_matches_oracle(fixtures, completions_upto5):
    # verdict, least witness and note of each identity against the set-based
    # oracle; the completions and fixtures pass every identity, and the
    # seeded random tables fail with each of the six notes
    rng = random.Random(0)
    tables = [(ll.join_table, ll.meet_table) for ll in completions_upto5]
    tables += [(ll.join_table, ll.meet_table) for ll in fixtures.values()]
    for _ in range(200):
        n = rng.randrange(1, 5)
        tables.append((random_table(rng, n), random_table(rng, n)))
    notes = set()
    for jt, mt in tables:
        report = check_axioms(jt, mt)
        verdicts = (report.commutativity, report.weak_associativity, report.absorption)
        got = tuple(None if v == HOLDS else (v.witness, v.note) for v in verdicts)
        assert got == axiom_failures_naive(len(jt), jt, mt), (jt, mt)
        notes.update(v.note for v in verdicts if not v.holds)
    assert len(notes) == 6, notes


def test_from_choice_fig3():
    p = fixture_poset("FIG3")
    ll = from_choice(p, ChoiceSpec(joins={(1, 2): 3}, meets={(3, 4): 1}))
    assert ll == fixture("FIG3")
    # the omitted pairs were forced: join(c, d) = 1, meet(a, b) = 0
    assert ll.join_table[3][4] == 5
    assert ll.meet_table[1][2] == 0


def test_from_choice_fig5_nonmaximal_meet():
    p = fixture_poset("FIG5")
    spec = ChoiceSpec(joins={(2, 3): 5, (3, 4): 5}, meets={(2, 3): 1, (3, 4): 0})
    ll = from_choice(p, spec)
    assert ll == fixture("FIG5")
    assert ll.meet_table[3][4] == 0  # legal although a is a greater lower bound


def test_from_choice_chain_no_pairs():
    chain = Poset.from_covers(3, [(0, 1), (1, 2)])
    ll = from_choice(chain)
    assert is_lattice(ll)
    assert ll.join_table[0][2] == 2 and ll.meet_table[0][2] == 0


def test_from_choice_not_directed():
    with pytest.raises(NotDirectedError):
        from_choice(Poset([[1, 0], [0, 1]]))


def test_from_choice_bad_value():
    p = fixture_poset("FIG3")
    with pytest.raises(BadChoiceError) as err:
        from_choice(p, ChoiceSpec(joins={(1, 2): 2}))  # b is not above a
    assert err.value.pair == (1, 2)


def test_from_choice_comparable_pair_rejected():
    p = fixture_poset("FIG3")
    with pytest.raises(BadChoiceError):
        from_choice(p, ChoiceSpec(joins={(0, 1): 1}))


def test_from_choice_incomplete():
    p = fixture_poset("FIG3")
    with pytest.raises(IncompleteChoiceError) as err:
        from_choice(p, ChoiceSpec(meets={(3, 4): 1}))  # join(a, b) has no unique minimal bound
    assert (1, 2) in err.value.pairs
    with pytest.raises(IncompleteChoiceError):
        from_choice(p)  # join(a, b) has two minimal upper bounds, so no forced value


def test_acute_fig3():
    ll = acute(fixture_poset("FIG3"))
    assert ll == fixture("ACUTE-FIG3")
    assert ll.join_table[1][2] == 5 and ll.meet_table[3][4] == 0


def test_lambda_lattice_repr_lists_the_join_picks_by_label():
    assert repr(fixture("FIG3")) == "LambdaLattice(n=6, joins=[avb=c, cvd=1])"


def test_acute_chain_unchanged():
    chain = Poset.from_covers(4, [(0, 1), (1, 2), (2, 3)])
    assert acute(chain) == from_choice(chain)


def test_acute_mk_is_its_own_lattice():
    for k in (1, 2, 3, 4):
        p = mk_poset(k)
        assert acute(p) == from_choice(p)  # sup/inf of distinct atoms are the bounds


def test_acute_needs_bounds():
    with pytest.raises(UnboundedError):
        acute(Poset([[1, 0], [0, 1]]))


def test_acute_equals_constant_choice(fixtures):
    p = fixture_poset("FIG2")
    spec = ChoiceSpec(
        joins={pair: 6 for pair in p.incomparable_pairs},
        meets={pair: 0 for pair in p.incomparable_pairs},
    )
    assert acute(p) == from_choice(p, spec)


def test_acute_tables_match_the_acute_fill_on_bounded_posets_up_to_5():
    # acute builds its tables trusted; the validating from_choice path must agree
    posets = 0
    for p in enumerate_posets(EnumerationFilter(max_elements=5, require_bounded=True)):
        pairs = p.incomparable_pairs
        spec = ChoiceSpec(dict.fromkeys(pairs, p.top), dict.fromkeys(pairs, p.bottom))
        ll, ref = acute(p), from_choice(p, spec)
        assert (ll.join_table, ll.meet_table) == (ref.join_table, ref.meet_table), p
        posets += 1
    assert posets == 425


def test_idempotency_fixtures(fixtures):
    for name, ll in fixtures.items():
        assert idempotency_holds(ll), name


def test_is_lattice_fig2_false():
    # U(a, b) has two minimal elements d, e: no least upper bound exists
    assert not is_lattice(fixture("FIG2"))


def _is_lattice_oracle(ll):
    n = ll.n
    rel = relation_from_covers(n, ll.poset.covers)
    return is_lattice_naive(n, rel, [list(r) for r in ll.join_table],
                            [list(r) for r in ll.meet_table])


def test_is_lattice_matches_oracle_on_fixtures(fixtures):
    assert len(fixtures) == 7
    for name, ll in fixtures.items():
        assert is_lattice(ll) == _is_lattice_oracle(ll), name


def test_is_lattice_matches_oracle_on_small_completions(completions_upto6):
    # every completion at n <= 6: the 545 at n <= 5 and the 19 410 at n = 6
    verdicts = []
    for ll in completions_upto6:
        verdicts.append(is_lattice(ll))
        assert verdicts[-1] == _is_lattice_oracle(ll), ll.encoding()
    assert 0 < verdicts.count(True) < len(verdicts)


def test_is_lattice_agrees_with_the_unforced_picks(fixtures, completions_upto6):
    # is_lattice tests _unforced's rule in its own loop, so the two readers
    # of the rule must agree; pairs whose join is forced and meet is not,
    # and the reverse, show that each side is read
    meet_only = join_only = 0  # completions holding such a pair
    for ll in completions_upto6 + list(fixtures.values()):
        picks = list(_unforced(ll))
        assert is_lattice(ll) == (not picks), ll.encoding()
        joins = {(x, y) for op, x, y, _ in picks if op == "join"}
        meets = {(x, y) for op, x, y, _ in picks if op == "meet"}
        meet_only += bool(meets - joins)
        join_only += bool(joins - meets)
    assert (meet_only, join_only) == (7567, 7566)


def test_is_lattice_boolean_true():
    ll = boolean_2x2()
    assert is_lattice(ll) and is_monotone(ll)


def test_is_monotone_fig5_false():
    assert not is_monotone(fixture("FIG5"))


def test_modularity_distributivity():
    assert not is_modular(fixture("FIG3"))  # modularity would force a lattice
    m3 = from_choice(mk_poset(3))
    assert is_modular(m3) and not is_distributive(m3)
    ll = boolean_2x2()
    assert is_modular(ll) and is_distributive(ll)


def test_distributive_implies_modular_on_every_completion_up_to_6(fixtures, completions_upto6):
    # with x <= z the second distributive law reads x v (y ^ z) = (x v y) ^ z,
    # so MODLAT needs no distributivity check once modularity has failed
    instances = completions_upto6 + list(fixtures.values())
    distributive = [ll for ll in instances if is_distributive(ll)]
    assert all(is_modular(ll) for ll in distributive)
    assert (len(instances), len(distributive)) == (19962, 2805)


def test_convex_closed_subsets_fig2():
    ll = fixture("FIG2")
    subsets = list(convex_closed_subsets(ll))
    full = frozenset(range(7))
    assert full in subsets
    for x in range(7):
        assert frozenset({x}) in subsets
    assert frozenset({0, 1, 2, 4}) in subsets  # join(a, b) = d keeps it closed
    assert frozenset({0, 4}) not in subsets  # not convex


def test_convex_closed_subsets_match_oracle(fixtures, completions_upto5):
    # same subsets in the same order as a scan of every subset that tests
    # closure on every pair and convexity from the between-sets
    for ll in completions_upto5 + list(fixtures.values()):
        rel = relation_from_covers(ll.n, ll.poset.covers)
        expected = convex_closed_subsets_naive(ll.n, rel, ll.join_table, ll.meet_table)
        assert list(convex_closed_subsets(ll)) == expected, ll.encoding()


def test_convex_closed_restriction_is_lambda_lattice():
    ll = fixture("FIG2")
    sub = ll.restrict({0, 1, 2, 4})
    assert sub.n == 4
    assert check_axioms(sub.join_table, sub.meet_table).all_pass


def test_restrict_matches_validated_construction(completions_upto5):
    # restrict builds trusted tables; the validating constructor must accept
    # them and give the same instance on every convex closed subset
    subsets = 0
    for ll in completions_upto5:
        for s in convex_closed_subsets(ll):
            elems = sorted(s)
            jt = [[elems.index(ll.join_table[x][y]) for y in elems] for x in elems]
            mt = [[elems.index(ll.meet_table[x][y]) for y in elems] for x in elems]
            expected = LambdaLattice(ll.poset.restrict(elems), jt, mt)
            assert ll.restrict(s) == expected, (ll.encoding(), elems)
            subsets += 1
    assert subsets > len(completions_upto5)


def test_restrict_requires_closure():
    ll = fixture("FIG2")
    with pytest.raises(ValueError):
        ll.restrict({1, 2})  # join(a, b) = d escapes


def test_restrict_requires_meet_closure_too():
    ll = fixture("FIG2")
    with pytest.raises(ValueError, match="not closed"):
        ll.restrict({1, 2, 4})  # joins stay inside, meet(a, b) = 0 escapes


def test_restrict_and_forced_bounds_reject_bad_indices():
    ll = fixture("FIG3")
    for subset in ([6], [-1], [0, 6], [0, "a"], [1, True]):
        for restrict in (ll.restrict, ll.poset.restrict):
            with pytest.raises(RangeError):
                restrict(subset)
    for forced in (forced_join, forced_meet):
        for x, y in ((-1, 0), (6, 0), (0, -1), (0, 6)):
            with pytest.raises(RangeError):
                forced(ll.poset, x, y)


def test_join_and_meet_read_the_tables_and_reject_bad_indices(fixtures):
    for name, ll in fixtures.items():
        n = ll.n
        for x in range(n):
            for y in range(n):
                assert ll.join(x, y) == ll.join_table[x][y], (name, x, y)
                assert ll.meet(x, y) == ll.meet_table[x][y], (name, x, y)
        for op in (ll.join, ll.meet):
            for x, y in ((-1, 0), (n, 0), (0, -1), (0, n), (True, 0)):
                with pytest.raises(RangeError):
                    op(x, y)


def test_lambda_lattice_validates_tables():
    p = Poset.from_covers(2, [(0, 1)])
    with pytest.raises(BadChoiceError):
        LambdaLattice(p, [[0, 0], [0, 1]], [[0, 0], [0, 1]])  # join(0,1) must be 1
    with pytest.raises(ValueError):
        LambdaLattice(p, [[0, 1], [0, 1]], [[0, 0], [0, 1]])  # asymmetric join


def test_lattice_isomorphism():
    fig5 = fixture("FIG5")
    perm = [5, 4, 3, 2, 1, 0]
    assert fig5.is_isomorphic(fig5.relabel(perm))
    assert not fig5.is_isomorphic(fixture("FIG3"))
    # same poset, different choice: not isomorphic as algebras
    p = fixture_poset("FIG5")
    other = from_choice(p, ChoiceSpec(joins={(2, 3): 5, (3, 4): 5}, meets={(2, 3): 1, (3, 4): 1}))
    assert not fig5.is_isomorphic(other)


def test_lattice_is_isomorphic_matches_naive_oracle_up_to_4():
    lls = [ll for p in enumerate_posets(EnumerationFilter(max_elements=4, require_bounded=True))
           for ll in enumerate_completions(p)]
    inst = [(ll.n, relation_from_covers(ll.n, ll.poset.covers), ll.join_table, ll.meet_table)
            for ll in lls]
    pairs = [(i, j) for i, a in enumerate(lls) for j, b in enumerate(lls) if a.n == b.n]
    assert len(pairs) == 1337
    got = [lls[i].is_isomorphic(lls[j]) for i, j in pairs]
    assert got == [isomorphic_naive(inst[i], inst[j]) for i, j in pairs]
    assert 0 < sum(got) < len(got)


# ----- construction invariants over random completions -----

@st.composite
def random_completion(draw):
    posets = [
        p for p in enumerate_posets(EnumerationFilter(max_elements=4, require_bounded=True))
    ]
    p = draw(st.sampled_from(posets))
    joins, meets = {}, {}
    for x, y in p.incomparable_pairs:
        joins[(x, y)] = draw(st.sampled_from(sorted(p.upper_bounds(x, y))))
        meets[(x, y)] = draw(st.sampled_from(sorted(p.lower_bounds(x, y))))
    return from_choice(p, ChoiceSpec(joins, meets))


@given(random_completion())
@settings(max_examples=150)
def test_completion_satisfies_axioms_and_order(ll):
    assert check_axioms(ll.join_table, ll.meet_table).all_pass
    assert idempotency_holds(ll)
    p = ll.poset
    for x in range(p.n):
        for y in range(p.n):
            assert (ll.join_table[x][y] == y) == p.leq(x, y)
            assert (ll.meet_table[x][y] == x) == p.leq(x, y)
