import hashlib
import json
from itertools import chain

import pytest

from lamlat import (
    AcuteClause,
    ChoiceSpec,
    EnumerationFilter,
    Poset,
    UnboundedError,
    Verdict,
    acute,
    acute_characterization,
    classify,
    cond3,
    cond4,
    cond5,
    dcc,
    enumerate_completions,
    enumerate_posets,
    from_choice,
    height_inequality,
    is_distributive,
    is_lattice,
    is_modular,
    is_monotone,
    is_semimodular,
    lemma1_refutes,
    mk_isomorphic,
    mk_poset,
    monotone_wedge,
    satisfies_lcc,
    satisfies_wlcc,
)
from lamlat.fixtures import fixture, fixture_poset
from oracles import (
    cond3_witness,
    cond4_witness,
    cond5_witness,
    cover_relation,
    height_witness,
    is_distributive_naive,
    is_modular_naive,
    is_monotone_naive,
    lcc_witness,
    lemma1_quadruple,
    mk_size,
    monotone_wedge_witness,
    relation_from_covers,
    semimodular_witness,
    wlcc_witness,
)


def chain_lattice(n):
    return from_choice(Poset.from_covers(n, [(i, i + 1) for i in range(n - 1)]))


# ----- semimodularity -----

def test_semimodular_fig2_witness():
    v = is_semimodular(fixture("FIG2"))
    assert not v.holds
    # d || c, 0 < a < d; the only u with 0 < u <= c is c itself and
    # (a v c) ^ d = e ^ d = b != a
    assert v.witness == (4, 3, 1)


def test_semimodular_fig5_true():
    assert is_semimodular(fixture("FIG5")).holds


def test_semimodular_chain_vacuous():
    assert is_semimodular(chain_lattice(4)).holds


def test_semimodular_fig6_witness():
    v = is_semimodular(fixture("FIG6"))
    assert not v.holds
    assert v.witness == (2, 3, 1)  # b || c, 0 < a < b, (a v c) ^ b = d ^ b = b


# ----- refutation quadruples -----

def test_lemma1_fig2():
    ll = fixture("FIG2")
    quad = lemma1_refutes(ll)
    assert quad == (4, 3, 1, 2)  # x=d, y=c, c=a, d=b: a v c = e = b v c
    assert not is_semimodular(ll).holds


def test_lemma1_fig3_none():
    assert lemma1_refutes(fixture("FIG3")) is None


def test_lemma1_chain_none():
    assert lemma1_refutes(chain_lattice(5)) is None


# ----- covering conditions -----

def test_wlcc_lcc_fig2():
    ll = fixture("FIG2")
    assert satisfies_wlcc(ll).holds
    assert satisfies_lcc(ll).holds


def test_variant_lcc_fails_wlcc_holds():
    ll = fixture("FIG2-VARIANT")
    assert satisfies_wlcc(ll).holds
    v = satisfies_lcc(ll)
    assert not v.holds
    # both orientations of the pair {a, b} violate; the scan reports (a, b)
    assert v.witness == (1, 2)


def test_fig5_wlcc_witness():
    v = satisfies_wlcc(fixture("FIG5"))
    assert not v.holds
    assert v.witness == (3, 2)  # b ^ c = a -< c -< 1 = b v c but b not -< 1


def test_fig6_wlcc_witness():
    v = satisfies_wlcc(fixture("FIG6"))
    assert not v.holds
    assert v.witness == (3, 1)  # c ^ a = 0 -< c -< d = c v a but a not -< d


def test_covering_conditions_on_chain():
    ll = chain_lattice(4)
    assert satisfies_wlcc(ll).holds
    assert satisfies_lcc(ll).holds


# ----- side conditions -----

def test_cond3_fig2_true():
    assert cond3(fixture("FIG2")).holds


def test_cond3_fig5_fails():
    v = cond3(fixture("FIG5"))
    assert not v.holds
    assert v.witness == (3, 2, 4)  # c || b, c || d, b < d but c^b = a not <= 0 = c^d


def test_cond4_cond5_fig3():
    assert cond4(fixture("FIG3")).holds
    assert cond5(fixture("FIG3")).holds


def test_cond3_and_cond4_agree_on_every_completion_up_to_6(bounded_upto6):
    # on a finite carrier a saturated chain from y up to z stays incomparable
    # to x, so cond4 applied cover by cover gives cond3 and the verdicts agree;
    # the least witnesses agree as well on every completion here
    completions = failures = 0
    for p in bounded_upto6:
        for ll in enumerate_completions(p):
            completions += 1
            v = cond3(ll)
            assert v == cond4(ll), ll.encoding()
            failures += not v.holds
    assert (completions, failures) == (19955, 720)


def test_dcc_constant_true(fixtures):
    for ll in fixtures.values():
        v = dcc(ll)
        assert v.holds and v.note


# ----- heights -----

def test_height_inequality_fig2():
    assert height_inequality(fixture("FIG2")).holds


def test_height_inequality_comparable_pairs():
    ll = fixture("FIG4")
    p = ll.poset
    h = p.heights
    for a in range(p.n):
        for b in range(p.n):
            if p.leq(a, b):
                assert h[b] - h[a] <= abs(h[a] - h[b]) + 2


def test_height_inequality_fig4_pair():
    ll = fixture("FIG4")
    p = ll.poset
    d, e = 4, 5
    m, j = ll.meet_table[d][e], ll.join_table[d][e]
    assert m == 2 and j == 8  # d ^ e = b, d v e = h
    assert p.is_cover(m, d)  # pair qualifies for the scan
    assert p.heights[j] - p.heights[m] <= abs(p.heights[d] - p.heights[e]) + 2
    assert height_inequality(ll).holds


def test_height_inequality_pair_qualified_by_b_only():
    ll = height_qualified_by_b_only()
    assert ll.meet_table[2][3] == 5 and ll.poset.is_cover(5, 3) and not ll.poset.is_cover(5, 2)
    v = height_inequality(ll)
    assert v.witness == (2, 3)
    assert v.note == "h(a)=2 h(b)=1 h(join)=4 h(meet)=0"


def test_height_inequality_needs_bounds():
    # completions always have bounds; exercise the guard via a raw table
    p = Poset([[1, 0], [0, 1]])
    with pytest.raises(UnboundedError):
        p.heights  # noqa: B018


# ----- meet monotonicity -----

def test_monotone_wedge_fig2():
    v = monotone_wedge(fixture("FIG2"))
    assert not v.holds
    assert v.witness == (1, 4, 5)  # a <= d but a ^ e = a not <= b = d ^ e


def test_monotone_wedge_lattice():
    assert monotone_wedge(chain_lattice(3)).holds
    assert monotone_wedge(from_choice(mk_poset(3))).holds


def test_monotone_wedge_fig3():
    v = monotone_wedge(fixture("FIG3"))
    assert not v.holds
    assert v.witness == (2, 3, 4)  # b <= c but b ^ d = b not <= a = c ^ d


# ----- acute characterization -----

def test_acute_characterization_fig3_fails():
    char = acute_characterization(fixture_poset("FIG3"))
    assert char.clause is AcuteClause.FAILS
    assert char.atoms == {1, 2}
    assert not satisfies_lcc(fixture("ACUTE-FIG3")).holds


def test_acute_characterization_mk():
    char = acute_characterization(mk_poset(3))
    assert char.clause is AcuteClause.ISO_TO_MK
    assert char.k == 3


def test_acute_characterization_chain():
    char = acute_characterization(Poset.from_covers(4, [(0, 1), (1, 2), (2, 3)]))
    assert char.clause is AcuteClause.UNIQUE_ATOM_BELOW_ALL


def test_acute_characterization_singleton():
    char = acute_characterization(Poset([[1]]))
    assert char.clause is AcuteClause.NO_ATOMS


def test_acute_characterization_needs_bounds():
    with pytest.raises(UnboundedError):
        acute_characterization(Poset([[1, 0], [0, 1]]))


def test_acute_characterizations_are_shared_records(bounded_upto6):
    # one frozen record per (atoms, coatoms) pair, and one frozenset per mask
    records, sets = {}, {}
    for p in bounded_upto6:
        char = acute_characterization(p)
        assert records.setdefault((char.atoms, char.coatoms), char) is char, p
        for members in (char.atoms, char.coatoms):
            assert sets.setdefault(members, members) is members, p
        assert char._masks == (sum(1 << a for a in p.atoms()), sum(1 << c for c in p.coatoms())), p
    assert len(records) == 1055
    assert acute_characterization(mk_poset(3)) is acute_characterization(mk_poset(3))


def test_the_acute_path_on_the_bounded_posets_up_to_6_matches_its_pinned_digest():
    # the sha256, over every bounded poset with at most 6 elements fresh from
    # the stream, of acute(p)'s tables, the three incomparability facts its
    # pass stores on p, satisfies_lcc of it and acute_characterization(p);
    # taken before the pass wrote the acute picks and records were shared
    facts = ("_incomparable", "_incomparable_cells", "incomparable_pairs")
    h, total = hashlib.sha256(), 0
    for p in enumerate_posets(EnumerationFilter(max_elements=6, require_bounded=True)):
        ll = acute(p)
        stored = vars(p)  # a key error if acute left a fact to a later read
        h.update(bytes((p.n, *chain.from_iterable(ll.join_table + ll.meet_table))))
        h.update(repr([stored[name] for name in facts]).encode())
        h.update(json.dumps(satisfies_lcc(ll).to_dict()).encode())
        h.update(json.dumps(acute_characterization(p).to_dict()).encode())
        total += 1
    assert total == 6995
    assert h.hexdigest() == "0e9da7475e7c326596c965dcc12eb20c585a02d1b4913b71b0c86fe5f60ec48e"


def test_acute_characterization_matches_lcc_of_acute():
    for name in ("FIG2", "FIG3", "FIG4", "FIG5", "FIG6"):
        p = fixture_poset(name)
        clause = acute_characterization(p).clause
        assert (clause is not AcuteClause.FAILS) == satisfies_lcc(acute(p)).holds


def test_mk_isomorphic():
    assert mk_isomorphic(mk_poset(2)) == 2
    assert mk_isomorphic(mk_poset(4)) == 4
    assert mk_isomorphic(mk_poset(1)) is None  # a chain is not an Mk
    assert mk_isomorphic(fixture_poset("FIG3")) is None


def _relation(p):
    return {(a, b) for a, row in enumerate(p._up) for b in range(p.n) if row >> b & 1}


def test_mk_isomorphic_matches_oracle_on_labeled_posets_up_to_6():
    # an M_k has 3n - 3 comparable pairs (n reflexive, the bottom below the
    # n - 1 others, the middle below the top): any other count is no M_k
    found = 0
    for p in enumerate_posets(EnumerationFilter(max_elements=6)):
        k = mk_isomorphic(p)
        if sum(row.bit_count() for row in p._up) != 3 * p.n - 3:
            assert k is None, p
            continue
        assert k == mk_size(p.n, _relation(p)), p
        found += k is not None
    assert found == 12 + 20 + 30  # a bottom and a top picked from n labels, n = 4, 5, 6


def test_acute_characterization_matches_oracle_up_to_6(bounded_upto6, fixtures):
    posets = [*bounded_upto6, *(ll.poset for ll in fixtures.values()), mk_poset(5)]
    for p in posets:
        rel = _relation(p)
        bottom = next(b for b in range(p.n) if all((b, j) in rel for j in range(p.n)))
        atoms = {a for b, a in cover_relation(p.n, rel) if b == bottom}
        k = mk_size(p.n, rel)
        if p.n == 1:
            want = AcuteClause.NO_ATOMS
        elif len(atoms) == 1:
            want = AcuteClause.UNIQUE_ATOM_BELOW_ALL
        else:
            want = AcuteClause.FAILS if k is None else AcuteClause.ISO_TO_MK
        char = acute_characterization(p)
        assert (char.clause, char.k, char.atoms) == (want, k, atoms), p


# ----- aggregate -----

def test_classify_rows(fixtures):
    assert classify(fixtures["FIG3"]).row() == (True, True, True)
    assert classify(fixtures["ACUTE-FIG3"]).row() == (True, True, False)
    assert classify(fixtures["FIG6"]).row() == (False, False, False)


def test_classify_report_consistency(fixtures):
    for name, ll in fixtures.items():
        report = classify(ll)
        if report.lcc.holds:
            assert report.wlcc.holds, name
        assert report.dcc.holds, name
        for verdict in (report.semimodular, report.wlcc, report.lcc):
            assert verdict.holds == (verdict.witness is None), name


# ----- differential check against set-based oracles -----

ORACLES = (
    (is_semimodular, semimodular_witness),
    (lemma1_refutes, lemma1_quadruple),
    (cond3, cond3_witness),
    (cond4, cond4_witness),
    (satisfies_wlcc, wlcc_witness),
    (satisfies_lcc, lcc_witness),
    (cond5, cond5_witness),
    (height_inequality, height_witness),
    (monotone_wedge, monotone_wedge_witness),
    (is_monotone, is_monotone_naive),
    (is_modular, is_modular_naive),
    (is_distributive, is_distributive_naive),
)


def height_qualified_by_b_only():
    # a pentagon 5 < 4 < 2 < 1, 5 < 3 < 1 under an extra top 0, completed with
    # the top as join and the bottom as meet: the least height-inequality
    # witness is (2, 3), where 2 ^ 3 = 5 is covered by 3 but not by 2; no
    # completion with n <= 5 and no fixture has a pair that qualifies this way
    p = Poset.from_covers(6, [(1, 0), (2, 1), (3, 1), (4, 2), (5, 3), (5, 4)])
    pairs = ((2, 3), (3, 4))
    return from_choice(p, ChoiceSpec({xy: 0 for xy in pairs}, {xy: 5 for xy in pairs}))


def test_checkers_match_oracles_on_small_completions_and_fixtures(fixtures, completions_upto5):
    # verdict and least witness of each checker (truth value of each lattice
    # predicate) on every completion at n <= 5; the oracles scan every cell,
    # comparable ones included; cond3, cond4 and lemma1_refutes never fail
    # there, so the fixtures (FIG2, FIG4, FIG5) supply their failing direction
    instances = completions_upto5 + list(fixtures.values()) + [height_qualified_by_b_only()]
    failing = {checker.__name__: 0 for checker, _ in ORACLES}
    for ll in instances:
        n = ll.n
        rel = relation_from_covers(n, ll.poset.covers)
        jt, mt = [list(r) for r in ll.join_table], [list(r) for r in ll.meet_table]
        for checker, oracle in ORACLES:
            got = checker(ll)
            if isinstance(got, Verdict):
                assert (got.witness is None) == got.holds
                got = got.witness
            assert got == oracle(n, rel, jt, mt), (checker.__name__, ll.encoding())
            failing[checker.__name__] += got not in (None, True)  # a witness, or False
    assert all(0 < k < len(instances) for k in failing.values()), failing


def test_is_semimodular_matches_oracle_on_every_completion_with_6_elements(completions_upto6):
    # the n <= 5 check above, carried to the 19 410 completions at n = 6 for
    # the checker that is the hypothesis of TH1, TH2, LEM1 and LEM2
    instances = [ll for ll in completions_upto6 if ll.n == 6]
    failing = 0
    for ll in instances:
        rel = relation_from_covers(6, ll.poset.covers)
        got = is_semimodular(ll)
        assert (got.witness is None) == got.holds
        assert got.witness == semimodular_witness(6, rel, [list(r) for r in ll.join_table],
                                                  [list(r) for r in ll.meet_table]), ll.encoding()
        failing += not got.holds
    assert (len(instances), failing) == (19410, 9360)


def test_every_checker_result_on_the_completions_up_to_6_matches_its_pinned_digest(
        bounded_upto6, completions_upto6):
    # the sha256 of each checker's verdict dict (witness and note included),
    # lemma1_refutes' quadruple and the lattice predicates, taken over the
    # 19 955 completions before failing verdicts were shared and _bits became a table
    verdicts = (is_semimodular, cond3, cond4, cond5, satisfies_wlcc, satisfies_lcc,
                height_inequality, monotone_wedge)
    h = hashlib.sha256()
    for ll in completions_upto6:
        for checker in verdicts:
            h.update(json.dumps(checker(ll).to_dict()).encode())
        h.update(repr((lemma1_refutes(ll), is_lattice(ll), is_monotone(ll), is_modular(ll))).encode())
    assert h.hexdigest() == "11188f1ca4892975d11ff906074cef17e5c20daf3cbb881d03be70ff56cad1bd"
    h = hashlib.sha256()
    for p in bounded_upto6:
        h.update(json.dumps(p.has_lu_covering().to_dict()).encode())
    assert h.hexdigest() == "caf597a61eb4dc2e011f96be9030c20ff28e2764412337f514cb286ec43046a5"
