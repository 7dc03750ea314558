"""Acceptance suite: one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v` (add -s to see the
per-criterion lines as they pass).
"""

import json
import time

from lamlat import (
    EnumerationFilter,
    check_axioms,
    classify,
    enumerate_completions,
    enumerate_posets,
    is_distributive,
    is_lattice,
    is_modular,
    is_monotone,
    is_semimodular,
    lemma1_refutes,
    satisfies_lcc,
    satisfies_wlcc,
    verify,
    violates,
)
from lamlat.cli import main
from lamlat.fixtures import fixture, fixture_poset

from oracles import all_labeled_posets_naive


def _ok(k, name):
    print(f"ACCEPTANCE {k} ({name}): PASS")


def test_criterion_1_summary_table(capsys):
    start = time.perf_counter()
    assert main(["table", "--json"]) == 0
    elapsed = time.perf_counter() - start
    rows = json.loads(capsys.readouterr().out)["rows"]
    assert rows == [
        {"sm": True, "wlcc": True, "lcc": True, "instances": ["FIG3", "FIG4"]},
        {"sm": True, "wlcc": True, "lcc": False, "instances": ["ACUTE-FIG3"]},
        {"sm": True, "wlcc": False, "lcc": False, "instances": ["FIG5"]},
        {"sm": False, "wlcc": True, "lcc": True, "instances": ["FIG2"]},
        {"sm": False, "wlcc": True, "lcc": False, "instances": ["FIG2-VARIANT"]},
        {"sm": False, "wlcc": False, "lcc": False, "instances": ["FIG6"]},
    ]
    assert elapsed < 1.0, f"table took {elapsed:.2f}s"
    with capsys.disabled():
        _ok(1, "summary-table reproduction")


def test_criterion_2_witness_fidelity(capsys):
    # FIG2 semimodularity failure: (a v c) ^ d = e ^ d = b != a
    fig2 = fixture("FIG2")
    a, b, c, d, e = 1, 2, 3, 4, 5
    v = is_semimodular(fig2)
    assert not v.holds and v.witness == (d, c, a)
    assert fig2.join_table[a][c] == e
    assert fig2.meet_table[e][d] == b
    assert b != a
    p = fig2.poset
    # c is the only element u with 0 < u <= c
    assert [u for u in range(7) if p.lt(0, u) and p.leq(u, c)] == [c]

    # FIG2-VARIANT lower covering failure on the pair {a, b}: meet is 0,
    # 0 -< each of a, b, the join is 1, and neither a nor b is covered by 1
    var = fixture("FIG2-VARIANT")
    w = satisfies_lcc(var)
    assert not w.holds and w.witness == (a, b)
    assert var.meet_table[a][b] == 0 and var.join_table[a][b] == 6
    assert var.poset.is_cover(0, a) and not var.poset.is_cover(b, 6)
    # quoted orientation b ^ a = 0 -< b with a not -< 1 violates as well
    assert var.poset.is_cover(0, b) and not var.poset.is_cover(a, 6)

    # FIG5 weak lower covering failure: b ^ c = a -< c -< 1 = b v c, b not -< 1
    fig5 = fixture("FIG5")
    fa, fb, fc = 1, 2, 3
    v5 = satisfies_wlcc(fig5)
    assert not v5.holds and v5.witness == (fc, fb)
    assert fig5.meet_table[fc][fb] == fa
    assert fig5.poset.is_cover(fa, fc)
    assert fig5.join_table[fc][fb] == 5
    assert fig5.poset.is_cover(fc, 5) and not fig5.poset.is_cover(fb, 5)

    # FIG6 failures as quoted: (a v c) ^ b = d ^ b = b != a, and
    # c ^ a = 0 -< c -< d = c v a with a not -< d
    fig6 = fixture("FIG6")
    ga, gb, gc, gd = 1, 2, 3, 4
    v6 = is_semimodular(fig6)
    assert not v6.holds and v6.witness == (gb, gc, ga)
    assert fig6.join_table[ga][gc] == gd and fig6.meet_table[gd][gb] == gb
    w6 = satisfies_wlcc(fig6)
    assert not w6.holds and w6.witness == (gc, ga)
    assert fig6.meet_table[gc][ga] == 0
    assert fig6.poset.is_cover(0, gc) and fig6.poset.is_cover(gc, gd)
    assert not fig6.poset.is_cover(ga, gd)
    with capsys.disabled():
        _ok(2, "witness fidelity")


def test_criterion_3_construction_soundness(capsys):
    posets = completions = failures = 0
    for p in enumerate_posets(EnumerationFilter(max_elements=5, require_bounded=True)):
        posets += 1
        for ll in enumerate_completions(p):
            completions += 1
            if not check_axioms(ll.join_table, ll.meet_table).all_pass:
                failures += 1
    assert posets == 425 and completions > posets
    assert failures == 0
    with capsys.disabled():
        _ok(3, f"construction soundness: {completions} completions, 0 axiom failures")


def test_criterion_4_theorem_suite(capsys, default_run):
    # every id's default range is the one this criterion names
    lattice_level = ["TH1", "TH2", "LEM1", "LEM2", "HEIGHT", "MONO", "MODLAT"]
    poset_level = ["CHAINS", "ACUTE", "COR1"]
    with capsys.disabled():
        for tid in lattice_level:
            r = default_run(tid)
            assert r.max_elements == 5, tid
            assert r.counterexample is None, tid
            print(f"  verify({tid}) n<=5: counterexample=none "
                  f"({r.posets_checked} posets, {r.lattices_checked} completions)")
        for tid in poset_level:
            r = default_run(tid)
            assert r.max_elements == 6, tid
            assert r.counterexample is None, tid
            print(f"  verify({tid}) n<=6: counterexample=none ({r.posets_checked} posets)")
        _ok(4, "theorem suite clean")


def test_criterion_5_mutation_sensitivity(capsys):
    r = verify("TH1_NO_COND3", collect_all=True)
    assert r.counterexample is not None
    assert all(ce.validate() for ce in r.all_counterexamples[:5])
    fig5 = fixture("FIG5")
    assert any(
        ce.lattice is not None and ce.lattice.is_isomorphic(fig5)
        for ce in r.all_counterexamples
    ), "FIG5 must surface as a counterexample once cond3 is dropped"
    assert violates("TH1_NO_COND3", fig5) is not None

    r2 = verify("TH1_LCC_CONCLUSION", collect_all=True)
    assert r2.counterexample is not None
    acute_like = [
        ce for ce in r2.all_counterexamples
        if ce.lattice is not None and classify(ce.lattice).row() == (True, True, False)
    ]
    assert acute_like, "instances with the ACUTE-FIG3 profile must witness the failure"
    with capsys.disabled():
        _ok(5, f"mutation sensitivity: {len(r.all_counterexamples)} + "
               f"{len(r2.all_counterexamples)} counterexamples")


def test_criterion_6_enumeration_oracle(capsys):
    expected = [1, 3, 19, 219]
    naive = [len(all_labeled_posets_naive(n)) for n in range(1, 5)]
    assert naive == expected
    counts = {}
    for p in enumerate_posets(EnumerationFilter(max_elements=4)):
        counts[p.n] = counts.get(p.n, 0) + 1
    assert [counts[n] for n in range(1, 5)] == expected
    with capsys.disabled():
        _ok(6, "enumeration agrees with the naive relation-filter oracle")


def test_criterion_7_structural_equivalences(capsys):
    checked = 0
    for p in enumerate_posets(EnumerationFilter(max_elements=5, require_bounded=True)):
        for ll in enumerate_completions(p):
            checked += 1
            lat = is_lattice(ll)
            assert is_monotone(ll) == lat
            if is_modular(ll):
                assert lat
            if is_distributive(ll):
                assert lat
            if satisfies_lcc(ll).holds:
                assert satisfies_wlcc(ll).holds
            if lemma1_refutes(ll) is not None:
                assert not is_semimodular(ll).holds
    assert checked == 545
    with capsys.disabled():
        _ok(7, f"structural equivalences on {checked} instances, zero exceptions")


def test_criterion_8_chain_theorem(capsys):
    fig2 = fixture_poset("FIG2")
    assert fig2.has_lu_covering().holds
    for a in range(fig2.n):
        lengths = {ch.length for ch in fig2.maximal_chains_to_top(a)}
        assert len(lengths) == 1, f"unequal chain lengths from {fig2.label(a)}"

    fig5 = fixture_poset("FIG5")
    lengths = sorted(ch.length for ch in fig5.maximal_chains_to_top(0))
    assert lengths == [3, 4]
    assert not fig5.has_lu_covering().holds
    with capsys.disabled():
        _ok(8, "chain theorem: FIG2 equal lengths, FIG5 unequal and fails LU")
