"""The benchmark tracer (bench/tracing.py) rebinds lamlat's module and class
attributes to timing wrappers. lamlat must keep calling through those
attributes, traced runs must give the untraced results, and restore()
must put every attribute back."""

import importlib.util
from pathlib import Path

import pytest

from lamlat import checkers, instances, lattice, poset, search
from lamlat.search import EnumerationFilter

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
OWNERS = (search, checkers, lattice, poset, instances, poset.Poset, search.Counterexample)


def _load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _attributes():
    return [dict(vars(owner)) for owner in OWNERS] + [dict(search.THEOREMS)]


def _outcome(result):
    d = result.to_dict()
    del d["elapsed_seconds"]
    return d, result.all_counterexamples


def test_traced_runs_match_untraced_and_restore_undoes_every_rebinding():
    tracing = _load_tracing()
    flt = EnumerationFilter(max_elements=4)
    plain = {tid: _outcome(search.verify(tid, flt)) for tid in ("TH1", "LEM1")}
    before = _attributes()
    tracer = tracing.Tracer()
    restore = tracing.install(tracer, (search, checkers, lattice, poset, instances))
    try:
        assert _attributes() != before
        traced = {tid: _outcome(search.verify(tid, flt)) for tid in plain}
    finally:
        restore()
    assert traced == plain
    assert _attributes() == before
    spans = tracing.totals(tracer)["spans"]
    for name in ("search.verify", "search.enumerate_posets", "search.enumerate_completions",
                 "checkers.is_semimodular", "checkers.cond3", "checkers.satisfies_wlcc",
                 "checkers.lemma1_refutes"):
        assert spans[name][2] > 0, name


def test_traced_collect_all_runs_match_untraced_through_the_lattice_predicates():
    # MONO calls lattice.is_monotone, MODLAT lattice.is_modular on each
    # non-lattice (the first ones have 5 elements) and never
    # lattice.is_distributive, and ACUTE calls lattice.acute, all through
    # the names search imported
    tracing = _load_tracing()
    max_n = {"MONO": 4, "MODLAT": 5, "ACUTE": 4, "TH1_LCC_CONCLUSION": 4}

    def run_all():
        return {tid: _outcome(search.verify(tid, EnumerationFilter(max_elements=n),
                                            collect_all=True))
                for tid, n in max_n.items()}

    plain = run_all()
    before = _attributes()
    tracer = tracing.Tracer()
    restore = tracing.install(tracer, (search, checkers, lattice, poset, instances))
    try:
        traced = run_all()
    finally:
        restore()
    assert traced == plain
    assert _attributes() == before
    spans = tracing.totals(tracer)["spans"]
    assert spans["lattice.is_monotone"][2] == plain["MONO"][0]["lattices_checked"]
    nonlattices = sum(not lattice.is_lattice(ll) for p in search.enumerate_posets(
        EnumerationFilter(max_elements=5, require_bounded=True))
        for ll in search.enumerate_completions(p))
    assert spans["lattice.is_modular"][2] == nonlattices > 0
    assert spans["lattice.is_distributive"][2] == 0
    assert spans["lattice.acute"][2] == plain["ACUTE"][0]["posets_checked"]


def test_traced_height_and_th2_runs_match_untraced():
    # HEIGHT reads Poset.heights and TH2 reaches cond4, cond5 and the LCC
    tracing = _load_tracing()
    flt = EnumerationFilter(max_elements=4)
    ids = ("HEIGHT", "TH2")
    plain = {tid: _outcome(search.verify(tid, flt, collect_all=True)) for tid in ids}
    before = _attributes()
    tracer = tracing.Tracer()
    restore = tracing.install(tracer, (search, checkers, lattice, poset, instances))
    try:
        traced = {tid: _outcome(search.verify(tid, flt, collect_all=True)) for tid in ids}
    finally:
        restore()
    assert traced == plain
    assert _attributes() == before
    spans = tracing.totals(tracer)["spans"]
    for name in ("checkers.satisfies_lcc", "checkers.height_inequality", "checkers.cond4",
                 "checkers.cond5"):
        assert spans[name][2] > 0, name
    assert tracer.cells["poset.Poset.is_directed"] == [0]  # the stream checks its options


@pytest.mark.parametrize("theorem_id, max_n, collect_all", [
    ("TH1", 4, False),  # lattices
    ("LEM2", 5, False),  # its conclusion calls the traced is_semimodular
    ("ACUTE", 4, False),  # bounded posets
    ("CHAINS", 4, False),  # posets
    ("TH1_LCC_CONCLUSION", 5, False),  # first hit; n <= 4 has no counterexample
    ("CHAINS_NO_LU", 5, True),
])
def test_traced_verify_counts_agree_with_its_result(theorem_id, max_n, collect_all):
    # one traced hypothesis call per instance, made with search.verify as
    # the innermost span, and validate's re-checks counted apart
    tracing = _load_tracing()
    tracer = tracing.Tracer()
    tracer.run_id = 3
    restore = tracing.install(tracer, (search, checkers, lattice, poset, instances))
    try:
        result = search.verify(theorem_id, EnumerationFilter(max_elements=max_n),
                               collect_all=collect_all)
        evaluated = tracer.counts["search.hypothesis.evaluated", 3]
        assert all(ce.validate() for ce in result.all_counterexamples)
    finally:
        restore()
    over = search.THEOREMS[theorem_id].over
    assert tracing.integrity_problems(tracer, 3, result, over, collect_all) == []
    assert evaluated == (result.lattices_checked if over == "lattices" else result.posets_checked)
    assert tracer.counts["search.hypothesis.evaluated", 3] == evaluated
    assert result.clean == (theorem_id in ("TH1", "LEM2", "ACUTE", "CHAINS"))
    spans = tracing.totals(tracer)["spans"]
    assert spans.get("search.violates.hypothesis", (0, 0, 0))[2] == len(result.all_counterexamples)
    if theorem_id == "LEM2":
        # one is_semimodular call per hypothesis, and one more per held
        # hypothesis, whose conclusion is is_semimodular itself
        held = tracer.counts["search.hypothesis.held", 3]
        assert 0 < held < evaluated
        assert spans["checkers.is_semimodular"][2] == evaluated + held
