"""Tests for the benchmark's own logic.

Run from the repository root: python -m pytest -q bench/tests
"""

import json
import os
import sys
from dataclasses import replace

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import probe  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from workloads import Step, check, observe  # noqa: E402

from lamlat import EnumerationFilter, checkers, instances, lattice, poset, search  # noqa: E402


def test_self_time_subtracts_union_of_children_clipped_to_parent():
    # 0 root [0, 100]; 1 child [10, 40] with grandchild 4 [15, 20];
    # 2 child [30, 60] overlaps 1; 3 child [90, 120] runs past the root
    start = [0, 10, 30, 90, 15]
    end = [100, 40, 60, 120, 20]
    parent = [-1, 0, 0, 0, 1]
    # root: children cover [10, 60] and [90, 100] -> 100 - 50 - 10
    assert tracing.self_times(start, end, parent) == [40, 25, 30, 30, 5]


def test_self_time_of_leaves_and_empty_children():
    assert tracing.self_times([5], [9], [-1]) == [4]
    # a zero-length child covers nothing
    assert tracing.self_times([0, 3], [10, 3], [-1, 0]) == [10, 0]


def first_hit_step():
    return next(s for s in workloads.WORKLOADS["counterexample-hunt"]
                if s.name == "TH1_LCC_CONCLUSION")


def first_hit_run():
    step = first_hit_step()
    result = search.verify(step.theorem)
    ces = result.all_counterexamples
    return step, result, [ce.validate() for ce in ces], [
        instances.render_instance(ce.instance()) for ce in ces]


def test_real_result_passes_and_tampered_results_raise_failed_share():
    step, result, validated, renders = first_hit_run()
    good = check(step, observe(result, validated, renders))
    assert good == []
    skipped = check(step, observe(replace(result, posets_skipped=1), validated, renders))
    assert any("not exhaustive" in p for p in skipped)
    miscounted = check(step, observe(replace(result, posets_checked=54), validated, renders))
    assert any("posets checked" in p for p in miscounted)
    invalid = check(step, observe(result, [False], renders))
    assert any("validate()" in p for p in invalid)
    passes = [{"steps": [{"name": step.name, "problems": p} for p in (good, skipped)]},
              {"steps": [{"name": step.name, "problems": p} for p in (miscounted, invalid)]}]
    attempted, failed, lines = run.outcomes(passes)
    assert (attempted, failed) == (4, 3)
    assert len(lines) == len(skipped) + len(miscounted) + len(invalid)
    assert run.outcomes(passes[:1])[:2] == (2, 1)


def test_wrong_verdict_and_wrong_least_counterexample_are_caught():
    step, result, validated, renders = first_hit_run()
    clean = replace(result, counterexample=None, all_counterexamples=())
    problems = check(step, observe(clean))
    assert any("verdict clean" in p for p in problems)
    assert any("least counterexample encoding" in p for p in problems)
    wrong_render = check(step, observe(result, validated, ["elements: 0\n"]))
    assert any("render" in p for p in wrong_render)


def test_poset_count_step_checks_the_count():
    step = Step("count", None, 3, workloads.Expect(posets=9))
    assert check(step, {"posets": 9}) == []
    assert check(step, {"posets": 8}) != []


def test_expected_counts_follow_oeis_a001035():
    a001035 = [1, 1, 3, 19, 219, 4231, 130023]
    bounded = [1] + [n * (n - 1) * a001035[n - 2] for n in range(2, 8)]
    assert sum(bounded[:6]) == workloads.BOUNDED_LE_6 == 6995
    assert sum(bounded) == workloads.BOUNDED_LE_7 == 184697
    assert sum(a001035[1:7]) == workloads.LABELED_LE_6 == 134496


def test_relative_wall_divides_each_step_by_the_references_around_it():
    # step 1 bracketed by 1 and 1, step 2 by 1 and 3
    assert run.relative_wall([2.0, 4.0], [1.0, 1.0, 3.0]) == 4.0
    # a host twice as slow doubles both the steps and the references
    assert run.relative_wall([4.0, 8.0], [2.0, 2.0, 6.0]) == 4.0


def test_reference_task_counts_partial_orders():
    assert [probe.count_partial_orders(n) for n in (1, 2, 3)] == [1, 3, 19]
    assert probe.count_partial_orders(probe.N) == probe.EXPECTED


def test_seed_only_permutes_steps():
    for name, steps in workloads.WORKLOADS.items():
        a = workloads.order(name, 1)
        assert sorted(a) == list(range(len(steps)))
        assert a == workloads.order(name, 1)


def test_tail_is_the_sample_with_ten_above_it():
    assert run.tail(list(range(10))) is None
    pct, value = run.tail(list(range(20)))
    assert (pct, value) == (50.0, 9)
    pct, value = run.tail(list(range(100, 0, -1)))
    assert (pct, value) == (90.0, 90)


def test_traced_counts_match_verify_and_restore_undoes_every_wrapper():
    modules = (search, checkers, lattice, poset, instances)
    before = (search.verify, checkers.cond3, poset.Poset.leq, dict(search.THEOREMS))
    t = tracing.Tracer()
    restore = tracing.install(t, modules)
    try:
        t.run_id = 1
        clean = search.verify("TH1", EnumerationFilter(max_elements=4))
        t.run_id = 2
        hit = search.verify("TH1_LCC_CONCLUSION")
        assert hit.counterexample.validate()
        assert tracing.integrity_problems(t, 1, clean, "lattices", False) == []
        assert tracing.integrity_problems(t, 2, hit, "lattices", False) == []
        assert tracing.integrity_problems(t, 1, replace(clean, lattices_checked=1),
                                          "lattices", False) != []
        raw = tracing.totals(t)
    finally:
        restore()
    assert (search.verify, checkers.cond3, poset.Poset.leq, dict(search.THEOREMS)) == before
    m = tracing.layer_metrics(raw)
    # the re-check inside validate() is not counted as a verify evaluation
    assert m["search.hypothesis.evaluated"] == clean.lattices_checked + hit.lattices_checked
    assert m["search.Counterexample.validate.calls"] == 1
    assert raw["spans"]["search.violates.hypothesis"][2] == 1
    assert m["search.enumerate_posets.posets"] == clean.posets_checked + hit.posets_checked
    assert m["poset.Poset.is_directed.calls"] > 0 and m["poset.Poset.leq.calls"] > 0
    assert m["search.conclusion.failed"] == 1
    assert 0 < m["checkers.is_semimodular.holds_share"] <= 1
    assert set(m) | {"trace.overhead_s"} == set(tracing.UNITS)
    doubled = tracing.layer_metrics(tracing.merge([raw, raw]))
    assert doubled["search.hypothesis.evaluated"] == 2 * m["search.hypothesis.evaluated"]
    assert doubled["lattice.from_choice.us_per_call"] == m["lattice.from_choice.us_per_call"]


def test_benchmark_json_lists_what_the_benchmark_prints():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == tracing.PER_LAYER
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
