"""Every step of the benchmark's workloads (bench/workloads.py) gives the
answer the benchmark checks: poset and completion counts, counterexample
counts, least encodings, and the sha256 of every rendered counterexample.
A change that reorders what lamlat streams or renders, such as the order
of the join:/meet: lines, fails here and not only in a benchmark run.
bench/workloads.py is read as it is, and lamlat is called as
bench/worker.py calls it."""

import importlib.util
from pathlib import Path

import pytest

from lamlat import instances, search

WORKLOADS_PY = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"


def _load_workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads", WORKLOADS_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


workloads = _load_workloads()
STEPS = {f"{w}:{s.name}": s for w, steps in workloads.WORKLOADS.items() for s in steps}


def _observe(step) -> dict:
    """The facts of one step, from the calls bench/worker.py's call_lamlat makes."""
    if step.theorem is None:
        flt = search.EnumerationFilter(max_elements=step.max_n, require_bounded=True)
        return {"posets": sum(1 for _ in search.enumerate_posets(flt))}
    flt = search.EnumerationFilter(max_elements=step.max_n) if step.max_n else None
    result = search.verify(step.theorem, flt, collect_all=step.collect_all)
    validated = renders = None
    if step.validate:
        validated = [ce.validate() for ce in result.all_counterexamples]
        renders = [instances.render_instance(ce.instance()) for ce in result.all_counterexamples]
    return workloads.observe(result, validated, renders)


@pytest.mark.parametrize("step", list(STEPS.values()), ids=list(STEPS))
def test_benchmark_step_gives_the_checked_answer(step):
    assert workloads.check(step, _observe(step)) == []

