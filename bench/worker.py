"""One theorem run of a workload in a fresh interpreter; prints one JSON line.

Usage (from the repository root, normally through run.py):

    python -I bench/worker.py <workload> <step index> setup|run|trace <out-dir>

"setup" only imports lamlat and reports when the import finished, on
the CLOCK_MONOTONIC clock that run.py read just before the launch.
"run" calls lamlat for the step and checks every answer. "trace" does
the same with the wrappers of tracing.py installed, checks the trace
against verify's own counts, writes the spans under <out-dir>, and
reports the per-layer totals.
"""

import os
import sys
import time

ROOT = os.getcwd()
sys.path.insert(0, os.path.join(ROOT, "src"))
import lamlat  # noqa: E402  (set-up ends here)

IMPORTED = time.clock_gettime(time.CLOCK_MONOTONIC)

import json  # noqa: E402
import resource  # noqa: E402
from time import perf_counter  # noqa: E402

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import tracing  # noqa: E402
from workloads import WORKLOADS, check, observe  # noqa: E402

from lamlat import checkers, instances, lattice, poset, search  # noqa: E402


def call_lamlat(step):
    """The step's API calls; returns (seconds, VerificationResult or None, observed facts)."""
    t0 = perf_counter()
    if step.theorem is None:
        flt = search.EnumerationFilter(max_elements=step.max_n, require_bounded=True)
        n = sum(1 for _ in search.enumerate_posets(flt))
        return perf_counter() - t0, None, {"posets": n}
    flt = search.EnumerationFilter(max_elements=step.max_n) if step.max_n else None
    result = search.verify(step.theorem, flt, collect_all=step.collect_all)
    validated = renders = None
    if step.validate:
        validated = [ce.validate() for ce in result.all_counterexamples]
        renders = [instances.render_instance(ce.instance()) for ce in result.all_counterexamples]
    seconds = perf_counter() - t0
    return seconds, result, observe(result, validated, renders)


def run_step(step, tracer=None) -> dict:
    """Seconds, instances evaluated and every problem found for one step."""
    out = {"name": step.name, "seconds": 0.0, "instances": 0, "problems": []}
    try:
        out["seconds"], result, obs = call_lamlat(step)
    except Exception as exc:  # a failed theorem run, reported like any other failure
        out["problems"].append(f"raised {type(exc).__name__}: {exc}")
        return out
    out["problems"] = check(step, obs)
    over = "posets" if step.theorem is None else search.THEOREMS[step.theorem].over
    out["instances"] = obs["lattices"] if over == "lattices" else obs["posets"]
    if tracer is not None and result is not None:
        out["problems"] += tracing.integrity_problems(
            tracer, tracer.run_id, result, over, step.collect_all)
    return out


def main(argv) -> int:
    workload, index, mode, out_dir = argv
    src = os.path.join(ROOT, "src", "lamlat")
    if os.path.dirname(os.path.abspath(lamlat.__file__)) != src:
        print(f"lamlat was imported from {lamlat.__file__}, not from {src}", file=sys.stderr)
        return 2
    if mode not in ("setup", "run", "trace"):
        print(f"unknown mode {mode!r}", file=sys.stderr)
        return 2
    out = {"imported": IMPORTED}
    if mode != "setup":
        step = WORKLOADS[workload][int(index)]
        tracer = None
        if mode == "trace":
            tracer = tracing.Tracer()
            tracer.run_id = int(index)
            tracing.install(tracer, (search, checkers, lattice, poset, instances))
        out["step"] = run_step(step, tracer)
        out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if tracer is not None:
            raw = tracing.totals(tracer)
            # the is_lattice diagnostic behind held_nonlattice is not workload time
            out["step"]["seconds"] -= raw["spans"][tracing.UNTIMED][0] / 1e9
            out["raw"] = raw
            os.makedirs(out_dir, exist_ok=True)
            tracer.write(os.path.join(out_dir, f"spans-{workload}-{index}"))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
