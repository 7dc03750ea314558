"""lamlat's benchmark: exhaustive verification, one fresh interpreter per theorem run.

Run from the repository root:

    python3 bench/run.py --workload lattice-sweep --seed 1 --seconds 36 --trace 0

Each workload is a closed loop with one client. A pass runs the
workload's theorem runs one after another, each in its own
single-threaded interpreter (worker.py), so each pays lamlat's cold
poset-stream generation as a `lamlat verify` user does; a lamlat-free
reference task (probe.py) runs between them to measure the host's speed.
With --trace 0 passes repeat to measure the end-to-end metrics; with
--trace 1 one untraced and one traced pass give the per-layer metrics
and the tracing overhead. The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".bench_out")
sys.path.insert(0, HERE)

import tracing  # noqa: E402
from workloads import WORKLOADS, order  # noqa: E402

DEADLINE_S = 170  # a run must end within 180 s
# bounded metrics; wall_rel and instances_per_ref divide by the reference
# task's time taken around each theorem run, because a shared host can
# change speed by up to 1.6x for minutes at a time
END_TO_END_UNITS = {"wall_rel": "x", "instances_per_ref": "1/ref", "setup_s": "s",
                    "peak_rss_mb": "MB"}
RAW_UNITS = {"wall_s": "s", "instances_per_s": "1/s", "ref_s": "s"}  # printed, not bounded


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def _run(script: str, args: list[str], deadline: float) -> tuple[float, str]:
    """Run one bench script in a fresh interpreter; (launch time, last stdout line)."""
    t0 = time.clock_gettime(time.CLOCK_MONOTONIC)
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError(f"out of time: a run must end within {DEADLINE_S} s")
    cmd = [sys.executable, "-I", os.path.join(HERE, script), *args]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"out of time: a run must end within {DEADLINE_S} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"{script} {' '.join(args)} exited {proc.returncode}: "
                         f"{proc.stderr.strip()[-2000:]}")
    return t0, proc.stdout.strip().splitlines()[-1]


def launch(workload: str, index: int, mode: str, deadline: float) -> dict:
    """One worker process; returns its JSON report plus setup_s."""
    t0, line = _run("worker.py", [workload, str(index), mode, OUT_DIR], deadline)
    report = json.loads(line)
    report["setup_s"] = report["imported"] - t0
    return report


def reference_s(deadline: float) -> float:
    """Seconds from launch to the end of the lamlat-free reference task."""
    t0, line = _run("probe.py", [], deadline)
    return float(line) - t0


def relative_wall(seconds: list[float], refs: list[float]) -> float:
    """Sum of each step's seconds in units of the reference task timed around it.

    refs holds one reference time before each step and one after the last.
    """
    return sum(2 * t / (a + b) for t, a, b in zip(seconds, refs, refs[1:]))


def run_pass(workload: str, order: list[int], modes: tuple[str, ...], deadline: float) -> list[dict]:
    """One pass per mode over the workload's steps in the given order.

    Every step runs in its own interpreter. The modes of one step run back
    to back, so a traced and an untraced pass meet the same machine load.
    An import-only launch precedes each step, so that set-up samples are
    spread over the whole run rather than taken in one burst, and the
    reference task runs before each step and after the last one.
    """
    t0 = time.monotonic()
    setups, refs, reports = [], [], {mode: [] for mode in modes}
    for i in order:
        setups.append(launch(workload, i, "setup", deadline)["setup_s"])
        refs.append(reference_s(deadline))
        for mode in modes:
            reports[mode].append(launch(workload, i, mode, deadline))
    refs.append(reference_s(deadline))
    passes = []
    for mode in modes:
        steps = [r["step"] for r in reports[mode]]
        passes.append({
            "mode": mode,
            "wall_s": sum(s["seconds"] for s in steps),
            "wall_rel": relative_wall([s["seconds"] for s in steps], refs),
            "instances": sum(s["instances"] for s in steps),
            "peak_rss_mb": max(r["peak_rss_mb"] for r in reports[mode]),
            "setups": setups + [r["setup_s"] for r in reports[mode]],
            "refs": refs,
            "process_s": time.monotonic() - t0,
            "steps": steps,
            "raws": [r["raw"] for r in reports[mode] if "raw" in r],
        })
    return passes


def tail(values: list[float]) -> tuple[float, float] | None:
    """(percentile, value) of the sample with exactly ten samples above it."""
    if len(values) < 11:
        return None
    k = len(values)
    return 100.0 * (k - 10) / k, sorted(values)[k - 11]


def describe(name: str, unit: str, values: list[float]) -> str:
    hi = tail(values)
    hi_text = f"p{hi[0]:.1f}={hi[1]:.6g}" if hi else "p_hi=n/a (fewer than 11 samples)"
    return (f"{name:<18} median={statistics.median(values):.6g} {unit:<5} "
            f"{hi_text} samples={len(values)}")


def outcomes(passes: list[dict]) -> tuple[int, int, list[str]]:
    """(attempted, failed, problem lines) over every theorem run of every pass."""
    attempted = failed = 0
    lines = []
    for i, p in enumerate(passes):
        for s in p["steps"]:
            attempted += 1
            if s["problems"]:
                failed += 1
                lines += [f"FAIL pass {i} {s['name']}: {msg}" for msg in s["problems"]]
    return attempted, failed, lines


def step_table(passes: list[dict]) -> list[str]:
    lines = []
    for j, step in enumerate(passes[0]["steps"]):
        secs = " ".join(f"{p['steps'][j]['seconds']:.4f}" for p in passes)
        lines.append(f"  step {step['name']:<26} instances {step['instances']:<7} s per pass: {secs}")
    return lines


def measure(workload: str, order: list[int], seconds: int, deadline: float):
    """Untraced passes filling about --seconds."""
    launch(workload, 0, "setup", deadline)  # writes the bytecode cache; not measured
    passes = []
    start = time.monotonic()
    # another pass starts while it would be at least half done by --seconds
    while not passes or (time.monotonic() - start
                         + statistics.median(p["process_s"] for p in passes) / 2 <= seconds):
        passes += run_pass(workload, order, ("run",), deadline)
    samples = {
        "wall_rel": [p["wall_rel"] for p in passes],
        "instances_per_ref": [p["instances"] / p["wall_rel"] for p in passes],
        "setup_s": [s for p in passes for s in p["setups"]],
        "peak_rss_mb": [p["peak_rss_mb"] for p in passes],
        "wall_s": [p["wall_s"] for p in passes],
        "instances_per_s": [p["instances"] / p["wall_s"] for p in passes],
        "ref_s": [r for p in passes for r in p["refs"]],
    }
    units = {**END_TO_END_UNITS, **RAW_UNITS}
    for name, v in samples.items():
        print(describe(name, units[name], v))
    metrics = {name: {"value": statistics.median(samples[name]), "unit": unit}
               for name, unit in END_TO_END_UNITS.items()}
    return metrics, passes, {k: len(v) for k, v in samples.items()}


def measure_traced(workload: str, order: list[int], deadline: float):
    """An untraced and a traced pass: per-layer metrics and tracing overhead."""
    plain, traced = run_pass(workload, order, ("run", "trace"), deadline)
    raw = tracing.merge(traced["raws"])
    layers = tracing.layer_metrics(raw)
    layers["trace.overhead_s"] = traced["wall_s"] - plain["wall_s"]
    print(f"untraced wall_s={plain['wall_s']:.4f} traced wall_s={traced['wall_s']:.4f} "
          f"(is_lattice diagnostics excluded) overhead_s={layers['trace.overhead_s']:.4f} "
          f"({layers['trace.overhead_s'] / plain['wall_s']:.1%} of untraced)")
    print("self time by span name (s), inclusive (s), spans:")
    for name, (incl, own, n) in sorted(raw["spans"].items(), key=lambda kv: -kv[1][1]):
        if n:
            print(f"  {name:<46} self {own / 1e9:9.4f}  incl {incl / 1e9:9.4f}  spans {n}")
    for name, unit in tracing.UNITS.items():
        print(f"{name} = {layers[name]:.6g} {unit}")
    metrics = {name: {"value": layers[name], "unit": unit} for name, unit in tracing.UNITS.items()}
    print("step seconds below: untraced pass, then traced pass")
    return metrics, [plain, traced], {"untraced_passes": 1, "traced_passes": 1}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S
    steps = order(args.workload, args.seed)

    if not os.path.isfile(os.path.join(ROOT, "src", "lamlat", "__init__.py")):
        print("no lamlat sources under src/lamlat; nothing to measure", file=sys.stderr)
        return 2
    print(json.dumps({
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": platform.python_version(),
        "implementation": platform.python_implementation(), "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "load": "closed loop, one client, one single-threaded interpreter per theorem run",
        "order": [WORKLOADS[args.workload][i].name for i in steps],
    }))
    try:
        if args.trace:
            metrics, passes, samples = measure_traced(args.workload, steps, deadline)
        else:
            metrics, passes, samples = measure(args.workload, steps, args.seconds, deadline)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    attempted, failed, problems = outcomes(passes)
    for line in step_table(passes) + problems:
        print(line)
    print(f"samples {json.dumps(samples)}")
    print(f"failed_share = {failed / attempted:.6g} ({failed} of {attempted} theorem runs)")
    os.makedirs(OUT_DIR, exist_ok=True)
    with open(os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w") as f:
        json.dump({"args": vars(args), "samples": samples, "metrics": metrics,
                   "passes": [{k: v for k, v in p.items() if k != "raws"} for p in passes]},
                  f, indent=1)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
