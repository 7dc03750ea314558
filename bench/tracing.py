"""Spans around lamlat's layers, recorded from outside the package.

install() rebinds the module and class attributes that lamlat's harness
looks up at call time (search.enumerate_posets, checkers.cond3,
Poset.leq, ...) to wrappers that record a span per call, or per next()
for generators. Nothing in lamlat is edited. Spans stay in memory as
parallel arrays (name, start, end, parent, run) and are written out once
the traced pass ends.
"""

import json
from array import array
from collections import Counter
from dataclasses import replace
from time import perf_counter_ns

VERIFY = "search.verify"
HYPOTHESIS = "search.hypothesis"
CONCLUSION = "search.conclusion"
UNTIMED = "trace.untimed"

CHECKERS = ("is_semimodular", "cond3", "cond4", "cond5", "satisfies_wlcc",
            "satisfies_lcc", "height_inequality", "lemma1_refutes")
LATTICE_PREDICATES = ("is_lattice", "is_monotone", "is_modular", "is_distributive")


class Tracer:
    """In-memory span store; one instance per traced pass."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("H")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.run = array("H")
        self.stack: list[int] = []
        self.run_id = 0
        self.counts: Counter = Counter()  # (key, run id) -> count
        self.cells: dict[str, list[int]] = {}  # count-only call sites -> [calls]

    def intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, nid: int) -> int:
        i = len(self.name)
        self.name.append(nid)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.run.append(self.run_id)
        self.end.append(0)
        self.stack.append(i)
        self.start.append(perf_counter_ns())
        return i

    def close(self, i: int) -> None:
        self.end[i] = perf_counter_ns()
        self.stack.pop()

    def inside(self, nid: int) -> bool:
        """Whether the innermost open span has this name."""
        return bool(self.stack) and self.name[self.stack[-1]] == nid

    def count(self, key: str) -> None:
        self.counts[key, self.run_id] += 1

    def write(self, path_stem: str) -> None:
        """Spans as raw arrays in <stem>.spans, described by <stem>.json."""
        columns = [("name", self.name), ("start", self.start), ("end", self.end),
                   ("parent", self.parent), ("run", self.run)]
        with open(path_stem + ".spans", "wb") as f:
            for _, col in columns:
                col.tofile(f)
        meta = {
            "spans": len(self.name),
            "names": self.names,
            "columns": [[c, col.typecode, col.itemsize] for c, col in columns],
            "time_unit": "ns (perf_counter)",
            "layout": "each column stored whole, in the order listed",
        }
        with open(path_stem + ".json", "w") as f:
            json.dump(meta, f, indent=1)


def self_times(start, end, parent) -> list[int]:
    """Each span's duration minus the part of it that its children cover.

    Children may overlap one another or reach past their parent; only the
    union of their intervals clipped to the parent counts.
    """
    children: dict[int, list[int]] = {}
    for i, p in enumerate(parent):
        if p >= 0:
            children.setdefault(p, []).append(i)
    out = [e - s for s, e in zip(start, end)]
    for p, kids in children.items():
        lo, hi = start[p], end[p]
        covered = 0
        cur_s = cur_e = None
        for k in sorted(kids, key=start.__getitem__):
            s, e = max(start[k], lo), min(end[k], hi)
            if e <= s:
                continue
            if cur_e is None or s > cur_e:
                if cur_e is not None:
                    covered += cur_e - cur_s
                cur_s, cur_e = s, e
            else:
                cur_e = max(cur_e, e)
        if cur_e is not None:
            covered += cur_e - cur_s
        out[p] -= covered
    return out


# ----- wrappers -----


def _span(t: Tracer, name: str, fn, holds=None):
    nid = t.intern(name)

    def wrapper(*args, **kwargs):
        i = t.open(nid)
        try:
            out = fn(*args, **kwargs)
        finally:
            t.close(i)
        if holds is not None and holds(out):
            t.count(name + ".held")
        return out

    return wrapper


def _gen(t: Tracer, name: str, fn):
    """Times a generator per next(); counts creations and items yielded."""
    nid = t.intern(name)

    def wrapper(*args, **kwargs):
        t.count(name + ".calls")
        it = fn(*args, **kwargs)
        while True:
            i = t.open(nid)
            try:
                item = next(it)
            except StopIteration:
                return
            finally:
                t.close(i)
            t.count(name + ".items")
            yield item

    return wrapper


def _counted(cell: list, fn):
    def wrapper(*args, **kwargs):
        cell[0] += 1
        return fn(*args, **kwargs)

    return wrapper


def _theorem_side(t: Tracer, side: str, fn, is_lattice):
    """Hypothesis or conclusion of a theorem, split by caller.

    Calls made from verify's loop count as search.<side>; calls made
    while re-checking a counterexample (Counterexample.validate ->
    violates) are kept apart as search.violates.<side>.
    """
    in_verify, outside = t.intern(VERIFY), t.intern(f"search.violates.{side}")
    nid, untimed = t.intern(f"search.{side}"), t.intern(UNTIMED)
    key = f"search.{side}"

    def wrapper(instance):
        counted = t.inside(in_verify)
        i = t.open(nid if counted else outside)
        try:
            out = fn(instance)
        finally:
            t.close(i)
        if not counted:
            return out
        t.count(key + ".evaluated")
        if side == "hypothesis" and out:
            t.count(key + ".held")
            if hasattr(instance, "join_table"):
                # diagnostic only: its time is subtracted from every total
                u = t.open(untimed)
                try:
                    nonlattice = not is_lattice(instance)
                finally:
                    t.close(u)
                if nonlattice:
                    t.count(key + ".held_nonlattice")
        elif side == "conclusion" and not out.holds:
            t.count(key + ".failed")
        return out

    return wrapper


def _holds(v) -> bool:
    return v.holds


def _refutes_nothing(quad) -> bool:
    return quad is None


def install(t: Tracer, lamlat_modules):
    """Rebind lamlat's lookups to traced wrappers; returns a function that undoes it."""
    search, checkers, lattice, poset, instances = lamlat_modules
    saved = []

    def rebind(owner, attr, new):
        saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    originals = {}
    for attr in CHECKERS + ("acute_characterization",):
        fn = getattr(checkers, attr)
        holds = None
        if attr in CHECKERS:
            holds = _refutes_nothing if attr == "lemma1_refutes" else _holds
        originals[fn] = _span(t, f"checkers.{attr}", fn, holds)
        rebind(checkers, attr, originals[fn])

    is_lattice = lattice.is_lattice
    for attr in LATTICE_PREDICATES + ("from_choice", "acute"):
        fn = getattr(lattice, attr)
        originals[fn] = _span(t, f"lattice.{attr}", fn)
    gens = {"convex_closed_subsets": "lattice", "enumerate_posets": "search",
            "enumerate_completions": "search"}
    for attr, layer in gens.items():
        fn = getattr(search, attr)
        originals[fn] = _gen(t, f"{layer}.{attr}", fn)
    for attr in LATTICE_PREDICATES + ("from_choice", "acute", *gens):
        if hasattr(lattice, attr):
            rebind(lattice, attr, originals[getattr(lattice, attr)])
        rebind(search, attr, originals[getattr(search, attr)])

    rebind(search, "verify", _span(t, VERIFY, search.verify))
    rebind(search.Counterexample, "validate",
           _span(t, "search.Counterexample.validate", search.Counterexample.validate))
    rebind(instances, "render_instance",
           _span(t, "instances.render_instance", instances.render_instance))
    P = poset.Poset
    for attr in ("maximal_chains_to_top", "has_lu_covering"):
        rebind(P, attr, _span(t, f"poset.Poset.{attr}", getattr(P, attr)))
    for attr in ("leq", "is_directed"):  # too frequent for a span each
        t.cells[f"poset.Poset.{attr}"] = cell = [0]
        rebind(P, attr, _counted(cell, getattr(P, attr)))

    # conclusions that are checkers were bound at registration, so route
    # them to the traced checker before wrapping the theorem's two sides
    for tid, th in list(search.THEOREMS.items()):
        concl = originals.get(th.conclusion, th.conclusion)
        rebind_th = replace(
            th,
            hypothesis=_theorem_side(t, "hypothesis", th.hypothesis, is_lattice),
            conclusion=_theorem_side(t, "conclusion", concl, is_lattice),
        )
        saved.append((search.THEOREMS, tid, th))
        search.THEOREMS[tid] = rebind_th

    def restore():
        for owner, attr, value in reversed(saved):
            if isinstance(owner, dict):
                owner[attr] = value
            else:
                setattr(owner, attr, value)

    return restore


# ----- per-layer metrics -----

# (metric, unit, better); every name here is also listed in BENCHMARK.json
PER_LAYER = [
    ("search.enumerate_completions.completions", "count", "lower"),
    ("search.enumerate_completions.s", "s", "lower"),
    ("search.enumerate_completions.us_per_completion", "us", "lower"),
    ("lattice.from_choice.calls", "count", "lower"),
    ("lattice.from_choice.us_per_call", "us", "lower"),
    ("poset.Poset.is_directed.calls", "count", "lower"),
    ("poset.Poset.leq.calls", "count", "lower"),
    ("search.enumerate_posets.posets", "count", "lower"),
    ("search.enumerate_posets.s", "s", "lower"),
    ("search.enumerate_posets.posets_per_s", "1/s", "higher"),
    ("poset.Poset.maximal_chains_to_top.calls", "count", "lower"),
    ("poset.Poset.maximal_chains_to_top.us_per_call", "us", "lower"),
    ("poset.Poset.has_lu_covering.calls", "count", "lower"),
    ("poset.Poset.has_lu_covering.us_per_call", "us", "lower"),
    ("lattice.acute.calls", "count", "lower"),
    ("lattice.acute.us_per_call", "us", "lower"),
    ("checkers.acute_characterization.calls", "count", "lower"),
    ("checkers.acute_characterization.us_per_call", "us", "lower"),
    *((f"checkers.{c}.{m}", u, b) for c in CHECKERS for m, u, b in (
        ("calls", "count", "lower"), ("us_per_call", "us", "lower"),
        ("holds_share", "share", "higher"))),
    *((f"lattice.{p}.{m}", u, "lower")
      for p in LATTICE_PREDICATES + ("convex_closed_subsets",)
      for m, u in (("calls", "count"), ("us_per_call", "us"))),
    ("search.Counterexample.validate.calls", "count", "lower"),
    ("search.Counterexample.validate.us_per_call", "us", "lower"),
    ("instances.render_instance.calls", "count", "lower"),
    ("instances.render_instance.us_per_call", "us", "lower"),
    ("search.hypothesis.evaluated", "count", "lower"),
    ("search.hypothesis.held", "count", "lower"),
    ("search.hypothesis.held_nonlattice", "count", "lower"),
    ("search.hypothesis.s", "s", "lower"),
    ("search.conclusion.evaluated", "count", "lower"),
    ("search.conclusion.failed", "count", "lower"),
    ("search.conclusion.s", "s", "lower"),
    ("search.verify.self_s", "s", "lower"),
    ("trace.spans", "count", "lower"),
    ("trace.overhead_s", "s", "lower"),
]
UNITS = {name: unit for name, unit, _ in PER_LAYER}


def totals(t: Tracer) -> dict:
    """What one traced process measured, in a form merge() can add up.

    spans: name -> [inclusive ns, self ns, span count]; counts: counter
    key -> total over runs; plus the count-only cells.
    """
    spans = {name: [0, 0, 0] for name in t.names}
    selfs = self_times(t.start, t.end, t.parent)
    for nid, s, e, st in zip(t.name, t.start, t.end, selfs):
        row = spans[t.names[nid]]
        row[0] += e - s
        row[1] += st
        row[2] += 1
    counts = Counter()
    for (key, _), v in t.counts.items():
        counts[key] += v
    counts.update({name + ".calls": cell[0] for name, cell in t.cells.items()})
    counts["trace.spans"] = len(t.name)
    return {"spans": spans, "counts": dict(counts)}


def merge(parts) -> dict:
    """Sum the totals() of several traced processes."""
    spans: dict[str, list[int]] = {}
    counts: Counter = Counter()
    for part in parts:
        for name, row in part["spans"].items():
            acc = spans.setdefault(name, [0, 0, 0])
            for i, v in enumerate(row):
                acc[i] += v
        counts.update(part["counts"])
    return {"spans": spans, "counts": dict(counts)}


def layer_metrics(raw: dict) -> dict:
    """Every per-layer metric except trace.overhead_s, from merged totals."""
    spans, counts = raw["spans"], raw["counts"]

    def seconds(name, column=0):
        return spans.get(name, (0, 0, 0))[column] / 1e9

    def per_call(name, n):
        return seconds(name) / n * 1e6 if n else 0.0

    m = {}
    for name in ([f"checkers.{c}" for c in CHECKERS + ("acute_characterization",)]
                 + [f"lattice.{p}" for p in LATTICE_PREDICATES + ("from_choice", "acute")]
                 + ["poset.Poset.maximal_chains_to_top", "poset.Poset.has_lu_covering",
                    "search.Counterexample.validate", "instances.render_instance"]):
        n = spans.get(name, (0, 0, 0))[2]
        m[name + ".calls"] = n
        m[name + ".us_per_call"] = per_call(name, n)
        if name.split(".")[-1] in CHECKERS:
            m[name + ".holds_share"] = counts.get(name + ".held", 0) / n if n else 0.0
    cc = "lattice.convex_closed_subsets"
    m[cc + ".calls"] = n = counts.get(cc + ".calls", 0)
    m[cc + ".us_per_call"] = per_call(cc, n)
    ec = "search.enumerate_completions"
    m[ec + ".completions"] = n = counts.get(ec + ".items", 0)
    m[ec + ".s"] = seconds(ec)
    m[ec + ".us_per_completion"] = per_call(ec, n)
    ep = "search.enumerate_posets"
    m[ep + ".posets"] = n = counts.get(ep + ".items", 0)
    m[ep + ".s"] = seconds(ep)
    m[ep + ".posets_per_s"] = n / seconds(ep) if n else 0.0
    for key in ("poset.Poset.leq.calls", "poset.Poset.is_directed.calls", "trace.spans"):
        m[key] = counts.get(key, 0)
    for key in ("evaluated", "held", "held_nonlattice"):
        m[f"{HYPOTHESIS}.{key}"] = counts.get(f"{HYPOTHESIS}.{key}", 0)
    m[HYPOTHESIS + ".s"] = seconds(HYPOTHESIS)
    for key in ("evaluated", "failed"):
        m[f"{CONCLUSION}.{key}"] = counts.get(f"{CONCLUSION}.{key}", 0)
    m[CONCLUSION + ".s"] = seconds(CONCLUSION)
    m[VERIFY + ".self_s"] = seconds(VERIFY, 1)
    return m


def integrity_problems(t: Tracer, run: int, result, over: str, collect_all: bool) -> list[str]:
    """Where the trace of one verify run disagrees with its VerificationResult."""
    problems = []

    def differ(what, traced, reported):
        if traced != reported:
            problems.append(f"trace {what} {traced} != verify's {reported}")

    differ("posets yielded", t.counts["search.enumerate_posets.items", run],
           result.posets_checked + result.posets_skipped)
    differ("hypotheses evaluated", t.counts[HYPOTHESIS + ".evaluated", run],
           result.lattices_checked if over == "lattices" else result.posets_checked)
    built = t.counts["search.enumerate_completions.items", run]
    if over == "lattices" and not collect_all and not result.clean:
        # a first-hit run builds the rest of the failing poset's stream unchecked
        if built < result.lattices_checked:
            problems.append(f"trace completions built {built} < verify's {result.lattices_checked}")
    else:
        differ("completions built", built, result.lattices_checked)
    return problems
