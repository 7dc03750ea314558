"""Workload definitions, hand-written expected answers, and the answer checks.

Every step of a workload is one call into lamlat's public API. The
expected values are constants written here, never recomputed by lamlat:

* poset counts come from OEIS A001035 (labeled posets: 1, 3, 19, 219,
  4231, 130023, 6129859 for n = 1..7). A bounded labeled poset on n > 1
  elements is a choice of bottom and top plus any poset on the other
  n - 2 labels, so there are n(n-1)·A001035(n-2) of them: 6 995 for
  n <= 6 and 184 697 for n <= 7;
* completion counts, counterexample counts, least-counterexample
  encodings and rendered texts were pinned from the initial release.
"""

import hashlib
import random
from dataclasses import dataclass

BOUNDED_LE_5 = 1 + 2 + 6 + 36 + 380  # 425
BOUNDED_LE_6 = BOUNDED_LE_5 + 30 * 219  # 6 995
BOUNDED_LE_7 = BOUNDED_LE_6 + 42 * 4231  # 184 697
LABELED_LE_6 = 1 + 3 + 19 + 219 + 4231 + 130023  # 134 496

COMPLETIONS_LE_5 = 545
COMPLETIONS_LE_6 = 19955

# least counterexamples: (up-set masks,) for posets, plus the
# incomparable-pair (join, meet) table for completions
LEAST_M5_JOIN = ((5, 1, 3, 7, 11, 31), ((0, 4),))
LEAST_M6_MEET = ((6, 1, 3, 5, 11, 31, 63), ((0, 5), (0, 4)))
LEAST_CHAIN_GAP = ((5, 1, 3, 5, 11, 31),)

RENDER_M5_JOIN = (
    "elements: 0 1 2 3 4\n"
    "covers: 1 < 0  2 < 1  3 < 1  4 < 2  4 < 3\n"
    "join: 2 3 = 0\n"
)
RENDER_M6_MEET = (
    "elements: 0 1 2 3 4 5\n"
    "covers: 1 < 0  2 < 0  3 < 1  4 < 2  4 < 3  5 < 4\n"
    "meet: 1 2 = 5\n"
)
RENDER_CHAIN_GAP = (
    "elements: 0 1 2 3 4\n"
    "covers: 1 < 0  2 < 0  3 < 1  4 < 2  4 < 3\n"
)

# sha256 of every counterexample's render_instance text, in stream order
DIGEST_M5_FAMILY = "abcea0314fcc325ed77d28b33f04531f16a678af7134fb2e2fa7260e7ebdea02"
DIGEST_CHAIN_GAPS = "b403066504e69ada76b7bde3d2cb9445377a7a9c93fbd4b351f83dd99477a00e"


@dataclass(frozen=True)
class Expect:
    """What a correct run of one step returns."""

    posets: int
    lattices: int = 0
    counterexamples: int = 0
    least: tuple | None = None
    least_render: str | None = None
    render_digest: str | None = None


@dataclass(frozen=True)
class Step:
    """One theorem run (or, with theorem None, one bounded-poset count)."""

    name: str
    theorem: str | None
    max_n: int | None  # None: the theorem's default size
    expect: Expect
    collect_all: bool = False
    validate: bool = False  # validate and render every counterexample


def _clean(theorem: str, n: int, posets: int, lattices: int = 0) -> Step:
    return Step(f"{theorem}@{n}", theorem, n, Expect(posets, lattices))


WORKLOADS: dict[str, tuple[Step, ...]] = {
    "lattice-sweep": (
        *(_clean(t, 6, BOUNDED_LE_6, COMPLETIONS_LE_6)
          for t in ("TH1", "TH2", "LEM1", "HEIGHT", "MONO", "MODLAT")),
        # LEM2 scans 2^n convex subsets per completion; n = 6 alone costs ~14 s
        _clean("LEM2", 5, BOUNDED_LE_5, COMPLETIONS_LE_5),
    ),
    "poset-sweep": (
        Step("count-bounded@7", None, 7, Expect(BOUNDED_LE_7)),
        _clean("CHAINS", 6, LABELED_LE_6),
        _clean("ACUTE", 6, BOUNDED_LE_6),
        _clean("COR1", 6, BOUNDED_LE_6),
    ),
    "counterexample-hunt": (
        Step("TH1_LCC_CONCLUSION@6/all", "TH1_LCC_CONCLUSION", 6,
             Expect(BOUNDED_LE_6, COMPLETIONS_LE_6, 2520, LEAST_M5_JOIN,
                    RENDER_M5_JOIN, DIGEST_M5_FAMILY),
             collect_all=True, validate=True),
        Step("TH2_NO_COND5@6/all", "TH2_NO_COND5", 6,
             Expect(BOUNDED_LE_6, COMPLETIONS_LE_6, 2520, LEAST_M5_JOIN,
                    RENDER_M5_JOIN, DIGEST_M5_FAMILY),
             collect_all=True, validate=True),
        Step("CHAINS_NO_LU@6/all", "CHAINS_NO_LU", 6,
             Expect(LABELED_LE_6, 0, 7320, LEAST_CHAIN_GAP,
                    RENDER_CHAIN_GAP, DIGEST_CHAIN_GAPS),
             collect_all=True, validate=True),
        Step("TH1_NO_COND3", "TH1_NO_COND3", None,
             Expect(447, 593, 1, LEAST_M6_MEET, RENDER_M6_MEET), validate=True),
        Step("TH1_LCC_CONCLUSION", "TH1_LCC_CONCLUSION", None,
             Expect(55, 57, 1, LEAST_M5_JOIN, RENDER_M5_JOIN), validate=True),
        Step("TH2_NO_COND4", "TH2_NO_COND4", None,
             Expect(447, 593, 1, LEAST_M6_MEET, RENDER_M6_MEET), validate=True),
        Step("TH2_NO_COND5", "TH2_NO_COND5", None,
             Expect(55, 57, 1, LEAST_M5_JOIN, RENDER_M5_JOIN), validate=True),
        Step("CHAINS_NO_LU", "CHAINS_NO_LU", None,
             Expect(866, 0, 1, LEAST_CHAIN_GAP, RENDER_CHAIN_GAP), validate=True),
    ),
}


def order(workload: str, seed: int) -> list[int]:
    """Indices of the workload's steps in the order the seed picks.

    The steps are exhaustive and deterministic, and each runs in its own
    interpreter, so the seed changes nothing but the order.
    """
    indices = list(range(len(WORKLOADS[workload])))
    random.Random(seed).shuffle(indices)
    return indices


def observe(result, validated=None, renders=None) -> dict:
    """The facts of a VerificationResult that the checks compare.

    validated and renders are the outcomes of Counterexample.validate()
    and render_instance() on result.all_counterexamples, in order.
    """
    ce = result.counterexample
    obs = {
        "posets": result.posets_checked,
        "lattices": result.lattices_checked,
        "skipped": result.posets_skipped,
        "clean": result.clean,
        "counterexamples": len(result.all_counterexamples),
        "least": ce.encoding() if ce is not None else None,
    }
    if validated is not None:
        obs["invalid"] = sum(1 for ok in validated if not ok)
    if renders:
        obs["least_render"] = renders[0]
        obs["render_digest"] = hashlib.sha256("".join(renders).encode()).hexdigest()
    return obs


def check(step: Step, obs: dict) -> list[str]:
    """Every way the observed facts differ from the step's expected answer."""
    e = step.expect
    problems = []

    def differ(what, got, want):
        if got != want:
            problems.append(f"{what}: got {got!r}, expected {want!r}")

    if step.theorem is None:
        differ("posets counted", obs["posets"], e.posets)
        return problems
    differ("posets checked", obs["posets"], e.posets)
    differ("completions checked", obs["lattices"], e.lattices)
    if obs["skipped"]:
        problems.append(f"not exhaustive: {obs['skipped']} posets skipped")
    differ("verdict clean", obs["clean"], e.counterexamples == 0)
    differ("counterexamples", obs["counterexamples"], e.counterexamples)
    differ("least counterexample encoding", obs["least"], e.least)
    if step.validate:
        if obs.get("invalid"):
            problems.append(f"{obs['invalid']} counterexamples fail validate()")
        differ("least counterexample render", obs.get("least_render"), e.least_render)
        if e.render_digest is not None:
            differ("render digest", obs.get("render_digest"), e.render_digest)
    return problems

