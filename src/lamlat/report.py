"""Aggregate per-instance report documents, renderable as text or dicts."""

from dataclasses import dataclass

from .checkers import (
    AcuteCharacterization,
    PropertyReport,
    acute_characterization,
    classify,
)
from .lattice import AxiomReport, LambdaLattice
from .poset import _bits
from .verdict import DictRecord


@dataclass(frozen=True)
class ChainSummary(DictRecord):
    """Maximal-chain statistics for bounded instances."""

    equal_length_from_every_element: bool
    count_from_bottom: int
    lengths_from_bottom: tuple[int, ...]


@dataclass(frozen=True)
class ReportDocument(DictRecord):
    """Everything the CLI reports about one instance.

    Round-trips losslessly through to_dict/from_dict; the dict form is
    the stable machine-readable encoding, the text form is not a
    stability contract.
    """

    name: str
    n: int
    labels: tuple[str, ...]
    axioms: AxiomReport
    properties: PropertyReport
    heights: tuple[int, ...] | None
    chain_summary: ChainSummary | None
    acute: AcuteCharacterization | None


def build_report(name: str, ll: LambdaLattice) -> ReportDocument:
    """Classify one instance and gather heights, chains and the acute clause."""
    p = ll.poset
    heights = p.heights if p.bottom is not None else None
    chain_summary = None
    if p.bounds() is not None:
        lengths = p.chain_lengths_to_top()
        chain_summary = ChainSummary(
            equal_length_from_every_element=all(m.bit_count() == 1 for m in lengths),
            count_from_bottom=p.chain_counts_to_top()[p.bottom],
            lengths_from_bottom=_bits(lengths[p.bottom]),
        )
    acute_clause = acute_characterization(p) if p.bounds() is not None else None
    return ReportDocument(
        name=name,
        n=p.n,
        labels=tuple(p.label(i) for i in range(p.n)),
        axioms=ll.axiom_report(),
        properties=classify(ll),
        heights=heights,
        chain_summary=chain_summary,
        acute=acute_clause,
    )


def _fmt_verdict(v) -> str:
    if v.holds:
        return "holds" + (f" ({v.note})" if v.note else "")
    tail = f" witness {v.witness}" + (f": {v.note}" if v.note else "")
    return "fails" + tail


def render_text(doc: ReportDocument) -> str:
    lines = [f"instance: {doc.name} (n={doc.n})"]
    lines.append("axioms:")
    lines.append(f"  commutativity:      {_fmt_verdict(doc.axioms.commutativity)}")
    lines.append(f"  weak associativity: {_fmt_verdict(doc.axioms.weak_associativity)}")
    lines.append(f"  absorption:         {_fmt_verdict(doc.axioms.absorption)}")
    lines.append("properties:")
    props = doc.properties
    for label, v in (
        ("semimodular", props.semimodular),
        ("wlcc", props.wlcc),
        ("lcc", props.lcc),
        ("cond3", props.cond3),
        ("cond4", props.cond4),
        ("cond5", props.cond5),
        ("dcc", props.dcc),
        ("lu-covering", props.lu_covering),
    ):
        lines.append(f"  {label + ':':<13}{_fmt_verdict(v)}")
    if doc.heights is not None:
        shown = " ".join(f"{doc.labels[i]}={h}" for i, h in enumerate(doc.heights))
        lines.append(f"heights: {shown}")
    if doc.chain_summary is not None:
        cs = doc.chain_summary
        lines.append(
            "maximal chains: "
            f"{cs.count_from_bottom} from bottom, lengths {list(cs.lengths_from_bottom)}, "
            f"equal length from every element: {'yes' if cs.equal_length_from_every_element else 'no'}"
        )
    if doc.acute is not None:
        k = f" (k={doc.acute.k})" if doc.acute.k is not None else ""
        lines.append(f"acute clause: {doc.acute.clause.value}{k}")
    return "\n".join(lines) + "\n"
