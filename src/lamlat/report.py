"""Aggregate per-instance report documents, renderable as text or dicts."""

from dataclasses import dataclass, fields

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
    lengths = p.chain_lengths_to_top()
    return ReportDocument(
        name=name,
        n=p.n,
        labels=tuple(p.label(i) for i in range(p.n)),
        axioms=ll.axiom_report(),
        properties=classify(ll),
        heights=p.heights,
        chain_summary=ChainSummary(
            equal_length_from_every_element=all(m.bit_count() == 1 for m in lengths),
            count_from_bottom=p.chain_counts_to_top()[p.bottom],
            lengths_from_bottom=_bits(lengths[p.bottom]),
        ),
        acute=acute_characterization(p),
    )


def _fmt_verdict(v) -> str:
    if v.holds:
        return "holds" + (f" ({v.note})" if v.note else "")
    tail = f" witness {v.witness}" + (f": {v.note}" if v.note else "")
    return "fails" + tail


def render_text(doc: ReportDocument) -> str:
    lines = [f"instance: {doc.name} (n={doc.n})"]
    for title, width, dash in (("axioms", 20, " "), ("properties", 13, "-")):
        lines.append(f"{title}:")
        record = getattr(doc, title)
        for f in fields(record):
            label = f.name.replace("_", dash) + ":"
            lines.append(f"  {label:<{width}}{_fmt_verdict(getattr(record, f.name))}")
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
