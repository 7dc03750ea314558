import json

import pytest

from lamlat import (
    AcuteCharacterization,
    AcuteClause,
    AxiomReport,
    ChainSummary,
    PropertyReport,
    Verdict,
    acute_characterization,
    build_report,
    mk_poset,
)
from lamlat.fixtures import FIXTURE_NAMES, fixture
from lamlat.report import ReportDocument
from lamlat.verdict import failing


def test_report_fields_fig2():
    doc = build_report("FIG2", fixture("FIG2"))
    assert doc.n == 7
    assert doc.axioms.all_pass
    assert doc.properties.row() == (False, True, True)
    assert doc.heights == (0, 1, 1, 1, 2, 2, 3)
    assert doc.chain_summary.count_from_bottom == 5
    assert doc.chain_summary.lengths_from_bottom == (3,)
    assert doc.chain_summary.equal_length_from_every_element
    assert doc.acute.clause is AcuteClause.FAILS


def test_report_fig5_chain_summary():
    doc = build_report("FIG5", fixture("FIG5"))
    assert doc.chain_summary.lengths_from_bottom == (3, 4)
    assert not doc.chain_summary.equal_length_from_every_element


def test_roundtrip_every_fixture():
    for name in FIXTURE_NAMES:
        doc = build_report(name, fixture(name))
        assert ReportDocument.from_dict(doc.to_dict()) == doc


def test_dict_encoding_is_json_friendly():
    doc = build_report("FIG3", fixture("FIG3"))
    blob = json.dumps(doc.to_dict(), sort_keys=True)
    assert ReportDocument.from_dict(json.loads(blob)) == doc


# ----- the dict codec shared by the report records -----

def _records():
    doc = build_report("FIG5", fixture("FIG5"))
    mk = acute_characterization(mk_poset(3))
    return [
        doc, doc.axioms, doc.properties, doc.chain_summary, doc.acute, mk,
        Verdict(False, (2, 0, 1), "h(a)=1"), Verdict(True, note="finite carrier"),
    ]


@pytest.mark.parametrize("record", _records(), ids=lambda r: type(r).__name__)
def test_every_record_roundtrips_through_json(record):
    assert type(record).from_dict(json.loads(json.dumps(record.to_dict()))) == record


def test_record_encoding():
    assert Verdict(False, (2, 0, 1), "x").to_dict() == {
        "holds": False, "witness": [2, 0, 1], "note": "x",
    }
    mk = acute_characterization(mk_poset(3))
    assert mk.to_dict() == {
        "clause": "antichain-between-bounds", "k": 3, "atoms": [1, 2, 3], "coatoms": [1, 2, 3],
    }
    cs = ChainSummary(False, 2, (3, 4))
    assert cs.to_dict() == {
        "equal_length_from_every_element": False, "count_from_bottom": 2,
        "lengths_from_bottom": [3, 4],
    }
    d = build_report("FIG5", fixture("FIG5")).to_dict()
    assert isinstance(d["axioms"]["absorption"], dict) and isinstance(d["labels"], list)
    assert set(d["properties"]) == set(PropertyReport.__dataclass_fields__)


def test_failing_serves_one_validated_verdict_per_witness_and_note():
    v = failing((2, 0, 1), "h(a)=1")
    assert v == Verdict(False, (2, 0, 1), "h(a)=1")
    assert failing((2, 0, 1), "h(a)=1") is v
    assert failing((0, 1)) is failing((0, 1), "") == Verdict(False, (0, 1))
    assert failing((0, 1)) is not failing((0, 1), "x")
    with pytest.raises(ValueError, match="must carry a witness"):
        failing(None)
    with pytest.raises(ValueError, match="must not carry a witness"):
        Verdict(True, (0,))
    assert bool(failing((0,))) is False and bool(Verdict(True)) is True


def test_from_dict_fills_missing_optional_keys():
    assert Verdict.from_dict({"holds": True}) == Verdict(True)
    assert Verdict.from_dict({"holds": False, "witness": [0, 1]}) == Verdict(False, (0, 1))
    assert AcuteCharacterization.from_dict(
        {"clause": "fails", "atoms": [2, 1], "coatoms": [3]}
    ) == AcuteCharacterization(AcuteClause.FAILS, None, frozenset({1, 2}), frozenset({3}))
    full = build_report("FIG3", fixture("FIG3"))
    d = full.to_dict()
    for key in ("heights", "chain_summary", "acute"):
        del d[key]
    for v in d["axioms"].values():
        del v["witness"], v["note"]
    doc = ReportDocument.from_dict(d)
    assert doc.heights is doc.chain_summary is doc.acute is None
    assert doc.axioms == AxiomReport(Verdict(True), Verdict(True), Verdict(True))
    assert doc.properties == full.properties
