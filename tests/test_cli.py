import hashlib
import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import lamlat
import lamlat.cli
from lamlat.cli import main
from lamlat.fixtures import fixture, fixture_poset
from lamlat.instances import render_instance
from lamlat.report import ReportDocument


@pytest.fixture
def fig3_file(tmp_path):
    path = tmp_path / "fig3.poset"
    path.write_text(render_instance(fixture("FIG3")))
    return str(path)


def test_classify_counts_the_chains_of_a_ladder_without_listing_them(capsys, tmp_path):
    # bottom, 40 levels of two elements each below both of the next, top: 2**40 chains
    levels = [(f"x{i}", f"y{i}") for i in range(40)]
    covers = [("b", v) for v in levels[0]] + [(v, "t") for v in levels[-1]]
    covers += [(a, b) for low, high in zip(levels, levels[1:]) for a in low for b in high]
    path = tmp_path / "ladder.poset"
    path.write_text(
        "elements: b " + " ".join(v for level in levels for v in level) + " t\n"
        + "covers: " + "  ".join(f"{a} < {b}" for a, b in covers) + "\nacute\n"
    )
    assert main(["classify", str(path), "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["n"] == 82
    assert doc["chain_summary"]["count_from_bottom"] == 2**40


def test_table_text(capsys):
    assert main(["table"]) == 0
    out = capsys.readouterr().out
    lines = [ln.split() for ln in out.strip().splitlines()[1:]]
    assert [ln[:3] for ln in lines] == [
        ["yes", "yes", "yes"],
        ["yes", "yes", "no"],
        ["yes", "no", "no"],
        ["no", "yes", "yes"],
        ["no", "yes", "no"],
        ["no", "no", "no"],
    ]


def test_table_json(capsys):
    assert main(["table", "--json"]) == 0
    rows = json.loads(capsys.readouterr().out)["rows"]
    assert rows[0]["instances"] == ["FIG3", "FIG4"]
    assert rows[-1] == {"sm": False, "wlcc": False, "lcc": False, "instances": ["FIG6"]}


def test_check_file(capsys, fig3_file):
    assert main(["check", fig3_file]) == 0
    assert "axioms hold" in capsys.readouterr().out


def test_check_bare_poset(capsys, tmp_path):
    path = tmp_path / "bare.poset"
    path.write_text(render_instance(fixture_poset("FIG2")))
    assert main(["check", str(path)]) == 0
    out = capsys.readouterr().out
    assert "poset" in out and "bounded: yes" in out


def test_classify_file_and_fixture(capsys, fig3_file):
    assert main(["classify", fig3_file]) == 0
    out = capsys.readouterr().out
    assert "semimodular: holds" in out
    assert main(["classify", "FIG5"]) == 0
    out = capsys.readouterr().out
    assert "wlcc:        fails" in out


def test_classify_json_roundtrip(capsys):
    assert main(["classify", "FIG2", "--json"]) == 0
    doc = ReportDocument.from_dict(json.loads(capsys.readouterr().out))
    assert doc.name == "FIG2"
    assert doc.properties.row() == (False, True, True)


def test_classify_missing_file(capsys):
    assert main(["classify", "missing.poset"]) == 2
    assert "error" in capsys.readouterr().err


def test_classify_bare_poset_is_an_error(capsys, tmp_path):
    path = tmp_path / "bare.poset"
    path.write_text("elements: a b\ncovers: a < b\n")
    assert main(["classify", str(path)]) == 2
    assert "operation tables" in capsys.readouterr().err


def test_parse_error_exits_2(capsys, tmp_path):
    path = tmp_path / "broken.poset"
    path.write_text("elements: a b\ncovers: a <\n")
    assert main(["check", str(path)]) == 2
    assert "line 2" in capsys.readouterr().err


def test_non_utf8_file_exits_2(capsys, tmp_path):
    path = tmp_path / "binary.poset"
    path.write_bytes(b"\xff\xfe bad\n")
    assert main(["check", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "not UTF-8 text" in err


def test_verify_clean(capsys):
    assert main(["verify", "TH1", "--max-n", "3"]) == 0
    out = capsys.readouterr().out
    assert "counterexample: none" in out
    assert "skipped" not in out  # the size guards bound a run, and it skips nothing


def test_verify_counterexample_exit_1(capsys):
    assert main(["verify", "CHAINS_NO_LU", "--max-n", "5"]) == 1
    out = capsys.readouterr().out
    assert "counterexample:" in out and "witness:" in out


def test_verify_json(capsys):
    assert main(["verify", "MONO", "--max-n", "3", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["theorem"] == "MONO"
    assert doc["counterexample"] is None
    assert doc["posets_checked"] == 1 + 2 + 6
    assert doc["posets_skipped"] == 0


@pytest.mark.parametrize("theorem_id, refuted_at, code, expected", [
    ("TH1", 3, 0, "a counterexample"),  # clean, but registered as refuted
    ("CHAINS_NO_LU", None, 1, "clean"),  # refuted, but registered as clean
])
def test_verify_reports_a_missed_expectation_and_keeps_its_exit_code(
        monkeypatch, capsys, theorem_id, refuted_at, code, expected):
    th = lamlat.search.THEOREMS[theorem_id]
    monkeypatch.setitem(lamlat.search.THEOREMS, theorem_id, replace(th, refuted_at=refuted_at))
    assert main(["verify", theorem_id, "--max-n", "5"]) == code
    assert f"expected: {expected} (MISSED)\n" in capsys.readouterr().out
    assert main(["verify", theorem_id, "--max-n", "5", "--json"]) == code
    doc = json.loads(capsys.readouterr().out)
    assert (doc["expected_clean"], doc["expectation_met"]) == (expected == "clean", False)


def test_verify_unknown_theorem(capsys):
    assert main(["verify", "BOGUS"]) == 2
    assert "unknown theorem" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["verify", "TH1", "--max-n", "0"],
    ["enumerate", "--n", "0"],
])
def test_sizes_and_budgets_below_one_exit_2(capsys, argv):
    assert main(argv) == 2
    captured = capsys.readouterr()
    flag = argv[-2]  # a size error names the flag the user typed
    assert captured.err.startswith(f"error: {flag} must be at least 1")
    assert "counterexample" not in captured.out


def test_verify_height_at_seven_exits_1(capsys):
    assert main(["verify", "HEIGHT", "--max-n", "7", "--json"]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["counterexample"]["witness"] == [2, 3]


def test_enumerate_count_only(capsys):
    assert main(["enumerate", "--n", "3", "--count-only"]) == 0
    out = capsys.readouterr().out
    assert "n=3: 19" in out and "total: 23" in out


def test_enumerate_counts_every_labeled_poset_up_to_6(capsys):
    assert main(["enumerate", "--n", "6", "--count-only", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["counts"]["6"] == 130023
    assert doc["total"] == 134496  # A001035 summed over n = 1..6


def test_enumerate_bounded_json(capsys):
    assert main(["enumerate", "--n", "3", "--bounded", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["counts"] == {"1": 1, "2": 2, "3": 6}
    assert len(doc["posets"]) == doc["total"] == 9


# sha256 of the listings printed before enumerate wrote them piece by piece;
# the canonical ones pin the representatives of the size-sorted canonical form
ENUMERATE_LISTING_SHA256 = {
    ("--n", "5", "--json"): "eb714323260dd4be860ede64e6dd29564126750444b6f17bf19bea735cefb3f8",
    ("--n", "6", "--bounded"): "ce3bcb468d6f70c8369c6168d90d35d6fc0bb7ba8cf8cd2a55c6157e9d39f614",
    ("--n", "5", "--canonical", "--json"):
        "83bf1080bd1c3b074bb38890a19185bbb7e307d1b1c8e524d6b9792a1deb1fe1",
    ("--n", "6", "--bounded", "--canonical"):
        "a6a5840080480f79260a4041b5ae2f37261233c8825214d3e18ca5b605fc1aac",
    ("--n", "7", "--canonical"): "bbb6a11a8433af0b8060139642468d20f80af0a5e9e5a5de73abd63597ed86da",
}


@pytest.mark.parametrize("args", sorted(ENUMERATE_LISTING_SHA256))
def test_enumerate_listing_is_pinned(capsys, args):
    assert main(["enumerate", *args]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == ENUMERATE_LISTING_SHA256[args]


def test_enumerate_listing_over_the_cap_exits_2(capsys, monkeypatch):
    assert lamlat.cli.LISTING_CAP >= 184_697  # every bounded poset up to 7 elements lists
    monkeypatch.setattr(lamlat.cli, "LISTING_CAP", 10)
    assert main(["enumerate", "--n", "3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: listing stops at 10 posets; use --count-only, "
                            "or narrow the listing with --bounded or --canonical\n")
    assert main(["enumerate", "--n", "3", "--count-only"]) == 0  # counting is not capped
    assert "total: 23" in capsys.readouterr().out
    assert main(["enumerate", "--n", "3", "--bounded"]) == 0  # 9 posets fit


def test_every_public_name_resolves():
    missing = [name for name in lamlat.__all__ if not hasattr(lamlat, name)]
    assert missing == []
    assert len(set(lamlat.__all__)) == len(lamlat.__all__)


def test_export_dot(capsys, fig3_file):
    assert main(["export-dot", fig3_file]) == 0
    out = capsys.readouterr().out
    assert out.startswith("digraph hasse {")
    assert main(["export-dot", "FIG4"]) == 0
    out = capsys.readouterr().out
    assert sum(1 for ln in out.splitlines() if "->" in ln) == 16


def test_usage_error_exit_2(capsys):
    assert main(["frobnicate"]) == 2
    assert main([]) == 2
    assert main(["verify", "TH1", "--budget", "5"]) == 2  # no per-poset budget to set
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "unrecognized arguments: --budget 5" in captured.err


def test_help_exit_0(capsys):
    assert main(["--help"]) == 0


def test_python_dash_m_runs_the_cli():
    src = str(Path(lamlat.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}

    def run(*args):
        return subprocess.run([sys.executable, "-m", "lamlat", *args], env=env,
                              capture_output=True, text=True, timeout=60)

    ok = run("verify", "TH1", "--max-n", "3")
    assert ok.returncode == 0, ok.stderr
    assert "counterexample: none" in ok.stdout
    bad = run("enumerate", "--n", "0")
    assert bad.returncode == 2
    assert bad.stderr.startswith("error:")


def test_size_help_names_the_stream_guards(capsys, monkeypatch):
    # the help strings read search's guards, so lifting one is one constant edit
    from lamlat.search import HARD_MAX_CANONICAL, HARD_MAX_ELEMENTS

    def help_text(command):
        assert main([command, "--help"]) == 0
        return " ".join(capsys.readouterr().out.split())

    assert f"at most {HARD_MAX_ELEMENTS}" in help_text("verify")
    assert (f"at most {HARD_MAX_ELEMENTS}, or {HARD_MAX_CANONICAL} with --canonical"
            in help_text("enumerate"))
    monkeypatch.setattr(lamlat.cli, "HARD_MAX_ELEMENTS", 11)
    monkeypatch.setattr(lamlat.cli, "HARD_MAX_CANONICAL", 12)
    assert "at most 11" in help_text("verify")
    assert "at most 11, or 12 with --canonical" in help_text("enumerate")
