"""CLI output pinned against checked-in goldens.

Refactors must leave the --json output of every fixture command, the
fixture table, a canonical enumeration count and every theorem's verify
result byte-identical. verify's elapsed_seconds is the one field dropped,
because it is a timing.

Regenerate (only when an output change is intended) with

    PYTHONPATH=src python tests/test_golden.py
"""

import json
from pathlib import Path

import pytest

from lamlat.cli import main
from lamlat.fixtures import FIXTURE_NAMES
from lamlat.search import THEOREMS

GOLDEN = Path(__file__).parent / "golden"

# acceptance criterion 4 already replays these at their default n = 6
_SMALLER = {"CHAINS": 5, "ACUTE": 5, "COR1": 5}


def _cases() -> dict[str, list[str]]:
    cases = {}
    for name in FIXTURE_NAMES:
        for command in ("check", "classify", "export-dot"):
            cases[f"{command}_{name}"] = [command, name, "--json"]
    cases["table"] = ["table", "--json"]
    cases["enumerate_5_canonical"] = [
        "enumerate", "--n", "5", "--canonical", "--count-only", "--json",
    ]
    for tid in THEOREMS:
        argv = ["verify", tid, "--json"]
        if tid in _SMALLER:
            argv += ["--max-n", str(_SMALLER[tid])]
        cases[f"verify_{tid}"] = argv
    # HEIGHT as formalised has its least counterexample at n = 7
    cases["verify_HEIGHT_7"] = ["verify", "HEIGHT", "--max-n", "7", "--json"]
    return cases


CASES = _cases()


def _run(argv: list[str], read_stdout) -> tuple[int, str]:
    code = main(argv)
    out = read_stdout()
    if argv[0] == "verify":
        payload = json.loads(out)
        del payload["elapsed_seconds"]
        out = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    return code, out


@pytest.mark.parametrize("case", sorted(CASES))
def test_cli_output_matches_golden(case, capsys):
    exits = json.loads((GOLDEN / "exits.json").read_text())
    code, out = _run(CASES[case], lambda: capsys.readouterr().out)
    assert code == exits[case]
    assert out == (GOLDEN / f"{case}.out").read_text()


def test_every_golden_has_a_case():
    assert {p.stem for p in GOLDEN.glob("*.out")} == set(CASES)


if __name__ == "__main__":
    import io
    from contextlib import redirect_stdout

    GOLDEN.mkdir(exist_ok=True)
    exits = {}
    for case, argv in CASES.items():
        buf = io.StringIO()
        with redirect_stdout(buf):
            exits[case], out = _run(argv, buf.getvalue)
        (GOLDEN / f"{case}.out").write_text(out)
    (GOLDEN / "exits.json").write_text(json.dumps(exits, indent=2, sort_keys=True) + "\n")
    print(f"wrote {len(CASES)} goldens to {GOLDEN}")
