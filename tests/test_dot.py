import re

from lamlat import Poset, export_dot, from_choice, mk_poset, parse_instance
from lamlat.fixtures import fixture, fixture_poset


def nodes_and_edges(dot: str) -> tuple[int, int]:
    nodes = sum(1 for line in dot.splitlines() if "[label=" in line)
    edges = sum(1 for line in dot.splitlines() if "->" in line)
    return nodes, edges


def test_fig3_counts():
    assert nodes_and_edges(export_dot(fixture("FIG3"))) == (6, 8)


def test_fig4_counts():
    assert nodes_and_edges(export_dot(fixture("FIG4"))) == (10, 16)


def test_singleton():
    dot = export_dot(Poset([[1]]))
    assert nodes_and_edges(dot) == (1, 0)


def test_deterministic_bytes():
    a = export_dot(fixture("FIG2"))
    b = export_dot(fixture("FIG2"))
    assert a == b
    assert a.encode() == b.encode()


def test_choices_in_comment_block():
    dot = export_dot(fixture("FIG3"))
    assert "// non-forced choices:" in dot
    assert "//   join: a b = c" in dot
    assert "//   meet: c d = a" in dot


def test_a_lattice_says_every_value_is_forced():
    dot = export_dot(from_choice(mk_poset(2)))
    assert "  // non-forced choices:\n  //   (none: all values forced by the order)\n" in dot


def test_bare_poset_has_no_choice_block():
    dot = export_dot(fixture_poset("FIG3"))
    assert "choices" not in dot


def test_rank_groups_follow_heights():
    dot = export_dot(fixture("FIG3"))
    assert "rankdir=BT;" in dot
    assert "{ rank=same; n1; n2; }" in dot  # a and b share height 1


def test_labels_used():
    dot = export_dot(fixture_poset("FIG5"))
    for name in ("0", "a", "b", "c", "d", "1"):
        assert f'[label="{name}"]' in dot


def test_quotes_and_backslashes_in_labels_are_escaped():
    # each label is a DOT string that unescapes back to the label
    text = r'elements: 0 a"b c\ 1' + "\n" + r'covers: 0 < a"b  0 < c\  a"b < 1  c\ < 1' + "\n"
    dot = export_dot(parse_instance(text))
    values = re.findall(r'label=("(?:[^"\\]|\\.)*")\];$', dot, re.MULTILINE)
    assert [re.sub(r"\\(.)", r"\1", v[1:-1]) for v in values] == ["0", 'a"b', "c\\", "1"]
