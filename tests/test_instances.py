from itertools import chain

import pytest

from lamlat import (
    ArgumentError,
    BadChoiceError,
    CycleError,
    IncompleteChoiceError,
    LambdaLattice,
    NotDirectedError,
    ParseError,
    Poset,
    acute,
    from_choice,
    mk_poset,
)
from lamlat.fixtures import fixture, fixture_poset
from lamlat.instances import parse_instance, render_instance

from oracles import incomparable_cells_naive, least_bound_naive, relation_from_covers

FIG3_TEXT = """\
# six elements, two free choices
elements: 0 a b c d 1
covers: 0 < a  0 < b  a < c  a < d  b < c  b < d  c < 1  d < 1
join: a b = c
meet: c d = a
"""


def test_parse_fig3():
    ll = parse_instance(FIG3_TEXT)
    assert isinstance(ll, LambdaLattice)
    assert ll == fixture("FIG3")
    assert ll.labels == ("0", "a", "b", "c", "d", "1")


def test_parse_bare_poset():
    p = parse_instance("elements: x y z\ncovers: x < y  y < z\n")
    assert isinstance(p, Poset)
    assert p.covers == ((0, 1), (1, 2))


def test_parse_acute_directive():
    src = render_instance(fixture_poset("FIG3")) + "acute\n"
    ll = parse_instance(src)
    assert ll == fixture("ACUTE-FIG3")


def test_parse_acute_keeps_explicit_choices():
    src = render_instance(fixture_poset("FIG3")) + "join: a b = c\nacute\n"
    ll = parse_instance(src)
    assert ll.join_table[1][2] == 3  # explicit beats the acute fill
    assert ll.meet_table[3][4] == 0


def test_parse_acute_on_an_unbounded_poset_is_not_directed():
    with pytest.raises(NotDirectedError):
        parse_instance("elements: 0 a b\ncovers: 0 < a  0 < b\nacute\n")


def test_parse_bad_choice():
    text = FIG3_TEXT.replace("join: a b = c", "join: a b = b")
    with pytest.raises(BadChoiceError) as err:
        parse_instance(text)
    assert err.value.pair == (1, 2)


def test_parse_comparable_assignment_rejected():
    text = FIG3_TEXT + "join: 0 a = a\n"
    with pytest.raises(BadChoiceError, match=r"^line 6: join\(0, a\) assigns a comparable pair;"):
        parse_instance(text)


def test_parse_incomplete():
    text = "\n".join(FIG3_TEXT.splitlines()[:-1]) + "\n"  # drop the meet line
    with pytest.raises(IncompleteChoiceError) as err:
        parse_instance(text)
    assert (3, 4) in err.value.pairs


def test_parse_errors_carry_line_numbers():
    with pytest.raises(ParseError) as err:
        parse_instance("elements: a b\nnonsense: a b\n")
    assert err.value.line == 2

    with pytest.raises(ParseError) as err:
        parse_instance("elements: a b\ncovers: a <\n")
    assert err.value.line == 2

    with pytest.raises(ParseError) as err:
        parse_instance("covers: a < b\n")
    assert "elements" in str(err.value)

    with pytest.raises(ParseError) as err:
        parse_instance("elements: a a\n")
    assert err.value.line == 1


_HEAD = "elements: a b c d\ncovers: a < b  a < c  a < d\n"


@pytest.mark.parametrize("text, message, line, column", [
    ("elements: a b\nelements: c\n", "duplicate elements: line", 2, 1),
    ("elements:\n", "elements: needs at least one name", 1, 1),
    ("elements: a b\ncovers: a > b\n", "expected '<', got '>'", 2, 11),
    (_HEAD + "join: b c d\n", "join: expects '<a> <b> = <c>'", 3, 1),
    (_HEAD + "join: b b = a\n", "join needs two distinct elements", 3, 7),
])
def test_a_malformed_line_is_reported_with_its_message_and_position(text, message, line, column):
    with pytest.raises(ParseError) as err:
        parse_instance(text)
    assert str(err.value) == f"line {line}: {message}"
    assert (err.value.line, err.value.column) == (line, column)


def test_parse_unknown_element():
    with pytest.raises(ParseError) as err:
        parse_instance("elements: a b\ncovers: a < z\n")
    assert "z" in str(err.value)


@pytest.mark.parametrize("line, name", [
    ("covers: a < zz", "zz"),  # the right-hand name of a cover group
    ("covers: zz < a", "zz"),
    ("join: b c = qq", "qq"),  # the value of an assignment
    ("meet: b qq = c", "qq"),  # the second name of its pair
])
def test_an_unknown_element_is_reported_at_its_own_column(line, name):
    with pytest.raises(ParseError, match=f"unknown element '{name}'") as err:
        parse_instance(f"elements: a b c\n{line}\n")
    assert (err.value.line, err.value.column) == (2, line.index(name) + 1)


def test_parse_duplicate_assignment():
    text = FIG3_TEXT + "join: b a = d\n"
    with pytest.raises(ParseError) as err:
        parse_instance(text)
    assert "duplicate" in str(err.value)


def test_parse_cycle_propagates():
    with pytest.raises(CycleError):
        parse_instance("elements: a b\ncovers: a < b  b < a\n")


def test_parse_comments_and_blank_lines():
    text = "\n# leading comment\n\nelements: a b  # trailing\ncovers: a < b\n\n"
    p = parse_instance(text)
    assert p.covers == ((0, 1),)


def test_roundtrip_every_completion_and_fixture(completions_upto5, fixtures):
    # a completion whose every value is forced, as any lattice, reads back
    # through its bare 'lattice' line; a chain has no incomparable pair at all
    chain_completion = from_choice(Poset.from_covers(3, [(0, 1), (1, 2)]))
    marked = 0
    for ll in chain(completions_upto5, fixtures.values(), [chain_completion]):
        text = render_instance(ll)
        back = parse_instance(text)
        assert back == ll and render_instance(back) == text, text
        marked += text.endswith("\nlattice\n")
    assert marked == 425 + 1


def test_lattice_directive_marks_a_completion():
    text = "elements: 0 a b 1\ncovers: 0 < a  0 < b  a < 1  b < 1\n"
    assert isinstance(parse_instance(text), Poset)
    assert parse_instance(text + "lattice\n") == from_choice(mk_poset(2))
    with pytest.raises(ParseError, match="'now' after 'lattice'") as err:
        parse_instance(text + "lattice now\n")
    assert (err.value.line, err.value.column) == (3, 9)


@pytest.mark.parametrize("labels", [
    ("a#x", "b c", "d"),  # '#' starts a comment and the space splits the name
    ("", "b", "c"),
    ("a", "b\tc", "d"),
    ("a", "b", "c\n"),
    ("a", "b\u2028", "c"),  # a line break for splitlines
])
def test_labels_that_would_not_parse_back_are_rejected(labels):
    with pytest.raises(ArgumentError, match="labels must be nonempty and hold no whitespace or '#'"):
        Poset.from_covers(3, [(0, 1), (0, 2)], labels=labels)
    with pytest.raises(ArgumentError):
        Poset([[1, 1, 1], [0, 1, 0], [0, 0, 1]], labels=labels)


def test_labels_that_look_like_syntax_still_round_trip():
    labels = ("<", "=", "acute", "elements:", "join:")
    p = Poset.from_covers(5, [(0, 1), (0, 2), (1, 3), (2, 3), (3, 4)], labels=labels)
    ll = acute(p)
    assert "join: = acute = join:" in render_instance(ll)  # the top, not the forced 'elements:'
    for instance in (p, ll):
        back = parse_instance(render_instance(instance))
        assert back == instance and back.labels == labels


def test_roundtrip_bare_poset():
    p = fixture_poset("FIG4")
    assert parse_instance(render_instance(p)) == p


def test_render_minimal():
    # FIG5: joins to the top are forced, only meet(c, d) = 0 departs from
    # the forced values (meet(b, c) = a is the unique maximal lower bound)
    text = render_instance(fixture("FIG5"))
    assert "join:" not in text
    assert text.count("meet:") == 1
    assert "meet: c d = 0" in text


def test_render_lines_are_the_picks_that_differ_from_the_oracle_bounds(completions_upto5, fixtures):
    # a join:/meet: line for exactly the incomparable pairs whose value is not
    # the least upper (greatest lower) bound, or that have none; joins first
    instances = lines = joins = unforced = 0
    for ll in chain(completions_upto5, fixtures.values()):
        n = ll.n
        rel = relation_from_covers(n, ll.poset.covers)
        names = [ll.label(i) for i in range(n)]
        pairs = [(x, y) for x, y in incomparable_cells_naive(n, rel) if x < y]
        expected = [
            f"{op}: {names[x]} {names[y]} = {names[table[x][y]]}"
            for op, side, table in (("join", "upper", ll.join_table), ("meet", "lower", ll.meet_table))
            for x, y in pairs
            if table[x][y] != least_bound_naive(n, rel, x, y, side)
        ]
        text = render_instance(ll).splitlines()
        assert [t for t in text if t.startswith(("join:", "meet:"))] == expected, ll
        instances += 1
        lines += len(expected)
        joins += sum(t.startswith("join:") for t in expected)
        unforced += bool(expected)
    assert instances == 545 + 7
    assert 0 < joins < lines
    assert 0 < unforced < instances


def test_render_acute_of_mk_needs_no_choices():
    from lamlat import mk_poset

    text = render_instance(acute(mk_poset(3)))
    assert "join:" not in text and "meet:" not in text
