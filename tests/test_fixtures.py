import pytest

from lamlat import ArgumentError, check_axioms, classify, is_semimodular, satisfies_lcc, satisfies_wlcc
from lamlat.fixtures import FIXTURE_NAMES, catalog, fig6_family, fixture, fixture_poset


def test_catalog_complete():
    cat = catalog()
    assert tuple(cat) == FIXTURE_NAMES
    assert len(cat) == 7


def test_fixture_sizes():
    sizes = {name: fixture(name).n for name in FIXTURE_NAMES}
    assert sizes == {
        "FIG2": 7, "FIG2-VARIANT": 7, "FIG3": 6, "FIG4": 10,
        "FIG5": 6, "FIG6": 7, "ACUTE-FIG3": 6,
    }


def test_every_fixture_passes_axioms():
    for name in FIXTURE_NAMES:
        ll = fixture(name)
        assert check_axioms(ll.join_table, ll.meet_table).all_pass, name


def test_fig2_choices():
    ll = fixture("FIG2")
    a, b, c, d, e = 1, 2, 3, 4, 5
    assert ll.join_table[a][b] == d
    assert ll.join_table[a][c] == e
    assert ll.join_table[b][c] == e
    assert ll.meet_table[d][e] == b


def test_fig2_variant_only_differs_at_ab():
    base, var = fixture("FIG2"), fixture("FIG2-VARIANT")
    assert var.join_table[1][2] == 6
    for x in range(7):
        for y in range(7):
            if {x, y} != {1, 2}:
                assert base.join_table[x][y] == var.join_table[x][y]
            assert base.meet_table[x][y] == var.meet_table[x][y]


def test_fig4_explicit_choices():
    ll = fixture("FIG4")
    a, b, c, d, e, f, g, h = range(1, 9)
    assert ll.join_table[a][e] == h
    assert ll.join_table[b][c] == f
    assert ll.join_table[c][d] == f
    assert ll.join_table[d][e] == h
    assert ll.meet_table[f][g] == c
    assert ll.meet_table[g][h] == e
    # pairs with a defined sup/inf got it: a v b = d, f ^ h = d
    assert ll.join_table[a][b] == d
    assert ll.meet_table[f][h] == d


def test_fig5_choices():
    ll = fixture("FIG5")
    assert ll.meet_table[2][3] == 1  # b ^ c = a
    assert ll.meet_table[3][4] == 0  # c ^ d = 0
    assert ll.join_table[2][3] == 5 and ll.join_table[3][4] == 5


def test_fig6_covers_the_seven_element_diagram():
    p = fixture_poset("FIG6")
    assert p.n == 7
    assert p.covers == ((0, 1), (0, 3), (1, 2), (2, 4), (2, 5), (3, 4), (3, 5), (4, 6), (5, 6))


def test_fig6_family_claims():
    family = fig6_family()
    assert len(family) == 12  # 3 joins for (b, c) times 4 meets for (d, e)
    for ll in family:
        assert ll.join_table[1][3] == 4
        assert not is_semimodular(ll).holds
        assert not satisfies_wlcc(ll).holds
        assert not satisfies_lcc(ll).holds


def test_summary_rows(fixtures):
    rows = {name: classify(ll).row() for name, ll in fixtures.items()}
    assert rows == {
        "FIG3": (True, True, True),
        "FIG4": (True, True, True),
        "ACUTE-FIG3": (True, True, False),
        "FIG5": (True, False, False),
        "FIG2": (False, True, True),
        "FIG2-VARIANT": (False, True, False),
        "FIG6": (False, False, False),
    }


@pytest.mark.parametrize("lookup, name", [
    pytest.param(fixture, "fig3", id="fixture"),
    pytest.param(fixture_poset, "fig3", id="fixture_poset"),
    # unhashable names are rejected before the parse cache sees them
    pytest.param(fixture, ["FIG3"], id="fixture-list"),
    pytest.param(fixture_poset, {"FIG3": 1}, id="fixture_poset-dict"),
])
def test_an_unknown_fixture_name_raises_argument_error_naming_the_catalog(lookup, name):
    with pytest.raises(ArgumentError) as err:
        lookup(name)
    assert str(err.value) == (
        f"unknown fixture {name!r}; known fixtures: FIG2, FIG2-VARIANT, FIG3, FIG4, FIG5, FIG6, ACUTE-FIG3")
