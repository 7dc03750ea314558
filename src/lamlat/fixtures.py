"""Built-in example instances.

Seven small instances whose semimodularity / weak lower covering / lower
covering profiles jointly realize every achievable combination of the
three properties. Ids follow the numbering of the bundled Hasse diagrams.
Each is written in the instance-file format of instances.py.
"""

from functools import lru_cache

from .errors import ArgumentError
from .instances import parse_instance
from .lattice import LambdaLattice
from .poset import Poset

_FIG2 = """\
elements: 0 a b c d e 1
covers: 0 < a  0 < b  0 < c  a < d  a < e  b < d  b < e  c < e  d < 1  e < 1
meet: d e = b
"""
_FIG3 = """\
elements: 0 a b c d 1
covers: 0 < a  0 < b  a < c  a < d  b < c  b < d  c < 1  d < 1
"""
_TEXTS = {
    "FIG2": _FIG2 + "join: a b = d\n",
    "FIG2-VARIANT": _FIG2 + "join: a b = 1\n",  # as FIG2 but a v b goes to the top
    "FIG3": _FIG3 + "join: a b = c\nmeet: c d = a\n",
    "FIG4": """\
elements: 0 a b c d e f g h 1
covers: 0 < a  0 < b  a < c  a < d  b < d  b < e  c < f  c < g
covers: d < f  d < g  d < h  e < g  e < h  f < 1  g < 1  h < 1
join: a e = h
join: b c = f
join: c d = f
join: d e = h
meet: f g = c
meet: g h = e
""",
    # meet(c, d) = 0 is a deliberately non-maximal lower bound
    "FIG5": """\
elements: 0 a b c d 1
covers: 0 < a  a < b  a < c  b < d  c < 1  d < 1
meet: c d = 0
""",
    # join(a, c) = d pins the family, see fig6_family(); the free choices
    # take the least legal values
    "FIG6": """\
elements: 0 a b c d e 1
covers: 0 < a  0 < c  a < b  b < d  b < e  c < d  c < e  d < 1  e < 1
join: a c = d
join: b c = d
meet: d e = 0
""",
    "ACUTE-FIG3": _FIG3 + "acute\n",
}

FIXTURE_NAMES = tuple(_TEXTS)
_parse = lru_cache(maxsize=None)(parse_instance)  # one instance per catalog text


def fixture(name: str) -> LambdaLattice:
    """A catalog instance by name; any name outside FIXTURE_NAMES, or not a str, raises ArgumentError."""
    if not isinstance(name, str) or name not in _TEXTS:
        raise ArgumentError(f"unknown fixture {name!r}; known fixtures: {', '.join(FIXTURE_NAMES)}")
    return _parse(_TEXTS[name])


def fixture_poset(name: str) -> Poset:
    """Underlying poset of a catalog instance."""
    return fixture(name).poset


def catalog() -> dict[str, LambdaLattice]:
    """All catalog instances keyed by name, in catalog order."""
    return {name: fixture(name) for name in FIXTURE_NAMES}


def fig6_family() -> list[LambdaLattice]:
    """Every completion of the FIG6 poset with join(a, c) = d."""
    from .search import enumerate_completions

    return [ll for ll in enumerate_completions(fixture_poset("FIG6")) if ll.join_table[1][3] == 4]
