"""Decision procedures: semimodularity, covering conditions, heights, acute classification.

Comparable-cell rule: a lambda-lattice holds max and min on every
comparable pair, so on those cells each condition here holds from the
order alone. The checkers therefore scan only the ordered pairs (x, y)
with x || y, ascending: Poset._incomparable_cells, which the completion
pass stores, so the first failure found is still the least witness.
Where the premise is not itself x || y, the docstring gives the reason
the comparable cells are safe to skip.
"""

from dataclasses import dataclass
from enum import Enum

from .errors import UnboundedError
from .lattice import LambdaLattice, _monotone_failure
from .poset import Poset, _bits
from .verdict import HOLDS, DictRecord, Verdict

_DCC = Verdict(True, note="finite carrier: every descending chain terminates")


def _semimodular_frames(ll: LambdaLattice):
    """(x, y, between, ucands) for every x || y with some z strictly between x^y and x.

    between is the mask of those z; ucands are the u with x^y < u <= y.
    """
    p = ll.poset
    up, down = p._up, p._down
    mt = ll.meet_table
    for x, y in p._incomparable_cells:
        m = mt[x][y]
        between = up[m] & down[x] & ~(1 << m) & ~(1 << x)
        if between:
            yield x, y, between, _bits(up[m] & down[y] & ~(1 << m))


def is_semimodular(ll: LambdaLattice) -> Verdict:
    """For x || y and x^y < z < x, some u with x^y < u <= y has (z v u) ^ x = z.

    A failing verdict carries the least triple (x, y, z) for which no
    such u exists.
    """
    jt, mt = ll.join_table, ll.meet_table
    for x, y, between, ucands in _semimodular_frames(ll):
        for z in _bits(between):
            for u in ucands:
                if mt[jt[z][u]][x] == z:
                    break
            else:
                return Verdict(False, (x, y, z))
    return HOLDS


def lemma1_refutes(ll: LambdaLattice) -> tuple[int, int, int, int] | None:
    """Quadruple (x, y, c, d) on which semimodularity cannot hold.

    Requires x || y, two distinct elements c, d strictly between x^y and
    x, and c v e = d v f for every e, f with x^y < e, f <= y. A returned
    quadruple implies is_semimodular() fails.
    """
    jt = ll.join_table
    for x, y, between, es in _semimodular_frames(ll):
        if between.bit_count() < 2:
            continue
        cs = _bits(between)
        for c in cs:
            joins_c = {jt[c][e] for e in es}
            if len(joins_c) != 1:
                continue
            for d in cs:
                if d == c:
                    continue
                if {jt[d][f] for f in es} == joins_c:
                    return (x, y, c, d)
    return None


def _lower_covering(ll: LambdaLattice, guard) -> Verdict:
    """x^y -< x with x v y in the mask guard[x] forces y -< x v y.

    Only x || y can fail: x <= y has meet x, not covered by x; y < x has y -< x v y = x.
    """
    p = ll.poset
    cov = p._covers_above
    jt, mt = ll.join_table, ll.meet_table
    for x, y in p._incomparable_cells:
        j = jt[x][y]
        if cov[mt[x][y]] >> x & 1 and not cov[y] >> j & 1 and guard[x] >> j & 1:
            return Verdict(False, (x, y))
    return HOLDS


def satisfies_wlcc(ll: LambdaLattice) -> Verdict:
    """Weak lower covering condition: x^y -< x -< x v y forces y -< x v y."""
    return _lower_covering(ll, ll.poset._covers_above)


def satisfies_lcc(ll: LambdaLattice) -> Verdict:
    """Lower covering condition: x^y -< x forces y -< x v y."""
    return _lower_covering(ll, (-1,) * ll.poset.n)  # all-ones rows: no x -< x v y guard


def _meet_steps(ll: LambdaLattice, steps) -> Verdict:
    """x || y, x || z and z in the mask steps[y] force x ^ y <= x ^ z."""
    p = ll.poset
    up, inc = p._up, p._incomparable
    mt = ll.meet_table
    for x, y in p._incomparable_cells:
        for z in _bits(steps[y] & inc[x] & ~(1 << y)):
            if not up[mt[x][y]] >> mt[x][z] & 1:
                return Verdict(False, (x, y, z))
    return HOLDS


def cond3(ll: LambdaLattice) -> Verdict:
    """x || y, x || z and y < z force x ^ y <= x ^ z.

    Equivalent to cond4 on a finite carrier: each c on a saturated chain
    from y up to z is incomparable to x (c <= x gives y <= x, x <= c gives
    x <= z), so cond4 applied cover by cover along the chain gives cond3.
    """
    return _meet_steps(ll, ll.poset._up)


def cond4(ll: LambdaLattice) -> Verdict:
    """x || y, x || z and y -< z force x ^ y <= x ^ z: cond3 on covers, equivalent to it when finite."""
    return _meet_steps(ll, ll.poset._covers_above)


def cond5(ll: LambdaLattice) -> Verdict:
    """x || y, x < z and y -< z force z not strictly below x v y."""
    p = ll.poset
    up, cov = p._up, p._covers_above
    jt = ll.join_table
    for x, y in p._incomparable_cells:
        j = jt[x][y]
        for z in _bits(up[x] & cov[y]):
            if z != j and up[z] >> j & 1:
                return Verdict(False, (x, y, z))
    return HOLDS


def dcc(ll: LambdaLattice) -> Verdict:
    """Descending chain condition; automatic on a finite carrier."""
    return _DCC


def height_inequality(ll: LambdaLattice) -> Verdict:
    """h(a v b) - h(a ^ b) <= |h(a) - h(b)| + 2 on qualifying pairs.

    A pair qualifies when a, b are comparable or a ^ b is covered by a
    or by b. Only a || b can fail: comparable pairs give h(a v b) - h(a ^ b) = |h(a) - h(b)|.
    The note of a failing verdict records the four heights.
    """
    p = ll.poset
    h = p.heights
    cov = p._covers_above
    jt, mt = ll.join_table, ll.meet_table
    for a, b in p._incomparable_cells:
        m = mt[a][b]
        if not (cov[m] >> a & 1 or cov[m] >> b & 1):
            continue
        j = jt[a][b]
        if h[j] - h[m] > abs(h[a] - h[b]) + 2:
            return Verdict(
                False, (a, b),
                f"h(a)={h[a]} h(b)={h[b]} h(join)={h[j]} h(meet)={h[m]}",
            )
    return HOLDS


def monotone_wedge(ll: LambdaLattice) -> Verdict:
    """Monotonicity of meet alone: x <= y forces x ^ z <= y ^ z."""
    witness = _monotone_failure(ll, (ll.meet_table,))
    return HOLDS if witness is None else Verdict(False, witness)


# ----- acute classification -----


class AcuteClause(Enum):
    """Structural clauses under which the acute completion satisfies the LCC."""

    NO_ATOMS = "no-atoms"
    UNIQUE_ATOM_BELOW_ALL = "unique-atom-below-all"
    ISO_TO_MK = "antichain-between-bounds"
    FAILS = "fails"


@dataclass(frozen=True)
class AcuteCharacterization(DictRecord):
    clause: AcuteClause
    k: int | None
    atoms: frozenset[int]
    coatoms: frozenset[int]


def mk_isomorphic(p: Poset) -> int | None:
    """k > 1 when p is bounded of length two with a k-element middle antichain."""
    if p.n < 4 or p.bottom is None or p.top is None:
        return None
    middle = frozenset(range(p.n)) - {p.bottom, p.top}
    if p.atoms() == middle == p.coatoms():
        return p.n - 2
    return None


def acute_characterization(p: Poset) -> AcuteCharacterization:
    """Which structural clause, if any, the bounded poset satisfies.

    A clause other than FAILS holds exactly when the acute completion
    satisfies the lower covering condition: either there are no atoms
    (singleton carrier), or the unique atom sits below every nonzero
    element, or the poset is a two-level antichain Mk with k > 1.
    """
    if p.bounds() is None:
        raise UnboundedError("the acute characterization needs a bounded poset")
    atoms = p.atoms()
    coatoms = p.coatoms()
    k = None
    if not atoms:
        clause = AcuteClause.NO_ATOMS
    elif len(atoms) == 1:
        # on a finite carrier each x above the bottom lies above a minimal
        # element of (0, x], which is an atom: a unique atom is below them all
        clause = AcuteClause.UNIQUE_ATOM_BELOW_ALL
    else:
        k = mk_isomorphic(p)
        clause = AcuteClause.ISO_TO_MK if k is not None else AcuteClause.FAILS
    return AcuteCharacterization(clause, k, atoms, coatoms)


# ----- aggregate report -----


@dataclass(frozen=True)
class PropertyReport(DictRecord):
    """One verdict per structural property of a single instance."""

    semimodular: Verdict
    wlcc: Verdict
    lcc: Verdict
    cond3: Verdict
    cond4: Verdict
    cond5: Verdict
    dcc: Verdict
    lu_covering: Verdict

    def row(self) -> tuple[bool, bool, bool]:
        """(semimodular, wlcc, lcc) truth triple."""
        return (self.semimodular.holds, self.wlcc.holds, self.lcc.holds)


def classify(ll: LambdaLattice) -> PropertyReport:
    """All property verdicts for one instance."""
    return PropertyReport(
        semimodular=is_semimodular(ll),
        wlcc=satisfies_wlcc(ll),
        lcc=satisfies_lcc(ll),
        cond3=cond3(ll),
        cond4=cond4(ll),
        cond5=cond5(ll),
        dcc=dcc(ll),
        lu_covering=ll.poset.has_lu_covering(),
    )
