"""Independent brute-force oracles for expected values.

Everything here works from raw cover lists or raw relation sets and
deliberately avoids the package's bitmask representation, so these
implementations cannot share bugs with the code they check.
"""

from itertools import permutations, product


def is_partial_order(n, rel):
    """rel is a set of (a, b) pairs meaning a <= b."""
    for i in range(n):
        if (i, i) not in rel:
            return False
    for i in range(n):
        for j in range(n):
            if i != j and (i, j) in rel and (j, i) in rel:
                return False
    for (a, b) in rel:
        for c in range(n):
            if (b, c) in rel and (a, c) not in rel:
                return False
    return True


def all_labeled_posets_naive(n):
    """Filter every reflexive relation for antisymmetry and transitivity."""
    pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    found = []
    for bits in product((False, True), repeat=len(pairs)):
        rel = {(i, i) for i in range(n)}
        rel.update(p for p, b in zip(pairs, bits) if b)
        if is_partial_order(n, rel):
            found.append(frozenset(rel))
    return found


def has_bottom(n, rel):
    return any(all((b, j) in rel for j in range(n)) for b in range(n))


def has_top(n, rel):
    return top_element(n, rel) is not None


def top_element(n, rel):
    """The element every element lies below, or None."""
    return next((t for t in range(n) if all((j, t) in rel for j in range(n))), None)


def is_directed_naive(n, rel):
    for x in range(n):
        for y in range(n):
            if not any((x, z) in rel and (y, z) in rel for z in range(n)):
                return False
            if not any((z, x) in rel and (z, y) in rel for z in range(n)):
                return False
    return True


def least_bound_naive(n, rel, x, y, side):
    """The least common upper bound of x and y (side "upper") or their
    greatest common lower bound (side "lower"), or None when there is none."""
    below = (lambda a, b: (a, b) in rel) if side == "upper" else (lambda a, b: (b, a) in rel)
    bounds = {z for z in range(n) if below(x, z) and below(y, z)}
    least = [u for u in bounds if all(below(u, v) for v in bounds)]
    return least[0] if least else None


def reachable_up(n, covers):
    """Up-sets from a raw cover list, by DFS along cover edges."""
    succ = {i: [] for i in range(n)}
    for a, b in covers:
        succ[a].append(b)
    out = []
    for start in range(n):
        seen = set()
        stack = [start]
        while stack:
            v = stack.pop()
            if v in seen:
                continue
            seen.add(v)
            stack.extend(succ[v])
        out.append(frozenset(seen))
    return out


def oracle_upper_bounds(n, covers, x, y):
    ups = reachable_up(n, covers)
    return ups[x] & ups[y]


def oracle_lower_bounds(n, covers, x, y):
    flipped = [(b, a) for a, b in covers]
    downs = reachable_up(n, flipped)
    return downs[x] & downs[y]


def cover_paths(n, covers, start, end):
    """All paths start -> end along cover edges."""
    succ = {i: [] for i in range(n)}
    for a, b in covers:
        succ[a].append(b)
    paths = []

    def walk(v, path):
        if v == end:
            paths.append(tuple(path))
            return
        for w in succ[v]:
            walk(w, path + [w])

    walk(start, [start])
    return paths


def oracle_height(n, covers, bottom, x):
    """Longest cover path from the bottom, counted in steps."""
    paths = cover_paths(n, covers, bottom, x)
    return max(len(p) - 1 for p in paths)


def relation_from_covers(n, covers):
    """The order as a set of (a, b) pairs meaning a <= b."""
    return {(a, b) for a, ups in enumerate(reachable_up(n, covers)) for b in ups}


def is_lattice_naive(n, rel, join, meet):
    """For all x, y: join[x][y] is the least common upper bound and
    meet[x][y] the greatest common lower bound, both of which must exist."""
    for x in range(n):
        for y in range(n):
            upper = {z for z in range(n) if (x, z) in rel and (y, z) in rel}
            lower = {z for z in range(n) if (z, x) in rel and (z, y) in rel}
            least = [u for u in upper if all((u, v) in rel for v in upper)]
            greatest = [w for w in lower if all((v, w) in rel for v in lower)]
            if least != [join[x][y]] or greatest != [meet[x][y]]:
                return False
    return True


# ----- checker oracles -----
#
# rel is the order as a set of (a, b) pairs meaning a <= b; join and meet
# are the completion's tables as nested lists. Each oracle scans x, y, z
# in ascending order and returns the first violating tuple, or None.


def _lt(rel, a, b):
    return a != b and (a, b) in rel


def _incomparable(rel, a, b):
    return (a, b) not in rel and (b, a) not in rel


def cover_relation(n, rel):
    """(a, b) with a < b and no element strictly between."""
    return {
        (a, b) for a in range(n) for b in range(n)
        if _lt(rel, a, b) and not any(_lt(rel, a, c) and _lt(rel, c, b) for c in range(n))
    }


def covers_above_strict(up):
    """Per element, the mask of its covers, from up-set bitmask rows by the
    rule Poset._covers_above first used: each element's strict up-set minus
    the strict up-sets of its members, from a list of every strict up-set.
    It shares the package's representation and is kept as the reference
    for the faster rule."""
    strict = [row & ~(1 << x) for x, row in enumerate(up)]
    out = []
    for s in strict:
        higher = 0
        for z in range(len(up)):
            if s >> z & 1:
                higher |= strict[z]
        out.append(s & ~higher)
    return tuple(out)


def semimodular_witness(n, rel, join, meet):
    """x || y and x^y < z < x with no u, x^y < u <= y, such that (z v u) ^ x = z."""
    for x in range(n):
        for y in range(n):
            if not _incomparable(rel, x, y):
                continue
            m = meet[x][y]
            for z in range(n):
                if _lt(rel, m, z) and _lt(rel, z, x) and not any(
                    _lt(rel, m, u) and (u, y) in rel and meet[join[z][u]][x] == z
                    for u in range(n)
                ):
                    return (x, y, z)
    return None


def lemma1_quadruple(n, rel, join, meet):
    """x || y, distinct c, d strictly between x^y and x, and c v e = d v f
    for every e, f with x^y < e, f <= y."""
    for x in range(n):
        for y in range(n):
            if not _incomparable(rel, x, y):
                continue
            m = meet[x][y]
            between = [c for c in range(n) if _lt(rel, m, c) and _lt(rel, c, x)]
            es = [e for e in range(n) if _lt(rel, m, e) and (e, y) in rel]
            for c in between:
                for d in between:
                    if c != d and all(join[c][e] == join[d][f] for e in es for f in es):
                        return (x, y, c, d)
    return None


def cond3_witness(n, rel, join, meet):
    """x || y, x || z and y < z with x ^ y not below x ^ z."""
    for x in range(n):
        for y in range(n):
            for z in range(n):
                if (_incomparable(rel, x, y) and _incomparable(rel, x, z) and _lt(rel, y, z)
                        and (meet[x][y], meet[x][z]) not in rel):
                    return (x, y, z)
    return None


def cond4_witness(n, rel, join, meet):
    """x || y, x || z and y -< z with x ^ y not below x ^ z."""
    cov = cover_relation(n, rel)
    for x in range(n):
        for y in range(n):
            for z in range(n):
                if (_incomparable(rel, x, y) and _incomparable(rel, x, z) and (y, z) in cov
                        and (meet[x][y], meet[x][z]) not in rel):
                    return (x, y, z)
    return None


def wlcc_witness(n, rel, join, meet):
    """x ^ y -< x -< x v y without y -< x v y."""
    cov = cover_relation(n, rel)
    for x in range(n):
        for y in range(n):
            j = join[x][y]
            if (meet[x][y], x) in cov and (x, j) in cov and (y, j) not in cov:
                return (x, y)
    return None


def lcc_witness(n, rel, join, meet):
    """x ^ y -< x without y -< x v y."""
    cov = cover_relation(n, rel)
    for x in range(n):
        for y in range(n):
            if (meet[x][y], x) in cov and (y, join[x][y]) not in cov:
                return (x, y)
    return None


def cond5_witness(n, rel, join, meet):
    """x || y, x < z and y -< z with z strictly below x v y."""
    cov = cover_relation(n, rel)
    for x in range(n):
        for y in range(n):
            for z in range(n):
                if (_incomparable(rel, x, y) and _lt(rel, x, z) and (y, z) in cov
                        and _lt(rel, z, join[x][y])):
                    return (x, y, z)
    return None


def _heights(n, rel):
    """Longest cover path from the least element to each element, in steps."""
    cov = cover_relation(n, rel)
    memo = {}

    def h(x):
        if x not in memo:
            memo[x] = max((h(w) + 1 for w in range(n) if (w, x) in cov), default=0)
        return memo[x]

    return [h(x) for x in range(n)]


def height_witness(n, rel, join, meet):
    """Pair (a, b), comparable or with a ^ b covered by a or b, on which
    h(a v b) - h(a ^ b) exceeds |h(a) - h(b)| + 2."""
    cov = cover_relation(n, rel)
    h = _heights(n, rel)
    for a in range(n):
        for b in range(n):
            m, j = meet[a][b], join[a][b]
            qualifies = not _incomparable(rel, a, b) or (m, a) in cov or (m, b) in cov
            if qualifies and h[j] - h[m] > abs(h[a] - h[b]) + 2:
                return (a, b)
    return None


def monotone_wedge_witness(n, rel, join, meet):
    """x <= y with x ^ z not below y ^ z."""
    for x in range(n):
        for y in range(n):
            for z in range(n):
                if (x, y) in rel and (meet[x][z], meet[y][z]) not in rel:
                    return (x, y, z)
    return None


def is_monotone_naive(n, rel, join, meet):
    """x <= y forces x v z <= y v z and x ^ z <= y ^ z for every z."""
    return all(
        (join[x][z], join[y][z]) in rel and (meet[x][z], meet[y][z]) in rel
        for x in range(n) for y in range(n) for z in range(n) if (x, y) in rel
    )


def is_modular_naive(n, rel, join, meet):
    """x <= z forces x v (y ^ z) = (x v y) ^ z for every y."""
    return all(
        join[x][meet[y][z]] == meet[join[x][y]][z]
        for x in range(n) for y in range(n) for z in range(n) if (x, z) in rel
    )


def is_distributive_naive(n, rel, join, meet):
    """Both distributive laws over every triple."""
    return all(
        meet[x][join[y][z]] == join[meet[x][y]][meet[x][z]]
        and join[x][meet[y][z]] == meet[join[x][y]][join[x][z]]
        for x in range(n) for y in range(n) for z in range(n)
    )


def lu_covering_witness(n, rel):
    """x covered by incomparable y and z with no element covering both."""
    cov = cover_relation(n, rel)
    for x in range(n):
        for y in range(n):
            for z in range(n):
                if ((x, y) in cov and (x, z) in cov and _incomparable(rel, y, z)
                        and not any((y, u) in cov and (z, u) in cov for u in range(n))):
                    return (x, y, z)
    return None


def equal_chain_lengths_failure(n, rel):
    """Least a with saturated chains of two lengths up to the top, as
    (witness, note), or None; chains are the cover paths of the relation."""
    top = top_element(n, rel)
    cov = sorted(cover_relation(n, rel))
    for a in range(n):
        lengths = sorted({len(path) - 1 for path in cover_paths(n, cov, a, top)})
        if len(lengths) > 1:
            return (a,), f"maximal chain lengths {lengths}"
    return None


def incomparable_cells_naive(n, rel):
    """Every ordered pair (x, y) of incomparable elements, ascending by x, then y."""
    return [(x, y) for x in range(n) for y in range(n) if _incomparable(rel, x, y)]


def convex_closed_subsets_naive(n, rel, join, meet):
    """Every nonempty subset, ascending by bitmask, that holds the join and
    meet of each pair of its members and each element between two members."""
    found = []
    for mask in range(1, 1 << n):
        s = {x for x in range(n) if mask >> x & 1}
        closed = all(join[x][y] in s and meet[x][y] in s for x in s for y in s)
        if closed and all(z in s for x in s for y in s if (x, y) in rel
                          for z in range(n) if (x, z) in rel and (z, y) in rel):
            found.append(frozenset(s))
    return found


AXIOM_NOTES = (
    "x {op} y = y {op} x fails",
    "x {op} ((x {op} y) {op} z) = (x {op} y) {op} z fails",
    "x {op} (x {dual} y) = x fails",
)


def axiom_failures_naive(n, join, meet):
    """Least violation of commutativity, weak associativity and absorption,
    each as (witness, note) or None.

    The violations of an identity are collected as a set of (tuple, side),
    side 0 the join form and 1 the meet form; its minimum is the least
    tuple, the join form first. Commutativity is stated on pairs x < y.
    """
    sides = ((join, meet, "v", "^"), (meet, join, "^", "v"))
    elems = range(n)
    violations = (
        {((x, y), s) for s, (t, _, _, _) in enumerate(sides)
         for x in elems for y in elems if x < y and t[x][y] != t[y][x]},
        {((x, y, z), s) for s, (t, _, _, _) in enumerate(sides)
         for x in elems for y in elems for z in elems
         if t[x][t[t[x][y]][z]] != t[t[x][y]][z]},
        {((x, y), s) for s, (t, d, _, _) in enumerate(sides)
         for x in elems for y in elems if t[x][d[x][y]] != x},
    )
    out = []
    for found, note in zip(violations, AXIOM_NOTES):
        if not found:
            out.append(None)
            continue
        witness, s = min(found)
        out.append((witness, note.format(op=sides[s][2], dual=sides[s][3])))
    return tuple(out)


def isomorphic_naive(a, b):
    """Some bijection f of the carriers has x <= y exactly when f(x) <= f(y)
    and, where the instances carry (join, meet) tables, f(x v y) = f(x) v f(y)
    and f(x ^ y) = f(x) ^ f(y). An instance is (n, rel) or (n, rel, join, meet)."""
    n, rel_a, *tables_a = a
    m, rel_b, *tables_b = b
    rel_b = set(rel_b)
    if n != m or len(rel_a) != len(rel_b):  # f maps the pairs of rel_a one-to-one
        return False
    for f in permutations(range(n)):
        if {(f[x], f[y]) for x, y in rel_a} != rel_b:
            continue
        if all(tb[f[x]][f[y]] == f[ta[x][y]]
               for ta, tb in zip(tables_a, tables_b) for x in range(n) for y in range(n)):
            return True
    return False


def mk_size(n, rel):
    """k = n - 2 when the order is an M_k: bounded, n >= 4, and every element
    other than the bounds covers the bottom and is covered by the top; else None."""
    if n < 4:
        return None
    bottom = next((b for b in range(n) if all((b, j) in rel for j in range(n))), None)
    top = top_element(n, rel)
    if bottom is None or top is None:
        return None
    covers = cover_relation(n, rel)
    middle = set(range(n)) - {bottom, top}
    return n - 2 if all((bottom, m) in covers and (m, top) in covers for m in middle) else None
