"""Graphviz DOT output for Hasse diagrams.

Edges follow the cover relation bottom-up; rankdir=BT plus same-rank
groups per height (when a bottom exists) reproduce the usual layered
drawing. Output bytes are deterministic for a given instance.
"""

from .lattice import LambdaLattice, _unforced
from .poset import Poset


def export_dot(obj: Poset | LambdaLattice) -> str:
    p = obj.poset if isinstance(obj, LambdaLattice) else obj
    # a DOT string escapes its quotes and backslashes
    names = [p.label(i).replace("\\", "\\\\").replace('"', '\\"') for i in range(p.n)]
    lines = ["digraph hasse {", "  rankdir=BT;"]
    if isinstance(obj, LambdaLattice):
        lines.append("  // non-forced choices:")
        lines += [
            f"  //   {op}: {p.label(x)} {p.label(y)} = {p.label(v)}" for op, x, y, v in _unforced(obj)
        ] or ["  //   (none: all values forced by the order)"]
    for i in range(p.n):
        lines.append(f'  n{i} [label="{names[i]}"];')
    if p.bottom is not None:
        by_height: dict[int, list[int]] = {}
        for i in range(p.n):
            by_height.setdefault(p.heights[i], []).append(i)
        for h in sorted(by_height):
            group = " ".join(f"n{i};" for i in by_height[h])
            lines.append(f"  {{ rank=same; {group} }}")
    for a, b in p.covers:
        lines.append(f"  n{a} -> n{b};")
    lines.append("}")
    return "\n".join(lines) + "\n"
