"""Graphviz DOT output for Hasse diagrams.

Edges follow the cover relation bottom-up; rankdir=BT plus same-rank
groups per height (when a bottom exists) reproduce the usual layered
drawing. Output bytes are deterministic for a given instance.
"""

from .instances import render_instance
from .lattice import LambdaLattice
from .poset import Poset


def export_dot(obj: Poset | LambdaLattice) -> str:
    p = obj.poset if isinstance(obj, LambdaLattice) else obj
    # a DOT string escapes its quotes and backslashes
    names = [p.label(i).replace("\\", "\\\\").replace('"', '\\"') for i in range(p.n)]
    lines = ["digraph hasse {", "  rankdir=BT;"]
    if isinstance(obj, LambdaLattice):
        choices = [
            line for line in render_instance(obj).splitlines()
            if line.startswith(("join:", "meet:"))
        ]
        lines.append("  // non-forced choices:")
        if choices:
            lines.extend(f"  //   {line}" for line in choices)
        else:
            lines.append("  //   (none: all values forced by the order)")
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
