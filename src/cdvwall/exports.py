"""Deterministic DOT and SVG writers for chamber graphs, groupoid
components, and rank-two level slices."""

from __future__ import annotations

from fractions import Fraction

from .arrangement import arrangement_hyperplanes, distinct_edges
from .groupoid import GroupoidError, mutation_data
from .restriction import DynkinType


def _wall_label(wall) -> str:
    text = ",".join(str(c) for c in wall.normal)
    return f"({text})" if wall.offset == 0 else f"({text})={wall.offset}"


def chamber_graph_dot(chambers, edges) -> str:
    """DOT text for a chamber adjacency graph with wall labels."""
    lines = ["graph chambers {", "  node [shape=box];"]
    for i, chamber in enumerate(chambers):
        lines.append(f'  c{i} [label="{chamber.label_str()}"];')
    for i, j, wall in distinct_edges(chambers, edges):
        lines.append(f'  c{i} -- c{j} [label="{_wall_label(wall)}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def groupoid_dot(dtype: DynkinType, max_len: int) -> str:
    """DOT text for the mutation component of the base subset, up to the
    given word length: nodes are subsets, edges are single mutations."""
    diagram = dtype.diagram
    start = tuple(sorted(dtype.contracted))
    layer = {start}
    seen = {start}
    arrows = set()
    for _ in range(max_len):
        nxt = set()
        for subset in layer:
            kept = [n for n in diagram.nodes if n not in subset]
            for node in kept:
                try:
                    _, iota_node, new_subset = mutation_data(diagram, frozenset(subset), node)
                except GroupoidError:
                    continue
                target = tuple(sorted(new_subset))
                arrows.add((subset, target, node, iota_node))
                if target not in seen:
                    seen.add(target)
                    nxt.add(target)
        layer = nxt
    names = {s: f"s{i}" for i, s in enumerate(sorted(seen))}
    lines = ["digraph mutations {"]
    for subset, name in sorted(names.items(), key=lambda kv: kv[0]):
        label = "{" + ",".join(map(str, subset)) + "}"
        lines.append(f'  {name} [label="{label}"];')
    for source, target, node, iota_node in sorted(arrows):
        lines.append(
            f'  {names[source]} -> {names[target]} [label="{node}>{iota_node}"];'
        )
    lines.append("}")
    return "\n".join(lines) + "\n"


def _fmt(x: Fraction, scale: Fraction, shift: Fraction) -> str:
    """Fixed-point decimal of shift + scale*x, computed in integers."""
    value = shift + scale * x
    scaled = value.numerator * 10 ** 3 // value.denominator
    whole, frac = divmod(abs(scaled), 10 ** 3)
    sign = "-" if scaled < 0 else ""
    return f"{sign}{whole}.{frac:03d}"


def level_slice_svg(dtype: DynkinType, k_max: int, box: int = 2, size: int = 600) -> str:
    """SVG of the affine slice arrangement for a type with two kept finite
    nodes: one line per wall {x * normal = offset}, clipped to the box."""
    walls = arrangement_hyperplanes(dtype, k_max, sliced=True)
    if walls and len(walls[0].normal) != 2:
        raise ValueError("slice pictures need exactly two kept finite nodes")
    half = Fraction(size, 2)
    scale = Fraction(size, 2 * box)
    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}" '
        f'viewBox="0 0 {size} {size}">',
        f'  <rect x="0" y="0" width="{size}" height="{size}" fill="white" stroke="black"/>',
    ]
    b = Fraction(box)
    for wall in walls:
        a, c = wall.normal
        k = wall.offset
        pts = []
        # intersect a*x + c*y = k with the four box edges
        for x in (-b, b):
            if c != 0:
                y = Fraction(k - a * x, c)
                if -b <= y <= b:
                    pts.append((x, y))
        for y in (-b, b):
            if a != 0:
                x = Fraction(k - c * y, a)
                if -b <= x <= b:
                    pts.append((x, y))
        pts = sorted(set(pts))
        if len(pts) < 2:
            continue
        (x1, y1), (x2, y2) = pts[0], pts[-1]
        lines.append(
            '  <line x1="{}" y1="{}" x2="{}" y2="{}" stroke="black" stroke-width="1"/>'.format(
                _fmt(x1, scale, half), _fmt(-y1, scale, half),
                _fmt(x2, scale, half), _fmt(-y2, scale, half))
        )
    lines.append(
        f'  <circle cx="{size // 2}" cy="{size // 2}" r="3" fill="black"/>')
    lines.append("</svg>")
    return "\n".join(lines) + "\n"
