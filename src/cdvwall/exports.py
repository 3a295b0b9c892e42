"""Deterministic DOT and SVG writers for chamber graphs, groupoid
components, and rank-two level slices."""

from __future__ import annotations

from .arrangement import arrangement_hyperplanes
from .groupoid import GroupoidError, mutation_data
from .restriction import DynkinType


def _wall_label(wall) -> str:
    text = ",".join(str(c) for c in wall.normal)
    return f"({text})" if wall.offset == 0 else f"({text})={wall.offset}"


def chamber_graph_dot(chambers, edges) -> str:
    """DOT text for a chamber adjacency graph with wall labels; edges are
    (i, j, wall) over the chamber list."""
    lines = ["graph chambers {", "  node [shape=box];"]
    for i, chamber in enumerate(chambers):
        lines.append(f'  c{i} [label="{chamber.label_str()}"];')
    for i, j, wall in edges:
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
        if not layer:
            break
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


def _fmt(num: int, den: int) -> str:
    """Fixed-point decimal of num / den (den > 0), rounded down to three
    places."""
    scaled = num * 10 ** 3 // den
    whole, frac = divmod(abs(scaled), 10 ** 3)
    sign = "-" if scaled < 0 else ""
    return f"{sign}{whole}.{frac:03d}"


def level_slice_svg(dtype: DynkinType, k_max: int) -> str:
    """SVG of the affine slice arrangement for a type with two kept finite
    nodes: one line per wall {x * normal = offset}, clipped to the box."""
    box, size = 2, 600   # the picture shows |x|, |y| <= box in size x size pixels
    walls = arrangement_hyperplanes(dtype, k_max)
    if walls and len(walls[0].normal) != 2:
        raise ValueError("slice pictures need exactly two kept finite nodes")
    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}" '
        f'viewBox="0 0 {size} {size}">',
        f'  <rect x="0" y="0" width="{size}" height="{size}" fill="white" stroke="black"/>',
    ]
    for wall in walls:
        a, c = wall.normal
        k = wall.offset
        # intersect a*x + c*y = k with the four box edges in units of 1/q;
        # q is a multiple of both nonzero normal entries, so every
        # intersection (x/q, y/q) has integer x and y
        q = max(abs(a), 1) * max(abs(c), 1)
        b = box * q
        pts = []
        for x in (-b, b):
            if c != 0:
                y = (k * q - a * x) // c
                if -b <= y <= b:
                    pts.append((x, y))
        for y in (-b, b):
            if a != 0:
                x = (k * q - c * y) // a
                if -b <= x <= b:
                    pts.append((x, y))
        pts = sorted(set(pts))
        if len(pts) < 2:
            continue
        (x1, y1), (x2, y2) = pts[0], pts[-1]
        # pixel coordinate size/2 + size/(2*box) * v/q
        lines.append(
            '  <line x1="{}" y1="{}" x2="{}" y2="{}" stroke="black" stroke-width="1"/>'.format(
                *(_fmt(size * (b + v), 2 * b) for v in (x1, -y1, x2, -y2)))
        )
    lines.append(
        f'  <circle cx="{size // 2}" cy="{size // 2}" r="3" fill="black"/>')
    lines.append("</svg>")
    return "\n".join(lines) + "\n"
