"""Flat pictures of an analysis: an SVG grid, a text grid and a CSV table.

Complexes built with a grid layout carry it in meta["grid"] as a map from
top cells to (row, column). Cells without a grid position are listed in a
side strip so nothing silently disappears. All output is byte-deterministic
for a given report.
"""

CELL = 22
GAP = 2

ROLES = ["k", "stabilization", "homoclinic", "uniform", "witness",
         "basin", "outside"]

COLORS = {
    "k": "#1f4e79",
    "stabilization": "#2e75b6",
    "homoclinic": "#d9730d",
    "uniform": "#7030a0",
    "witness": "#c00000",
    "basin": "#d6e4f0",
    "outside": "#f2f2f2",
}

LETTERS = {
    "k": "K",
    "stabilization": "S",
    "homoclinic": "H",
    "uniform": "U",
    "witness": "W",
    "basin": "b",
    "outside": ".",
}


def cell_roles(report):
    """Map every top cell to its most specific role in the report."""
    roles = {c: "outside" for c in report.flow.tops}
    for c in report.basin:
        roles[c] = "basin"
    for c in report.stabilization:
        roles[c] = "stabilization"
    for comp in report.components:
        for c in comp["cells"]:
            roles[c] = comp["label"]
    for c in report.witness_cycle:
        roles[c] = "witness"
    for c in report.k:
        roles[c] = "k"
    return roles


def csv_text(report):
    roles = cell_roles(report)
    lines = ["cell,role"]
    lines.extend("%s,%s" % (c, roles[c]) for c in sorted(roles))
    return "\n".join(lines) + "\n"


def _layout(cx, roles):
    """(placed, strip): grid positions normalized to start at (0, 0)."""
    grid = cx.meta.get("grid", {})
    placed = {}
    strip = []
    for c in sorted(roles):
        if c in grid:
            placed[c] = tuple(grid[c])
        else:
            strip.append(c)
    if placed:
        minr = min(r for r, _ in placed.values())
        minc = min(l for _, l in placed.values())
        placed = {c: (r - minr, l - minc) for c, (r, l) in placed.items()}
    return placed, strip


def text_grid(report):
    roles = cell_roles(report)
    placed, strip = _layout(report.flow.cx, roles)
    lines = []
    if placed:
        nrows = 1 + max(r for r, _ in placed.values())
        ncols = 1 + max(l for _, l in placed.values())
        rows = [[" "] * ncols for _ in range(nrows)]
        for c, (r, l) in placed.items():
            rows[r][l] = LETTERS[roles[c]]
        lines.extend("".join(row) for row in rows)
    for c in strip:
        lines.append("%s %s" % (LETTERS[roles[c]], c))
    legend = ["%s=%s" % (LETTERS[r], r) for r in ROLES]
    lines.append("legend: " + " ".join(legend))
    return "\n".join(lines) + "\n"


def _rect(x, y, w, h, fill, title=None, stroke=None):
    extra = ' stroke="%s" stroke-width="2"' % stroke if stroke else ""
    body = "<title>%s</title>" % title if title else ""
    return ('<rect x="%d" y="%d" width="%d" height="%d" fill="%s"%s>%s'
            '</rect>' % (x, y, w, h, fill, extra, body))


def svg_chunks(report, block=None):
    """The SVG picture as chunks of text, each made as it is asked for: the
    header, one per rectangle or label, the title and the closing tag. The
    sizes the header needs come from the layout, before any part is made."""
    roles = cell_roles(report)
    placed, strip = _layout(report.flow.cx, roles)
    outline = frozenset(block.n) if block is not None else frozenset()
    nrows = 1 + max((r for r, _ in placed.values()), default=0)
    ncols = 1 + max((l for _, l in placed.values()), default=0)
    step = CELL + GAP
    x_strip = GAP + ncols * step + 2 * GAP
    y_leg = GAP + max(nrows, len(strip)) * step + 2 * GAP
    used = [r for r in ROLES if r in set(roles.values())]
    width = max(x_strip + 240, GAP + ncols * step)
    # the legend rows, then one row for the title
    height = y_leg + (len(used) + 1) * step + GAP
    yield ('<svg xmlns="http://www.w3.org/2000/svg" width="%d" '
           'height="%d" viewBox="0 0 %d %d">' % (width, height,
                                                 width, height))
    for c in sorted(placed):
        r, l = placed[c]
        yield _rect(GAP + l * step, GAP + r * step, CELL, CELL,
                    COLORS[roles[c]], title="%s: %s" % (c, roles[c]),
                    stroke="#000000" if c in outline else None)
    for i, c in enumerate(strip):
        yield _rect(x_strip, GAP + i * step, CELL, CELL,
                    COLORS[roles[c]], title="%s: %s" % (c, roles[c]),
                    stroke="#000000" if c in outline else None)
        yield ('<text x="%d" y="%d" font-size="11" '
               'font-family="monospace">%s</text>'
               % (x_strip + CELL + GAP, GAP + i * step + CELL - 6, c))
    for i, role in enumerate(used):
        yield _rect(GAP, y_leg + i * step, CELL, CELL, COLORS[role])
        yield ('<text x="%d" y="%d" font-size="12" '
               'font-family="monospace">%s</text>'
               % (GAP + CELL + GAP, y_leg + i * step + CELL - 6, role))
    yield ('<text x="%d" y="%d" font-size="13" font-family="monospace">'
           '%s: %s</text>' % (GAP, y_leg + len(used) * step + CELL - 6,
                              report.flow.name, report.classification))
    yield "</svg>\n"
