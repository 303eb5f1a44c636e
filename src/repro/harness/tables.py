"""ASCII rendering helpers shared by the experiment harnesses."""

from __future__ import annotations


def render_table(
    header: list[str], rows: list[list[str]], title: str = ""
) -> str:
    widths = [len(h) for h in header]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(str(cell)))

    def fmt(cells: list[str]) -> str:
        return " | ".join(
            str(c).ljust(w) if i == 0 else str(c).rjust(w)
            for i, (c, w) in enumerate(zip(cells, widths))
        )

    sep = "-+-".join("-" * w for w in widths)
    out = []
    if title:
        out.append(title)
    out.append(fmt(header))
    out.append(sep)
    out.extend(fmt(r) for r in rows)
    return "\n".join(out)


#: the heatmap's shade ramp, lightest (fewest cycles) first.
_SHADES = " .:-=+*#%@"


def render_heatmap(
    values: dict[tuple[int, int], float], title: str = ""
) -> str:
    """Render a Figure 7-style normalized-cycles heatmap.

    ``values`` maps (warps, threads) -> normalized cycles (1.0 = best).
    Light characters mean fewer cycles, matching the paper's colour
    scale. A grid hole (a cell whose point failed and was dropped from
    ``values``) renders as ``ERROR``.
    """
    rows = sorted({r for r, _ in values})
    cols = sorted({c for _, c in values})
    vmax = max(values.values())
    lines = []
    if title:
        lines.append(title)
    lines.append("warps \\ threads: " + ", ".join(map(str, cols)))
    header = [""] + [str(c) for c in cols]
    body = []
    for r in rows:
        cells = [f"w={r}"]
        for c in cols:
            v = values.get((r, c))
            if v is None:
                cells.append("ERROR")
                continue
            # Normalise into the shade ramp (1.0 -> lightest).
            frac = 0.0 if vmax <= 1.0 else (v - 1.0) / (vmax - 1.0)
            shade = _SHADES[min(len(_SHADES) - 1,
                                int(frac * (len(_SHADES) - 1)))]
            cells.append(f"{v:5.2f}{shade}")
        body.append(cells)
    lines.append(render_table(header, body))
    return "\n".join(lines)
