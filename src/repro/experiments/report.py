"""Plain-text table rendering shared by the experiment runners."""

from __future__ import annotations

from collections.abc import Sequence


def format_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
    title: str | None = None,
) -> str:
    """Render an aligned monospace table."""
    cells = [[str(h) for h in headers]] + [[str(c) for c in row] for row in rows]
    widths = [max(len(row[i]) for row in cells) for i in range(len(headers))]
    lines = []
    if title:
        lines.append(title)
    sep = "-+-".join("-" * w for w in widths)
    lines.append(" | ".join(h.ljust(w) for h, w in zip(cells[0], widths)))
    lines.append(sep)
    for row in cells[1:]:
        lines.append(" | ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def seconds(value: float) -> str:
    """Compact human-readable duration."""
    if value < 0.001:
        return f"{value * 1e6:.0f}us"
    if value < 1:
        return f"{value * 1e3:.1f}ms"
    if value < 120:
        return f"{value:.2f}s"
    return f"{value / 60:.1f}min"


def cec_verdict(equivalent: bool | None) -> str:
    """A CEC column cell: ``pass``, ``FAIL``, or ``-`` when not checked."""
    return {True: "pass", False: "FAIL", None: "-"}[equivalent]
