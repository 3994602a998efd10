"""Human-readable rendering of traces: span trees and pruning funnels.

``repro explain`` (and ``repro query --trace``) print what the paper's
Table II and the pruning discussion of Section V show for one query: the
per-phase time decomposition as an indented span tree, and the candidate
funnel -- how many objects the filter phases admitted and how many the
best-first verification actually had to settle.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.obs.trace import Span

#: Span attributes too noisy for the tree rendering.
_HIDDEN_ATTRIBUTES = ("error",)


def _format_attributes(span: Span) -> str:
    shown = [
        f"{key}={value}"
        for key, value in sorted(span.attributes.items())
        if key not in _HIDDEN_ATTRIBUTES
    ]
    if "error" in span.attributes:
        shown.append(f"error={span.attributes['error']}")
    return f"  [{', '.join(shown)}]" if shown else ""


def render_span_tree(root: Span, indent: str = "") -> str:
    """An indented ascii tree, one line per span with its duration."""
    lines: List[str] = []

    def visit(span: Span, prefix: str, childprefix: str) -> None:
        lines.append(
            f"{prefix}{span.name:<{max(1, 28 - len(prefix))}} "
            f"{span.duration * 1000.0:>10.3f} ms{_format_attributes(span)}"
        )
        for index, child in enumerate(span.children):
            last = index == len(span.children) - 1
            branch = "`- " if last else "|- "
            extension = "   " if last else "|  "
            visit(child, childprefix + branch, childprefix + extension)

    visit(root, indent, indent)
    return "\n".join(lines)


def render_funnel(stages: Sequence[Tuple[str, int]], width: int = 30) -> str:
    """The pruning funnel: one bar per stage, scaled to the first stage.

    ``stages`` are ``(label, count)`` pairs in pipeline order, e.g.
    ``[("objects", n), ("candidates", c), ("settled", v)]``.
    """
    if not stages:
        return ""
    baseline = max(stages[0][1], 1)
    label_width = max(len(label) for label, _ in stages)
    count_width = max(len(str(count)) for _, count in stages)
    lines = []
    for label, count in stages:
        fraction = count / baseline
        bar = "#" * max(0, round(fraction * width))
        if count > 0 and not bar:
            bar = "#"  # never render a non-empty stage as an empty bar
        lines.append(
            f"  {label:<{label_width}}  {count:>{count_width}}  "
            f"{bar:<{width}} {fraction * 100.0:>5.1f}%"
        )
    return "\n".join(lines)


def funnel_stages(result, total_objects: int) -> List[Tuple[str, int]]:
    """Objects -> candidates -> settled, read off an ``MIOResult``.

    Works for every result: the serial engine and the schedule study
    (:mod:`repro.bench.schedule`) both report ``candidates`` and
    ``verified_objects``.
    """
    counters = result.counters
    candidates = counters.get("candidates", 0)
    settled = counters.get("verified_objects", 0)
    return [
        ("objects", total_objects),
        ("candidates", candidates),
        ("settled", settled),
    ]
