"""Analysis helpers: reuse breakdowns, report/figure tables."""

from repro.analysis.paper_report import (
    figure_table,
    render_markdown,
    write_figure_report,
    write_index,
)
from repro.analysis.report import format_table
from repro.analysis.reuse import (
    ReuseBreakdown,
    global_reuse,
    per_transaction_reuse,
)

__all__ = [
    "ReuseBreakdown",
    "figure_table",
    "format_table",
    "global_reuse",
    "per_transaction_reuse",
    "render_markdown",
    "write_figure_report",
    "write_index",
]
