"""Analysis helpers: reuse breakdowns, report/figure tables.

The reuse breakdowns read traces, so they load on first access (PEP
562): writing a report does not import them.
"""

import importlib

from repro.analysis.paper_report import (
    figure_table,
    render_markdown,
    write_figure_report,
    write_index,
)
from repro.analysis.report import format_table

_LAZY = dict.fromkeys(
    ("ReuseBreakdown", "global_reuse", "per_transaction_reuse"),
    "repro.analysis.reuse",
)


def __getattr__(name):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(_LAZY[name]), name)
    globals()[name] = value
    return value


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
