"""Benchmark harness support.

Every bench module regenerates one artifact of the paper's evaluation
(EXPERIMENTS.md indexes them).  Reproduction tables are printed and
also written under ``benchmarks/results/`` so they survive pytest's
output capture; EXPERIMENTS.md summarizes them.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterable, Sequence

import pytest

RESULTS_DIR = Path(__file__).parent / "results"


def record_table(
    name: str,
    title: str,
    header: Sequence[str],
    rows: Iterable[Sequence[object]],
    note: str = "",
) -> str:
    """Format, print and persist one reproduction table.

    Column widths grow to fit the longest cell (no truncation), and a
    lossless ``<name>.json`` lands next to the ``.txt`` through the
    experiments layer's shared JSON encoder.
    """
    from repro.experiments import dump_json

    rows = [list(row) for row in rows]
    RESULTS_DIR.mkdir(exist_ok=True)
    widths = [
        max(len(str(h)), 12, *(len(str(row[i])) for row in rows), 0)
        for i, h in enumerate(header)
    ]
    lines = [title, "=" * len(title)]
    lines.append("  ".join(str(h).rjust(w) for h, w in zip(header, widths)))
    for row in rows:
        lines.append("  ".join(str(c).rjust(w) for c, w in zip(row, widths)))
    if note:
        lines.append("")
        lines.append(note)
    text = "\n".join(lines)
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")
    dump_json(
        {"table": name, "title": title, "header": list(header),
         "rows": rows, "note": note},
        RESULTS_DIR / f"{name}.json",
    )
    print("\n" + text)
    return text


@pytest.fixture(scope="session")
def results_dir() -> Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR
