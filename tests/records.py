"""Per-path records from a run's outcome columns, for tests that compare paths."""

from __future__ import annotations

from pensionsim.engine import PathOutcome


def records(outcomes: PathOutcome) -> tuple[PathOutcome, ...]:
    """One PathOutcome of Python values per path, in index order, as run_path returns them."""
    return tuple(map(PathOutcome, *(column.tolist() for column in outcomes)))
