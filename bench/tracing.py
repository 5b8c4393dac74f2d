"""Spans and counts around pensionsim's layer functions, recorded from outside.

`engine` imports its helpers with `from .x import f`, so patching a
defining module misses the calls. The wrappers therefore replace each
function as it is bound in the `pensionsim.engine` and `pensionsim.io_cli`
namespaces, which is where the pipeline and the CLI look them up. One
wrapper object is shared by every namespace that binds the same function.

Span names are `<layer>.<group>:<function>`; per-layer metrics aggregate
by the part before the colon. Self time is a span's duration minus the
time its direct child spans cover; the program is single-threaded, so
spans nest strictly.
"""

from __future__ import annotations

import time
from array import array
from pathlib import Path

import numpy as np

from pensionsim import engine, io_cli

# (function name, span group, count taken from the result or None)
WRAPPED = (
    ("RandomStream", "stochastic.stream_setup", None),
    ("inflation_series", "stochastic.draws", "stochastic.draws.variates"),
    ("gbm_log_returns", "stochastic.draws", "stochastic.draws.variates"),
    ("project_basic", "accumulation.career", None),
    ("dearness_allowance", "accumulation.career", None),
    ("accumulate_corpus", "accumulation.career", None),
    ("annual_pension", "retirement.scoring", None),
    ("requirement_series", "retirement.scoring", None),
    ("evaluate_retirement", "retirement.scoring", "retirement.year_rows"),
    ("shortfall_years", "retirement.scoring", None),
    ("pv_support", "retirement.scoring", None),
    ("run_path", "engine.run_path", None),
    ("run_path_detail", "engine.run_path_detail", None),
    ("run_scenario", "engine.run_scenario", None),
    ("summarize", "engine.summarize", None),
    ("sweep", "engine.sweep", None),
    ("scenario_from_values", "engine.scenario_build", None),
    ("with_field", "engine.scenario_build", None),
    ("parse_scenario", "io_cli.parse_scenario", None),
    ("emit_summary", "io_cli.emit_summary", "io_cli.emit_summary.bytes"),
    ("career_csv", "io_cli.csv", "io_cli.csv.bytes"),
    ("retirement_csv", "io_cli.csv", "io_cli.csv.bytes"),
)
ROOT_SPAN = "io_cli.cli_main:cli_main"
NAMESPACES = (engine, io_cli)


def _count(counter: str, result) -> int:
    if counter.endswith(".bytes"):
        return len(result.encode("utf-8"))
    return len(result)  # variates (array length) or year rows (list length)


class Tracer:
    """In-memory span recorder; spans are kept in flat arrays until `save`."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[list] = []  # [span index, child time]
        self.self_s: dict[str, float] = {}
        self.calls: dict[str, int] = {}
        self.counts: dict[str, int] = {}
        self.ops = 0
        self.distinct_paths = 0
        self._op_paths: set[int] = set()
        self._saved: list[tuple[object, str, object]] = []

    def _open(self, name: str) -> None:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        index = len(self.name_id)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1][0] if self._stack else -1)
        self.op.append(self.ops)
        self.end.append(0.0)
        self._stack.append([index, 0.0])
        self.start.append(time.perf_counter())

    def _close(self, group: str) -> None:
        now = time.perf_counter()
        index, child = self._stack.pop()
        self.end[index] = now
        duration = now - self.start[index]
        self.self_s[group] = self.self_s.get(group, 0.0) + duration - child
        self.calls[group] = self.calls.get(group, 0) + 1
        if self._stack:
            self._stack[-1][1] += duration

    def _wrap(self, fn, name: str, group: str, counter: str | None):
        is_stream = group == "stochastic.stream_setup"

        def traced(*args, **kwargs):
            self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(group)
            if counter is not None:
                self.counts[counter] = self.counts.get(counter, 0) + _count(counter, result)
            if is_stream:
                self._op_paths.add(args[1])
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Replace every WRAPPED function in the engine and io_cli namespaces."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        for attr, group, counter in WRAPPED:
            original = getattr(engine, attr, None) or getattr(io_cli, attr)
            wrapper = self._wrap(original, f"{group}:{attr}", group, counter)
            for module in NAMESPACES:
                if getattr(module, attr, None) is original:
                    self._saved.append((module, attr, original))
                    setattr(module, attr, wrapper)

    def restore(self) -> None:
        """Put back every original binding; a later untraced run sees no wrapper."""
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def call_root(self, fn, argv):
        """Run one CLI operation as the root span of a new operation id."""
        self._op_paths = set()
        self._open(ROOT_SPAN)
        try:
            return fn(argv)
        finally:
            self._close("io_cli.cli_main")
            self.distinct_paths += len(self._op_paths)
            self.ops += 1

    def save(self, path: Path) -> None:
        """Write every span recorded so far as a compressed .npz file."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            op=np.frombuffer(self.op, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
        )


def installed_wrappers() -> list[str]:
    """Names in the engine/io_cli namespaces that are still tracing wrappers."""
    return [
        f"{module.__name__}.{attr}"
        for module in NAMESPACES
        for attr, _, _ in WRAPPED
        if hasattr(getattr(module, attr, None), "__wrapped__")
    ]
