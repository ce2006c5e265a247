"""Spans around the benchmark's calls into satlink, kept in memory.

A span is (name, start_ns, end_ns, parent span id, operation id, ok). The
span id is its index in `Tracer.spans`. Untraced runs call satlink through
a namespace holding the plain functions, so tracing costs nothing there.
"""

from __future__ import annotations

import importlib
import json
import statistics
from pathlib import Path
from time import perf_counter_ns
from types import SimpleNamespace


# Every public satlink callable the benchmark uses: span name -> attribute
# path inside the module named by the span name's first part.
CALLS = {
    "linkbudget.Transmitter": "Transmitter",
    "linkbudget.Receiver": "Receiver",
    "linkbudget.link_budget": "link_budget",
    "geometry.slant_range_exact": "slant_range_exact",
    "geometry.cell_radius_from_split": "cell_radius_from_split",
    "geometry.required_hpbw": "required_hpbw",
    "quantities.band_lookup": "band_lookup",
    "capacity.select_modcod": "select_modcod",
    "capacity.shannon_capacity": "shannon_capacity",
    "capacity.load_modcod_catalog": "load_modcod_catalog",
    "constellation.shell_stats": "shell_stats",
    "antenna.ArraySpec.linear": "ArraySpec.linear",
    "antenna.select_array": "select_array",
    "antenna.hpbw_numeric": "hpbw_numeric",
    "antenna.sidelobe_level": "sidelobe_level",
    "antenna.pattern_csv": "pattern_csv",
    "scenario.load_scenario": "load_scenario",
    "scenario.run_scenario": "run_scenario",
    "scenario.to_json": "ScenarioReport.to_json",
    "scenario.from_json": "ScenarioReport.from_json",
    "cli.main": "main",
}


class Tracer:
    def __init__(self, span_limit: int):
        self.spans: list = []
        self.stack: list[int] = []
        self.op = 0
        self.span_limit = span_limit

    def full(self) -> bool:
        return len(self.spans) >= self.span_limit

    def begin(self, name: str) -> int:
        """Open the span of one operation; calls made until `end` are its children."""
        self.op += 1
        sid = len(self.spans)
        self.spans.append((name, perf_counter_ns(), None, self.stack[-1] if self.stack else None, self.op, None))
        self.stack.append(sid)
        return sid

    def end(self, sid: int, ok: bool) -> None:
        self.stack.pop()
        name, start, _, parent, op, _ = self.spans[sid]
        self.spans[sid] = (name, start, perf_counter_ns(), parent, op, ok)

    def wrap(self, name: str, fn):
        spans, stack = self.spans, self.stack

        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else None
            stack.append(sid)
            ok = False
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                end = perf_counter_ns()
                stack.pop()
                spans[sid] = (name, start, end, parent, self.op, ok)

        return traced

    def self_ns(self) -> list[int]:
        """Each span's duration minus the time its child spans cover."""
        own = [s[2] - s[1] for s in self.spans]
        for s in self.spans:
            if s[3] is not None:
                own[s[3]] -= s[2] - s[1]
        return own

    def median_self_us(self) -> dict[str, float]:
        """Median self time per span name, over the spans that returned."""
        by_name: dict[str, list[int]] = {}
        for s, own in zip(self.spans, self.self_ns()):
            if s[5]:
                by_name.setdefault(s[0], []).append(own)
        return {name: statistics.median(v) / 1e3 for name, v in by_name.items()}

    def write(self, path: Path, header: dict) -> None:
        with path.open("w") as f:
            f.write(json.dumps(header) + "\n")
            for sid, s in enumerate(self.spans):
                f.write(json.dumps([sid, *s]) + "\n")


def api(modules: tuple[str, ...], tracer: Tracer | None = None) -> SimpleNamespace:
    """The calls of the given satlink modules by short name, wrapped in spans when a tracer is given.

    Only those modules are imported, so a workload's memory and import cost
    hold only the parts of satlink it uses.
    """
    calls = {}
    for name, path in CALLS.items():
        module = name.split(".", 1)[0]
        if module in modules:
            fn = importlib.import_module(f"satlink.{module}")
            for attr in path.split("."):
                fn = getattr(fn, attr)
            calls[name.rsplit(".", 1)[1]] = tracer.wrap(name, fn) if tracer else fn
    return SimpleNamespace(**calls)
