"""satlink benchmark: one workload per run, one client, closed loop.

    python3 perfbench/run.py --workload link-sweep --seed 1 --seconds 10 --trace 0

Run from a source checkout (it imports satlink from ./src and spawns
`python -m satlink.cli` with src on the path). With --trace 0 it prints the
end-to-end metrics; with --trace 1 it alternates untraced and traced rounds
of the workload, and prints the per-layer metrics computed from the spans.
The last line of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import math
import random
import re
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import spans
from workloads import ROOT, SETUP_CODE, WORKLOADS, CliMain, child_env

OUT = ROOT / "perfbench" / "out"
SETUP_SAMPLES = 10
IMPORTTIME_SAMPLES = 3
SPAN_LIMIT = 100_000

# Per-layer metric -> span name (times are median self times of that span).
LAYER_SPANS = {
    "cli.main_ms": "cli.main",
    "geometry.slant_range_exact_us": "geometry.slant_range_exact",
    "geometry.required_hpbw_us": "geometry.required_hpbw",
    "linkbudget.Transmitter_us": "linkbudget.Transmitter",
    "linkbudget.Receiver_us": "linkbudget.Receiver",
    "linkbudget.link_budget_us": "linkbudget.link_budget",
    "capacity.select_modcod_us": "capacity.select_modcod",
    "capacity.shannon_capacity_us": "capacity.shannon_capacity",
    "capacity.load_modcod_catalog_us": "capacity.load_modcod_catalog",
    "quantities.band_lookup_us": "quantities.band_lookup",
    "constellation.shell_stats_us": "constellation.shell_stats",
    "antenna.select_array_us": "antenna.select_array",
    "antenna.hpbw_numeric_us": "antenna.hpbw_numeric",
    "antenna.sidelobe_level_us": "antenna.sidelobe_level",
    "antenna.pattern_csv_us": "antenna.pattern_csv",
    "scenario.load_scenario_us": "scenario.load_scenario",
    "scenario.run_scenario_us": "scenario.run_scenario",
    "scenario.to_json_us": "scenario.to_json",
    "scenario.from_json_us": "scenario.from_json",
}
# Counts over one round of each workload's inputs.
LAYER_COUNTS = ("cli.stdout_bytes", "antenna.pattern_rows", "scenario.findings",
                "scenario.load_failed", "capacity.load_failed")
# Cumulative import time of these modules, from `python -X importtime`.
IMPORTED = ("satlink", "satlink.antenna", "satlink.scenario", "satlink.cli", "numpy", "scipy.optimize")

# Per-workload names of the end-to-end metrics, printed above the JSON line.
NAMED = {
    "cli-oneshot": (("cli_wall_ms_p50", "latency_ms_p50", "ms"), ("cli_peak_rss_mb", "peak_rss_mb", "MB")),
    "link-sweep": (("sweep_points_per_s", "throughput_per_s", "points/s"),),
    "beam-design": (("beam_designs_per_s", "throughput_per_s", "designs/s"),),
    "documents": (("documents_per_s", "throughput_per_s", "documents/s"),),
}


@dataclass
class Phase:
    """What one stretch of whole rounds of a workload did.

    Every round runs the same items, so each item keeps the least time it
    took over the rounds. On a shared machine, neighbours slow single
    operations by up to half and whole stretches of a run by a third; the
    least time of an item over many rounds moves far less than any one time.
    """

    rounds: int = 0
    attempted: int = 0
    failed: int = 0
    completed: int = 0
    faults: dict = field(default_factory=dict)
    errors: list = field(default_factory=list)
    rss_kb: int = 0
    paused: float = 0.0  # seconds spent in `between` calls, not counted against the run's length
    round_counts: dict = field(default_factory=dict)
    best: dict = field(default_factory=dict)  # item index -> least seconds over the rounds

    def add(self, index: int, o) -> None:
        self.attempted += 1
        self.rss_kb = max(self.rss_kb, o.rss_kb)
        if o.fault:
            self.faults[o.fault] = self.faults.get(o.fault, 0) + 1
        if o.error:
            self.errors.append(o.error)
        if o.fault or o.error:
            self.failed += 1
        else:
            self.completed += 1
            self.best[index] = min(o.seconds, self.best.get(index, math.inf))

    def latency_ms_p50(self) -> float:
        """Median over the completed items of each one's least time."""
        return statistics.median(self.best.values()) * 1e3

    def throughput_per_s(self) -> float:
        """Completed items per second of a round made of each one's least time."""
        return len(self.best) / sum(self.best.values())


def run_round(workload, phase: Phase, tracer=None, between=None) -> None:
    """One round of the workload's items; `between` is called after each item."""
    if phase.rounds == 0:
        workload.counts.clear()
    for i, item in enumerate(workload.items):
        sid = tracer.begin(workload.op_name) if tracer else None
        outcome = workload.run(item)
        if tracer:
            tracer.end(sid, not (outcome.fault or outcome.error))
        phase.add(i, outcome)
        if between:
            start = perf_counter()
            between()
            phase.paused += perf_counter() - start
    phase.rounds += 1
    if phase.rounds == 1:
        phase.round_counts = dict(workload.counts)


def run_phase(workload, seconds: float, tracer=None, between=None) -> Phase:
    """Whole rounds of the workload's items until `seconds` have passed outside
    `between`, and at least the workload's `min_rounds`."""
    phase = Phase()
    deadline = perf_counter() + seconds
    while True:
        run_round(workload, phase, tracer, between)
        if phase.rounds >= workload.min_rounds and (
                perf_counter() - phase.paused >= deadline or (tracer and tracer.full())):
            return phase


def child(args: list[str]) -> subprocess.CompletedProcess:
    proc = subprocess.run([sys.executable, *args], env=child_env(), cwd=ROOT, capture_output=True,
                          text=True, timeout=120, stdin=subprocess.DEVNULL)
    if proc.returncode != 0:
        raise RuntimeError(f"{args}: exit {proc.returncode}: {proc.stderr.strip()[-400:]}")
    return proc


class SetupSampler:
    """Fresh processes that import satlink and do the workload's preparation.

    One sample is taken between operations at each of SETUP_SAMPLES even times
    of the run's operation time, so the samples see the same host as the
    timed operations; `result` is their minimum, the least disturbed start.
    """

    def __init__(self, workload: str, seconds: float):
        self.code = f"import time; t = time.perf_counter(); {SETUP_CODE[workload]}; print(time.perf_counter() - t)"
        child(["-c", self.code])  # warm-up: fills the bytecode cache; the first import after a pause runs slower
        self.samples: list[float] = []
        self.every = seconds / SETUP_SAMPLES
        self.start = perf_counter()
        self.spent = 0.0

    def take(self) -> None:
        start = perf_counter()
        self.samples.append(float(child(["-c", self.code]).stdout))
        self.spent += perf_counter() - start

    def due(self) -> None:
        elapsed = perf_counter() - self.start - self.spent
        if len(self.samples) < SETUP_SAMPLES and elapsed >= len(self.samples) * self.every:
            self.take()

    def result(self) -> float:
        while len(self.samples) < SETUP_SAMPLES:
            self.take()
        return min(self.samples)


def python_floor_ms() -> float:
    """Median wall time of a bare interpreter, `python -c pass`, spawn to exit."""
    samples = []
    for _ in range(IMPORTTIME_SAMPLES):
        start = perf_counter()
        child(["-c", "pass"])
        samples.append((perf_counter() - start) * 1e3)
    return statistics.median(samples)


def import_times_ms() -> dict[str, float]:
    """Median cumulative import time per module over fresh `-X importtime` processes."""
    line = re.compile(r"import time:\s+\d+ \|\s+(\d+) \|\s+(\S+)")
    samples: dict[str, list[float]] = {}
    for _ in range(IMPORTTIME_SAMPLES):
        seen = {}
        for m in line.finditer(child(["-X", "importtime", "-c", "import satlink.cli"]).stderr):
            seen.setdefault(m.group(2), int(m.group(1)) / 1e3)
        for name in IMPORTED:
            samples.setdefault(name, []).append(seen[name])
    return {f"import.{name}_ms": statistics.median(v) for name, v in samples.items()}


def make(name: str, seed: int, tmp: Path, tracer=None):
    """A workload's round for a seed; "cli.main" is cli-oneshot's mix run in process."""
    cls = CliMain if name == "cli.main" else WORKLOADS[name]
    rng = random.Random(f"{'cli-oneshot' if name == 'cli.main' else name}:{seed}")
    return cls(spans.api(cls.modules, tracer), rng, seed, tmp)


def end_to_end(workload: str, seed: int, seconds: float, tmp: Path):
    sampler = SetupSampler(workload, seconds)
    phase = run_phase(make(workload, seed, tmp), seconds, between=sampler.due)
    setup = sampler.result()
    rss_kb = phase.rss_kb if workload == "cli-oneshot" else resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "latency_ms_p50": (phase.latency_ms_p50(), "ms"),
        "throughput_per_s": (phase.throughput_per_s(), "1/s"),
        "peak_rss_mb": (rss_kb / 1024, "MB"),
        "setup_s": (setup, "s"),
    }
    print(f"{workload}: {phase.completed} completed operations in {phase.rounds} round(s), "
          f"setup the least of {SETUP_SAMPLES} fresh processes")
    for named, metric, unit in NAMED[workload]:
        print(f"  {named:<20} {metrics[metric][0]:12.4f} {unit}")
    return [phase], metrics


def traced(workload: str, seed: int, seconds: float, tmp: Path):
    """Untraced and traced rounds in turn, the same number of each, then one
    traced round of every other workload so that every layer has spans."""
    tracer = spans.Tracer(SPAN_LIMIT)
    plain_run, traced_run = make(workload, seed, tmp), make(workload, seed, tmp, tracer)
    plain, phase = Phase(), Phase()
    deadline = perf_counter() + seconds
    while perf_counter() < deadline and not tracer.full():
        run_round(plain_run, plain)
        run_round(traced_run, phase, tracer)
    counts = dict(phase.round_counts)
    probes = []
    for other in ("cli.main", "link-sweep", "beam-design", "documents"):
        if other != workload:
            probe = run_phase(make(other, seed, tmp, tracer), 0, tracer)
            probes.append(probe)
            counts.update(probe.round_counts)
    medians = tracer.median_self_us()
    metrics = {name: (medians[span] / (1e3 if name.endswith("_ms") else 1), name.rsplit("_", 1)[1])
               for name, span in LAYER_SPANS.items()}
    metrics.update({name: (counts.get(name, 0), "count") for name in LAYER_COUNTS})
    metrics.update({name: (v, "ms") for name, v in import_times_ms().items()})
    metrics["trace.python_floor_ms"] = (python_floor_ms(), "ms")
    metrics["trace.overhead_pct"] = (100 * (phase.latency_ms_p50() / plain.latency_ms_p50() - 1), "%")
    OUT.mkdir(exist_ok=True)
    path = OUT / f"spans-{workload}.jsonl"
    tracer.write(path, {"workload": workload, "seed": seed, "fields": ["id", "name", "start_ns", "end_ns",
                                                                       "parent", "op", "ok"]})
    print(f"{workload}: {phase.rounds} traced round(s) in turn with {plain.rounds} untraced; "
          f"{len(tracer.spans)} spans written to {path.relative_to(ROOT)}")
    return [plain, phase, *probes], metrics


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (ROOT / "src" / "satlink" / "__init__.py").is_file():
        print(f"error: no satlink sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    OUT.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        run = traced if args.trace else end_to_end
        phases, metrics = run(args.workload, args.seed, args.seconds, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    own = phases[:2] if args.trace else phases[:1]
    errors = [e for ph in phases for e in ph.errors]
    for e in errors[:10]:
        print(f"check failed: {e}", file=sys.stderr)
    faults: dict = {}
    for ph in own:
        for name, n in ph.faults.items():
            faults[name] = faults.get(name, 0) + n
    attempted, failed = sum(ph.attempted for ph in own), sum(ph.failed for ph in own)
    print(f"attempted {attempted}, failed {failed}, named faults {faults or 'none'}, "
          f"unexpected failures {len(errors)}")
    print(json.dumps({
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
