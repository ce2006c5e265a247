"""The operations of each workload: the timed calls into satlink, then checks.

Only the calls into satlink are timed. The checks run after the clock stops
and compare each output with `reference`; a failed check fails the
operation. An operation that raises one of the two named faults is counted
as failed with that fault's name; any other failure makes the run incorrect.
"""

from __future__ import annotations

import contextlib
import errno
import io
import json
import math
import os
import random
import subprocess
import sys
import threading
import traceback
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import cli_mix
import inputs
import reference as ref
from reference import CheckFailed, close, require

ROOT = Path(__file__).resolve().parent.parent
LOADER_FAULT = "loader-path-guess"


@dataclass
class Outcome:
    seconds: float
    fault: str | None = None
    error: str | None = None
    rss_kb: int = 0


class Workload:
    """One round of seeded items; `run` times one item and checks it."""

    op_name = "op"
    modules: tuple[str, ...] = ()  # the satlink modules whose calls it times
    min_rounds = 1

    def __init__(self):
        self.items: list = []
        self.counts: Counter = Counter()

    def compute(self, item):
        raise NotImplementedError

    def check(self, item, out) -> None:
        raise NotImplementedError

    def fault(self, item, exc: Exception) -> str | None:
        return None

    def run(self, item) -> Outcome:
        start = perf_counter()
        try:
            out = self.compute(item)
        except Exception as exc:  # the program failed: classify, never abort the run
            seconds = perf_counter() - start
            name = self.fault(item, exc)
            if name:
                return Outcome(seconds, fault=name)
            return Outcome(seconds, error=f"{self.op_name}: {type(exc).__name__}: {exc}")
        seconds = perf_counter() - start
        try:
            self.check(item, out)
        except CheckFailed as exc:
            return Outcome(seconds, error=str(exc))
        except Exception as exc:  # output of an unexpected shape
            return Outcome(seconds, error=f"{self.op_name}: unreadable output: {type(exc).__name__}: {exc}")
        return Outcome(seconds)


class LinkSweep(Workload):
    op_name = "link-sweep.point"
    modules = ("linkbudget", "geometry", "quantities", "capacity")

    def __init__(self, api, rng: random.Random, seed: int, tmp: Path):
        super().__init__()
        from satlink import DEFAULT_CONSTANTS, PhysicalConstants
        from satlink.capacity import MODCOD_TABLE, NoFeasibleModcodError

        self.api = api
        self.infeasible = NoFeasibleModcodError
        self.modcods = [(m.name, m.se_bps_hz, m.snr_qef_db) for m in MODCOD_TABLE]
        self.constants = {"default": (DEFAULT_CONSTANTS, ref.DEFAULT_CONSTANTS),
                          "codata": (PhysicalConstants(**ref.CODATA_CONSTANTS), ref.CODATA_CONSTANTS)}
        require(all(getattr(DEFAULT_CONSTANTS, k) == v for k, v in ref.DEFAULT_CONSTANTS.items()),
                "satlink's default constants differ from the documented ones")
        self.items = inputs.link_points(rng)

    def compute(self, p):
        a = self.api
        k = self.constants[p["constants"]][0]
        rx = p["rx"]
        tx = a.Transmitter(p["power_w"], p["gain_dbi"])
        rcv = a.Receiver(rx["gain_dbi"], nf_db=rx.get("nf_db"), noise_temp_k=rx.get("noise_temp_k"),
                         t_ref_k=k.t_ref_k)
        d_km = a.slant_range_exact(p["altitude_km"], math.radians(p["elevation_deg"]), k)
        res = a.link_budget(tx, rcv, d_km * 1e3, p["freq_hz"], p["bw_hz"], p["atm_loss_db"],
                            p["ad_loss_db"], p["margin_db"], k)
        band = a.band_lookup(p["freq_hz"], p["direction"], p["orbit"])
        try:
            chosen = a.select_modcod(res.snr_db)
        except self.infeasible:
            chosen = None
        cap = a.shannon_capacity(p["bw_hz"], 10 ** (res.snr_db / 10))
        return d_km, res, band, chosen, cap

    def check(self, p, out):
        d_km, res, band, chosen, cap = out
        k = self.constants[p["constants"]][1]
        el = math.radians(p["elevation_deg"])
        re = k["earth_radius_km"]
        close(d_km, ref.slant_km(p["altitude_km"], el, re), 1e-9, "slant range")
        ref.check_law_of_cosines(d_km, p["altitude_km"], el, re, "slant range")
        d_m = d_km * 1e3
        close(res.fspl_db, ref.fspl_db(d_m, p["freq_hz"], k["c_m_per_s"]), 1e-9, "fspl")
        loss = p["atm_loss_db"] + p["ad_loss_db"] + p["margin_db"]
        snr = ref.friis_snr_db(p["power_w"], p["gain_dbi"], p["rx"], d_m, p["freq_hz"], p["bw_hz"], loss, k)
        close(res.snr_db, snr, 0.0, "snr vs Friis/kTB", abs_tol=1e-6)
        close(sum(v for _, v in res.breakdown()), res.snr_db, 0.0, "dB ledger sum", abs_tol=1e-9)
        close(10 * math.log10(res.received_power_w / res.noise_power_w), res.snr_db, 0.0,
              "dB ledger vs watts path", abs_tol=1e-6)
        require(band == p["band"], f"band {band!r}, drawn from {p['band']}")
        pick = None if chosen is None else (chosen[0].name, chosen[0].se_bps_hz, chosen[0].snr_qef_db)
        ref.check_modcod(pick, None if chosen is None else chosen[1], self.modcods, res.snr_db, "modcod")
        close(cap, p["bw_hz"] * ref.shannon_se(res.snr_db), 1e-12, "capacity")


class BeamDesign(Workload):
    op_name = "beam-design.design"
    modules = ("constellation", "geometry", "antenna")

    def __init__(self, api, rng: random.Random, seed: int, tmp: Path):
        super().__init__()
        self.api = api
        self.items = inputs.beam_designs(rng)

    def compute(self, item):
        a = self.api
        stats = a.shell_stats(item["shell"])
        cell = a.cell_radius_from_split(stats.footprint_diameter_km / 2, item["beams"])
        hpbw = a.required_hpbw(cell, ref.SHELLS[item["shell"]][0])
        selected = a.select_array(math.degrees(hpbw))
        spec = a.linear(item["elements"])
        return (stats, cell, hpbw, selected, a.hpbw_numeric(spec), a.sidelobe_level(spec),
                a.pattern_csv(spec, 180 / item["steps"]))

    def check(self, item, out):
        stats, cell, hpbw, (spec, peak, edge), hp, sll, text = out
        alt, orbits, spo = ref.SHELLS[item["shell"]]
        fp = ref.footprint(spo, orbits * spo)
        for key, want in fp.items():
            close(getattr(stats, key), want, 1e-12, f"shell_stats {item['shell']}: {key}")
        close(cell, fp["footprint_diameter_km"] / 2 / math.sqrt(item["beams"]), 1e-12, "cell radius")
        close(hpbw, 2 * math.atan(cell / alt), 1e-12, "required hpbw")
        ref.check_selection(spec.label, peak, edge, math.degrees(hpbw), "select_array")
        n = item["elements"]
        ref.check_hpbw(hp, n, 0.5, f"hpbw_numeric N={n}")
        close(sll, ref.reference_sidelobe(n), 0.0, f"sidelobe_level N={n}", abs_tol=1e-6)
        self.counts["antenna.pattern_rows"] += ref.check_pattern(text, n, 0.5, item["steps"], f"pattern N={n}")


@dataclass
class Document:
    kind: str  # "scenario" or "catalog"
    form: str  # "dict", "indented", "compact", "text", "path", "str-path"
    source: object
    value: object  # the scenario doc, or the catalog rows and SNRs


class Documents(Workload):
    op_name = "documents.document"
    modules = ("scenario", "capacity")

    def __init__(self, api, rng: random.Random, seed: int, tmp: Path):
        super().__init__()
        from satlink.capacity import NoFeasibleModcodError
        from satlink.scenario import builtin_fixtures, load_scenario, scenario_to_doc

        self.api = api
        self.infeasible = NoFeasibleModcodError
        # round trips in the checks call satlink directly, outside any span
        self.load_scenario, self.scenario_to_doc = load_scenario, scenario_to_doc
        scenarios, catalogs = inputs.documents(rng, seed)
        items = []
        for i, doc in enumerate(scenarios):
            path = tmp / f"scenario-{i}.json"
            path.write_text(json.dumps(doc, indent=2))
            items += [Document("scenario", "dict", doc, doc),
                      Document("scenario", "indented", json.dumps(doc, indent=2), doc),
                      Document("scenario", "str-path", str(path), doc)]
        for j, cat in enumerate(catalogs):
            text = inputs.catalog_csv(cat["rows"])
            path = tmp / f"catalog-{j}.csv"
            path.write_text(text)
            items += [Document("catalog", "text", text, cat),
                      Document("catalog", "path", path, cat),
                      Document("catalog", "str-path", str(path), cat)]
        # Seed-independent: the bundled fixtures as compact one-line JSON, and
        # a long catalog text without '/'; most of them trip the named fault.
        for doc in map(scenario_to_doc, builtin_fixtures()):
            items.append(Document("scenario", "compact", json.dumps(doc), doc))
        slash_free = {"rows": inputs.SLASH_FREE_CATALOG, "snrs": [-4.0, 0.0, 5.0, 12.0]}
        items.append(Document("catalog", "text", inputs.catalog_csv(slash_free["rows"]), slash_free))
        self.items = items

    def fault(self, item, exc):
        if isinstance(exc, OSError) and exc.errno == errno.ENAMETOOLONG:
            self.counts[f"{'scenario' if item.kind == 'scenario' else 'capacity'}.load_failed"] += 1
            return LOADER_FAULT
        return None

    def compute(self, item):
        a = self.api
        if item.kind == "scenario":
            s = a.load_scenario(item.source)
            report = a.run_scenario(s)
            return s, report, a.from_json(a.to_json(report))
        catalog = a.load_modcod_catalog(item.source)
        picks = []
        for snr in item.value["snrs"]:
            try:
                picks.append(a.select_modcod(snr, catalog))
            except self.infeasible:
                picks.append(None)
        return catalog, picks

    def check(self, item, out):
        what = f"{item.kind} ({item.form})"
        if item.kind == "scenario":
            s, report, back = out
            doc = item.value
            require(s.name == doc["name"] and report.scenario == s, f"{what}: report echoes another scenario")
            require(back == report, f"{what}: from_json(to_json(r)) != r")
            require(self.load_scenario(self.scenario_to_doc(s)) == s,
                    f"{what}: load_scenario(scenario_to_doc(s)) != s")
            self.counts["scenario.findings"] += ref.check_findings(
                [f.to_doc() for f in report.findings], doc, 1e-9, f"{what} {doc['name']}")
            return
        catalog, picks = out
        rows = item.value["rows"]
        require([(m.name, m.se_bps_hz, m.snr_qef_db) for m in catalog] == list(rows), f"{what}: rows differ")
        for snr, pick in zip(item.value["snrs"], picks):
            chosen = None if pick is None else (pick[0].name, pick[0].se_bps_hz, pick[0].snr_qef_db)
            ref.check_modcod(chosen, None if pick is None else pick[1], rows, snr, f"{what} at {snr} dB")


class CliOneShot(Workload):
    """Each item is one `python -m satlink.cli` process, timed spawn to exit."""

    op_name = "cli-oneshot.invocation"
    min_rounds = 2  # a round takes 10-15 s; two give each invocation a second try

    def __init__(self, api, rng: random.Random, seed: int, tmp: Path):
        super().__init__()
        self.tmp = tmp
        self.items = cli_mix.mix(rng)
        cli_mix.write_files(self.items, tmp)
        self.env = child_env()
        self.stdout, self.stderr = tmp / "stdout", tmp / "stderr"

    def run(self, inv) -> Outcome:
        env = dict(self.env)
        if inv.constants_file:
            env["SATLINK_CONSTANTS"] = str(self.tmp / inv.constants_file)
        if inv.fresh_output:
            (self.tmp / inv.fresh_output).unlink(missing_ok=True)
        with self.stdout.open("wb") as out, self.stderr.open("wb") as err:
            start = perf_counter()
            proc = subprocess.Popen([sys.executable, "-m", "satlink.cli", *cli_mix.argv(inv, self.tmp)],
                                    stdin=subprocess.DEVNULL, stdout=out, stderr=err, env=env, cwd=ROOT)
            killer = threading.Timer(120, proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                killer.cancel()
            seconds = perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)  # reaped here, so Popen must not wait again
        outcome = self.judge(inv, proc.returncode, self.stdout.read_text(), self.stderr.read_text(), seconds)
        outcome.rss_kb = usage.ru_maxrss
        return outcome

    def judge(self, inv, code: int, out: str, err: str, seconds: float) -> Outcome:
        try:
            fault = cli_mix.check(inv, code, out, err, self.tmp)
        except CheckFailed as exc:
            return Outcome(seconds, error=str(exc))
        return Outcome(seconds, fault=fault)


class CliMain(CliOneShot):
    """The same argv mix through an in-process `cli.main`, output captured."""

    op_name = "cli.main.invocation"
    modules = ("cli",)

    def __init__(self, api, rng: random.Random, seed: int, tmp: Path):
        super().__init__(api, rng, seed, tmp)
        self.api = api

    def run(self, inv) -> Outcome:
        saved = os.environ.pop("SATLINK_CONSTANTS", None)
        if inv.constants_file:
            os.environ["SATLINK_CONSTANTS"] = str(self.tmp / inv.constants_file)
        if inv.fresh_output:
            (self.tmp / inv.fresh_output).unlink(missing_ok=True)
        out, err = io.StringIO(), io.StringIO()
        start = perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = self.api.main(cli_mix.argv(inv, self.tmp))
                except SystemExit as exc:  # argparse usage errors
                    code = exc.code
                except Exception:  # what the interpreter would print before exiting 1
                    traceback.print_exc()
                    code = 1
        finally:
            seconds = perf_counter() - start
            os.environ.pop("SATLINK_CONSTANTS", None)
            if saved is not None:
                os.environ["SATLINK_CONSTANTS"] = saved
        self.counts["cli.stdout_bytes"] += len(out.getvalue().encode())
        return self.judge(inv, code, out.getvalue(), err.getvalue(), seconds)


def child_env() -> dict:
    """The caller's environment with satlink's sources on the path and CPython's
    default bytecode cache (`__pycache__` beside the sources, as for an
    installed package), whatever the caller set."""
    drop = ("SATLINK_CONSTANTS", "PYTHONPATH", "PYTHONDONTWRITEBYTECODE", "PYTHONPYCACHEPREFIX")
    env = {k: v for k, v in os.environ.items() if k not in drop}
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


WORKLOADS = {
    "cli-oneshot": CliOneShot,
    "link-sweep": LinkSweep,
    "beam-design": BeamDesign,
    "documents": Documents,
}

# Program-side preparation each workload does once, after importing satlink.
SETUP_CODE = {
    "cli-oneshot": "import satlink.cli",
    "link-sweep": "import satlink; satlink.PhysicalConstants(c_m_per_s=299792458.0, earth_radius_km=6378.137)",
    "beam-design": "import satlink; satlink.constellation.list_shells(); satlink.antenna.ARRAY_CATALOG",
    "documents": ("import satlink; from satlink import scenario; "
                  "[scenario.scenario_to_doc(s) for s in scenario.builtin_fixtures()]"),
}
