"""The seeded `satlink` argv mix of the cli-oneshot workload, with its checks.

One round covers every subcommand family, the table/json/csv formats, a
SATLINK_CONSTANTS override file, a scenario file, `antenna pattern --out`
and invocations that must end in exit codes 1, 2, 3 and 4. The last entry
is a fixed invocation that currently dies with a traceback.
"""

from __future__ import annotations

import csv
import io
import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import inputs
import reference as ref
from reference import CheckFailed, close, require

TRACEBACK = "Traceback (most recent call last)"
CONFIG_FAULT = "cli-config-traceback"
# Fixed, seed-independent: a non-numeric distance in a link budget config.
FAR_CONFIG = {"distance_km": "far", "freq_ghz": 2.0, "eirp_dbw": 40.0, "g_over_t_dbk": -10.0, "bw_mhz": 1.0}


@dataclass
class Invocation:
    name: str
    argv: list[str]
    expect: int
    check: Callable[[str, Path], None] = lambda out, tmp: None
    files: dict[str, str] = field(default_factory=dict)
    constants_file: str | None = None
    fresh_output: str | None = None  # removed before each run, so the check sees new output
    fault: str | None = None


def _num(x: float) -> str:
    return repr(float(x))


def _csv_record(out: str) -> dict:
    rows = list(csv.DictReader(io.StringIO(out)))
    require(len(rows) == 1, f"expected one CSV record, got {len(rows)}")
    return rows[0]


def _close6(got, want: float, what: str) -> None:
    close(float(got), want, 1e-5, what, abs_tol=1e-12)


def _fields6(record: dict, want: dict, what: str) -> None:
    for key, value in want.items():
        require(key in record, f"{what}: no field {key}")
        _close6(record[key], value, f"{what}: {key}")


def mix(rng: random.Random) -> list[Invocation]:
    invs: list[Invocation] = []

    # convert band, json: rows of every allocation holding the carrier
    direction = rng.choice(("downlink", "uplink"))
    orbit = rng.choice(("geo", "non-geo", "any"))
    band, f_mhz = inputs.in_band_carrier(rng, direction, orbit)
    holding = {(r[0], r[1]) for r in ref.chart_rows(direction, orbit) if r[3][0] <= f_mhz <= r[3][1]}

    def check_band(out, tmp, band=band, direction=direction, holding=holding):
        rows = json.loads(out)
        require({(r["band"], r["orbit"]) for r in rows} == holding, f"convert band: rows {rows}")
        require(all(r["band"] == band and r["direction"] == direction for r in rows), "convert band")

    invs.append(Invocation("convert-band", ["convert", "band", "--freq-mhz", _num(f_mhz), "--direction",
                                            direction, "--orbit", orbit, "--format", "json"], 0, check_band))

    # geometry slant, csv
    h, el = inputs.log_uniform(rng, 400, 36000), rng.uniform(5, 89)

    def check_slant(out, tmp, h=h, el=el):
        rec = _csv_record(out)
        _fields6(rec, {"slant_range_km": ref.slant_km(h, math.radians(el), 6371.0),
                       "slant_range_altitude_approx_km": h / math.cos(math.radians(el))}, "geometry slant")

    invs.append(Invocation("geometry-slant", ["geometry", "slant", "--altitude-km", _num(h), "--elevation-deg",
                                              _num(el), "--format", "csv"], 0, check_slant))

    # linkbudget, json, under a SATLINK_CONSTANTS override
    k = ref.CODATA_CONSTANTS
    lb = {
        "h": inputs.log_uniform(rng, 400, 36000), "el": rng.uniform(10, 90),
        "f_ghz": inputs.in_band_carrier(rng, "downlink", "any")[1] / 1e3,
        "p": inputs.log_uniform(rng, 0.5, 200), "g": rng.uniform(0, 40),
        "terminal": rng.choice(sorted(ref.TERMINALS)), "bw_khz": inputs.log_uniform(rng, 10, 5e5),
        "atm": rng.uniform(0, 10),
    }

    def check_budget(out, tmp, lb=lb):
        rec = json.loads(out)
        d_m = 1e3 * ref.slant_km(lb["h"], math.radians(lb["el"]), k["earth_radius_km"])
        f_hz, bw = lb["f_ghz"] * 1e9, lb["bw_khz"] * 1e3
        rx = ref.TERMINALS[lb["terminal"]]
        snr = ref.friis_snr_db(lb["p"], lb["g"], rx, d_m, f_hz, bw, lb["atm"], k)
        _fields6(rec, {"fspl_db": ref.fspl_db(d_m, f_hz, k["c_m_per_s"]),
                       "eirp_dbw": 10 * math.log10(lb["p"]) + lb["g"],
                       "bw_dbhz": 10 * math.log10(bw), "atm_loss_db": lb["atm"]}, "linkbudget")
        close(rec["snr_db"], snr, 1e-5, "linkbudget: snr_db", abs_tol=1e-5)
        close(10 * math.log10(rec["received_power_w"] / rec["noise_power_w"]), snr, 0.0,
              "linkbudget: watts path", abs_tol=1e-4)

    invs.append(Invocation(
        "linkbudget", ["linkbudget", "--altitude-km", _num(lb["h"]), "--elevation-deg", _num(lb["el"]),
                       "--freq-ghz", _num(lb["f_ghz"]), "--power-w", _num(lb["p"]), "--gain-dbi", _num(lb["g"]),
                       "--terminal", lb["terminal"], "--bw-khz", _num(lb["bw_khz"]),
                       "--atm-loss-db", _num(lb["atm"]), "--format", "json"],
        0, check_budget, files={"constants.json": json.dumps(k)}, constants_file="constants.json"))

    # capacity, json
    snr_db, bw_mhz = rng.uniform(-10, 30), inputs.log_uniform(rng, 0.01, 500)

    def check_capacity(out, tmp, snr_db=snr_db, bw_mhz=bw_mhz):
        _fields6(json.loads(out), {"snr_linear": 10 ** (snr_db / 10), "se_max_bps_hz": ref.shannon_se(snr_db),
                                   "capacity_bps": bw_mhz * 1e6 * ref.shannon_se(snr_db)}, "capacity")

    invs.append(Invocation("capacity", ["capacity", "--snr-db", _num(snr_db), "--bw-mhz", _num(bw_mhz),
                                        "--format", "json"], 0, check_capacity))

    # modcod, csv, with a catalog file
    rows = inputs.catalog_rows(rng, 8)
    snr_db, bw_mhz = rng.uniform(rows[0][2] + 0.1, rows[-1][2] + 3), inputs.log_uniform(rng, 0.01, 500)

    def check_modcod(out, tmp, rows=rows, snr_db=snr_db, bw_mhz=bw_mhz):
        rec = _csv_record(out)
        best = ref.best_modcod(rows, snr_db)
        require(rec["modcod"] == best[0], f"modcod: chose {rec['modcod']}, best is {best[0]}")
        _fields6(rec, {"se_bps_hz": best[1], "snr_qef_db": best[2], "margin_db": snr_db - best[2],
                       "bitrate_bps": best[1] * bw_mhz * 1e6}, "modcod")

    invs.append(Invocation("modcod", ["modcod", "--snr-db", _num(snr_db), "--catalog", "{tmp}/catalog.csv",
                                      "--bw-mhz", _num(bw_mhz), "--format", "csv"], 0, check_modcod,
                           files={"catalog.csv": inputs.catalog_csv(rows)}))

    # multibeam, json
    mb = {"se": rng.uniform(0.5, 5), "bw": rng.uniform(0.1, 3), "pol": rng.choice((1, 2)),
          "beams": rng.randint(1, 200), "colors": rng.randint(1, 7), "guard": rng.uniform(0, 0.3)}

    def check_multibeam(out, tmp, mb=mb):
        want = mb["se"] * mb["bw"] * 1e9 * mb["pol"] * mb["beams"] / mb["colors"] * (1 - mb["guard"])
        _fields6(json.loads(out), {"capacity_bps": want}, "multibeam")

    invs.append(Invocation("multibeam", ["multibeam", "--se", _num(mb["se"]), "--bw-ghz", _num(mb["bw"]),
                                         "--pol", str(mb["pol"]), "--beams", str(mb["beams"]), "--colors",
                                         str(mb["colors"]), "--guard", _num(mb["guard"]), "--format", "json"],
                           0, check_multibeam))

    # cost, json
    rtot = inputs.log_uniform(rng, 0.1, 1000)
    invs.append(Invocation(
        "cost", ["cost", "--rtot-gbps", _num(rtot), "--format", "json"], 0,
        lambda out, tmp, r=rtot: _fields6(json.loads(out), {"cost_per_gbps": 167.3 * r**-0.886}, "cost")))

    # tcp, csv
    mss, rtt, ploss = rng.uniform(500, 9000), rng.uniform(1, 800), inputs.log_uniform(rng, 1e-9, 1e-2)
    invs.append(Invocation(
        "tcp", ["tcp", "--mss", _num(mss), "--rtt-ms", _num(rtt), "--ploss", _num(ploss), "--format", "csv"], 0,
        lambda out, tmp, m=mss, t=rtt, p=ploss: _fields6(
            _csv_record(out), {"throughput_bps": m * 8 / (t * 1e-3) / math.sqrt(p)}, "tcp")))

    # antenna pattern --out
    n, steps = rng.randint(3, 64), 2 * rng.randint(90, 450)
    invs.append(Invocation(
        "antenna-pattern", ["antenna", "pattern", "--elements", str(n), "--resolution-deg", _num(180 / steps),
                            "--out", "{tmp}/pattern.csv"], 0,
        lambda out, tmp, n=n, steps=steps: ref.check_pattern(
            (tmp / "pattern.csv").read_text(), n, 0.5, steps, "antenna pattern"),
        fresh_output="pattern.csv"))

    # antenna select, json
    radius, alt = rng.uniform(5, 500), rng.uniform(300, 2000)

    def check_select(out, tmp, radius=radius, alt=alt):
        rec = json.loads(out)
        need = math.degrees(2 * math.atan(radius / alt))
        _close6(rec["required_hpbw_deg"], need, "antenna select: required_hpbw_deg")
        ref.check_selection(rec["array"], rec["peak_gain_dbi"], rec["edge_gain_dbi"], need, "antenna select")
        _close6(rec["hpbw_deg"], math.sqrt(32400 / ref.ARRAYS[rec["array"]]), "antenna select: hpbw_deg")

    invs.append(Invocation("antenna-select", ["antenna", "select", "--cell-radius-km", _num(radius),
                                              "--altitude-km", _num(alt), "--format", "json"], 0, check_select))

    # constellation stats, json
    shell = rng.choice(sorted(ref.SHELLS))

    def check_stats(out, tmp, shell=shell):
        alt, orbits, spo = ref.SHELLS[shell]
        rec = json.loads(out)
        require(rec["shell"] == shell and rec["total_satellites"] == orbits * spo, "constellation stats")
        _fields6(rec, {"altitude_km": alt, **{k: v for k, v in ref.footprint(spo, orbits * spo).items()
                                               if k != "total_satellites"}}, "constellation stats")

    invs.append(Invocation("constellation-stats", ["constellation", "stats", shell, "--format", "json"], 0,
                           check_stats))

    # scenario run on a file, json
    doc = inputs.scenario_doc(rng, "cli-scenario", 3)

    def check_scenario(out, tmp, doc=doc):
        rep = json.loads(out)
        ref.check_findings(rep["findings"], doc, 1e-5, "scenario run")

    invs.append(Invocation("scenario-run", ["scenario", "run", "{tmp}/scenario.json", "--format", "json"], 0,
                           check_scenario, files={"scenario.json": json.dumps(doc, indent=2)}))

    # geometry footprint, precise table
    spo, cov = rng.randint(5, 80), rng.randint(1, 2000)

    def check_footprint(out, tmp, spo=spo, cov=cov):
        rec = dict(line.split(None, 1) for line in out.splitlines() if line.strip())
        fp = ref.footprint(spo, cov)
        _fields6(rec, {"footprint_diameter_km": fp["footprint_diameter_km"],
                       "footprint_area_km2": fp["footprint_area_km2"],
                       "coverage_fraction": fp["shell_coverage_fraction"]}, "geometry footprint")

    invs.append(Invocation("geometry-footprint", ["geometry", "footprint", "--sats-per-orbit", str(spo),
                                                  "--coverage-sats", str(cov), "--precise"], 0, check_footprint))

    # documented failures: 1 domain, 2 usage, 3 infeasible, 4 file I/O
    direction = rng.choice(("downlink", "uplink"))
    invs.append(Invocation("exit-1-out-of-band", ["convert", "band", "--freq-mhz",
                                                  _num(inputs.out_of_band_carrier(rng, direction)),
                                                  "--direction", direction], 1))
    invs.append(Invocation("exit-2-unknown-shell", ["constellation", "stats", f"X{rng.randint(1, 99)}"], 2))
    invs.append(Invocation("exit-3-infeasible", ["modcod", "--snr-db",
                                                 _num(rng.uniform(-12, ref.DEFAULT_MODCOD_FLOOR_DB - 0.5))], 3))
    invs.append(Invocation("exit-4-unwritable", ["antenna", "pattern", "--elements", str(rng.randint(3, 64)),
                                                 "--out", "{tmp}/no-such-dir/pattern.csv"], 4))

    invs.append(Invocation("linkbudget-config-far", ["linkbudget", "--config", "{tmp}/far.json"], 1,
                           files={"far.json": json.dumps(FAR_CONFIG)}, fault=CONFIG_FAULT))
    return invs


def write_files(invs: list[Invocation], tmp: Path) -> None:
    for inv in invs:
        for name, text in inv.files.items():
            (tmp / name).write_text(text)


def argv(inv: Invocation, tmp: Path) -> list[str]:
    return [a.replace("{tmp}", str(tmp)) for a in inv.argv]


def check(inv: Invocation, code: int, out: str, err: str, tmp: Path) -> str | None:
    """Raise CheckFailed on a wrong result; return the fault name on the named fault."""
    if inv.fault and code == 1 and TRACEBACK in err and "ValueError" in err:
        return inv.fault
    if TRACEBACK in err:
        raise CheckFailed(f"{inv.name}: traceback on stderr: {err.strip().splitlines()[-1]}")
    require(code == inv.expect, f"{inv.name}: exit code {code}, expected {inv.expect}: {err.strip()[:200]}")
    if inv.expect:
        require(err.startswith("error:"), f"{inv.name}: stderr {err[:200]!r}")
        return None
    try:
        inv.check(out, tmp)
    except CheckFailed:
        raise
    except (ValueError, KeyError, IndexError, TypeError, AttributeError) as exc:
        raise CheckFailed(f"{inv.name}: unreadable output ({type(exc).__name__}: {exc})") from exc
    return None
