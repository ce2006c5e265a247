"""Seeded input generators, one per workload.

Each generator takes a `random.Random` and returns one round of inputs. The
number and kinds of items in a round never depend on the seed (only their
values do), so every run attempts whole rounds of the same mix and the
share of failed operations is the same for every seed.
"""

from __future__ import annotations

import math
import random

import reference as ref

LINK_POINTS_PER_ROUND = 1000
BEAM_DESIGNS_PER_SHELL = 4
SCENARIO_CASE_COUNTS = (0, 1, 2, 3, 4, 5, 6) * 4
CATALOG_ROW_COUNTS = (4, 6, 8, 10, 12, 16) * 2
SNRS_PER_CATALOG = 8
BANDS = ("L", "S", "C", "Ku", "Ka")


def log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def in_band_carrier(rng: random.Random, direction: str, orbit: str, band: str | None = None):
    """(band, MHz) drawn uniformly inside one allocation of the chart."""
    rows = [r for r in ref.chart_rows(direction, orbit) if band is None or r[0] == band]
    name, _, _, (lo, hi) = rng.choice(rows)
    return name, rng.uniform(lo, hi)


def out_of_band_carrier(rng: random.Random, direction: str) -> float:
    lo, hi = rng.choice(ref.chart_gaps(direction))
    return rng.uniform(lo, hi)


# --- link-sweep ---------------------------------------------------------------


def link_points(rng: random.Random) -> list[dict]:
    """Link points from LEO to GEO, 10-90 deg elevation, carriers across L-Ka."""
    points = []
    for i in range(LINK_POINTS_PER_ROUND):
        geo = i % 3 == 0
        direction = ("downlink", "uplink")[i % 2]
        orbit = "geo" if geo else "non-geo"
        band, f_mhz = in_band_carrier(rng, direction, orbit)
        kind = i % 4
        if kind < 3:
            rx = dict(ref.TERMINALS[("class3-ue", "vsat", "iot")[kind]])
        elif rng.random() < 0.5:
            rx = {"gain_dbi": rng.uniform(-3, 45), "nf_db": rng.uniform(0.5, 10)}
        else:
            rx = {"gain_dbi": rng.uniform(-3, 45), "noise_temp_k": rng.uniform(30, 1000)}
        points.append({
            "altitude_km": ref.GEO_ALTITUDE_KM if geo else log_uniform(rng, 400, 20000),
            "elevation_deg": rng.uniform(10, 90),
            "direction": direction,
            "orbit": orbit,
            "band": band,
            "freq_hz": f_mhz * 1e6,
            "bw_hz": log_uniform(rng, 1e4, 5e8),
            "power_w": log_uniform(rng, 0.5, 200),
            "gain_dbi": rng.uniform(0, 45),
            "rx": rx,
            "atm_loss_db": rng.uniform(0, 10),
            "ad_loss_db": rng.uniform(0, 3),
            "margin_db": rng.uniform(0, 6),
            "constants": ("default", "codata")[(i // 2) % 2],
        })
    return points


# --- beam-design ----------------------------------------------------------------


def stratified(rng: random.Random, n: int) -> list[float]:
    """n values in [0, 1), one from each of n equal slices, in random order."""
    u = [(k + rng.random()) / n for k in range(n)]
    rng.shuffle(u)
    return u


def beam_designs(rng: random.Random) -> list[dict]:
    """Per catalog shell, seeded beam splits, each paired with a linear array.

    Element and step counts are stratified, so every round spans the same
    range of array sizes and pattern resolutions whatever the seed.
    """
    n = len(ref.SHELLS) * BEAM_DESIGNS_PER_SHELL
    sizes, steps = stratified(rng, n), stratified(rng, n)
    return [
        {
            "shell": shell,
            "beams": rng.randint(1, 400),
            "elements": round(3 * (256 / 3) ** sizes[i]),
            # an even step count puts a sample exactly at broadside
            "steps": 2 * int(180 + 721 * steps[i]),
        }
        for i, shell in enumerate(sorted(ref.SHELLS) * BEAM_DESIGNS_PER_SHELL)
    ]


# --- documents ------------------------------------------------------------------


def scenario_doc(rng: random.Random, name: str, n_cases: int) -> dict:
    """A scenario document with every optional part present or absent at random."""
    orbit = rng.choice(("LEO", "MEO", "GEO", "HAP"))
    alt = {"LEO": (400, 2000), "MEO": (8000, 20000), "GEO": (35786, 35786), "HAP": (18, 25)}[orbit]
    doc: dict = {"name": name, "orbit": orbit, "altitude_km": rng.uniform(*alt)}
    if rng.random() < 0.6:
        doc["description"] = f"generated {orbit} project {name}"
    if rng.random() < 0.85:
        doc["elevation_deg"] = rng.uniform(10, 90)
    chart_orbit = ref.ORBIT_CHART.get(orbit, "any")
    band = rng.choice(BANDS)
    for d, direction in (("dl", "downlink"), ("ul", "uplink")):
        r = rng.random()
        if r < 0.6:
            doc[f"freq_{d}_ghz"] = in_band_carrier(rng, direction, chart_orbit, band)[1] / 1e3
        elif r < 0.85:
            doc[f"freq_{d}_ghz"] = out_of_band_carrier(rng, direction) / 1e3
        if rng.random() < 0.7:
            doc[f"bw_{d}_mhz"] = log_uniform(rng, 0.01, 500)
    r = rng.random()
    if r < 0.5:
        doc["band"] = band
    elif r < 0.65:
        doc["band"] = f"{band}/{rng.choice(BANDS)}"
    elif r < 0.8:
        doc["band"] = rng.choice([b for b in BANDS if b != band])
    r = rng.random()
    if r < 0.3:
        doc["terminal"] = rng.choice(sorted(ref.TERMINALS))
    elif r < 0.5:
        doc["terminal"] = {"name": "class3-ue", "nf_db": rng.uniform(5, 10)}
    elif r < 0.7:
        doc["terminal"] = {"name": "panel", "gain_dbi": rng.uniform(10, 40),
                           "noise_temp_k": rng.uniform(50, 500), "eirp_dbm": rng.uniform(20, 60)}
    if rng.random() < 0.4:
        doc["margin_db"] = rng.uniform(0, 6)
    if rng.random() < 0.3:
        doc["reuse"] = rng.randint(1, 7)
    r = rng.random()
    if r < 0.3:
        doc["beams"] = rng.randint(1, 64)
        doc["footprint_radius_km"] = rng.uniform(10, 500)
    elif r < 0.4:
        doc["beams"] = rng.randint(1, 64)
    if rng.random() < 0.3:
        doc["annotations"] = [f"note {k} on {name}" for k in range(rng.randint(1, 3))]
    if rng.random() < 0.3:
        doc["sinr_dl_db"] = rng.uniform(-5, 25)
        doc["se_dl_bps_hz"] = shannon_graded_se(rng, doc["sinr_dl_db"])
    cases = [link_case(rng, doc, k) for k in range(n_cases)]
    if cases:
        doc["cases"] = cases
    return doc


def shannon_graded_se(rng: random.Random, sinr_db: float) -> float:
    """A spectral efficiency clearly below or clearly above the Shannon bound."""
    return ref.shannon_se(sinr_db) * (rng.uniform(0.3, 0.95) if rng.random() < 0.75 else rng.uniform(1.05, 1.5))


def link_case(rng: random.Random, doc: dict, k: int) -> dict:
    d = rng.choice(("dl", "ul"))
    case: dict = {"direction": d, "label": f"point-{k}"}
    if rng.random() < 0.8:
        case["sinr_db"] = rng.uniform(-5, 25)
    if rng.random() < 0.8:
        case["se_bps_hz"] = (shannon_graded_se(rng, case["sinr_db"]) if "sinr_db" in case
                             else rng.uniform(0.2, 6))
    bw = None
    r = rng.random()
    if r < 0.3:
        bw = case["bw_mhz"] = log_uniform(rng, 0.01, 500)
    elif r < 0.4:
        case["bw_hz"] = log_uniform(rng, 1e4, 5e8)
        bw = case["bw_hz"] * 1e-6
    else:
        bw = doc.get(f"bw_{d}_mhz")
    if rng.random() < 0.7:
        if "se_bps_hz" in case and bw is not None:
            # reported clearly within or clearly outside the 5% grading
            factor = rng.choice((rng.uniform(0.97, 1.03), rng.uniform(0.5, 0.9), rng.uniform(1.1, 1.5)))
            mbps = case["se_bps_hz"] * bw * factor
        else:
            mbps = log_uniform(rng, 0.01, 1000)
        if rng.random() < 0.2:
            case["bitrate_bps"] = mbps * 1e6
        else:
            case["bitrate_mbps"] = mbps
    return case


def catalog_rows(rng: random.Random, n_rows: int) -> list[tuple[str, float, float]]:
    """A Shannon-dominated, monotone MODCOD catalog with DVB-style names."""
    mods = ("QPSK", "8PSK", "16APSK", "32APSK", "64APSK")
    rates = ("1/4", "1/3", "2/5", "1/2", "3/5", "2/3", "3/4", "4/5", "5/6", "8/9")
    share = rng.uniform(0.55, 0.9)
    snr, rows = rng.uniform(-4, 0), []
    for k in range(n_rows):
        rows.append((f"{mods[k * len(mods) // n_rows]} {rates[k % len(rates)]}-{k}",
                     ref.shannon_se(snr) * share, snr))
        snr += rng.uniform(0.4, 2.5)
    return rows


def catalog_csv(rows) -> str:
    return "name,se_bps_hz,snr_qef_db\n" + "".join(f"{n},{se!r},{snr!r}\n" for n, se, snr in rows)


def catalog_snrs(rng: random.Random, rows) -> list[float]:
    """SNRs from below the catalog floor to above its top entry."""
    lo, hi = rows[0][2], rows[-1][2]
    return [rng.uniform(lo - 3, hi + 3) for _ in range(SNRS_PER_CATALOG)]


def documents(rng: random.Random, seed: int) -> tuple[list[dict], list[dict]]:
    scenarios = [scenario_doc(rng, f"gen-{seed}-{i}", n) for i, n in enumerate(SCENARIO_CASE_COUNTS)]
    catalogs = []
    for n in CATALOG_ROW_COUNTS:
        rows = catalog_rows(rng, n)
        catalogs.append({"rows": rows, "snrs": catalog_snrs(rng, rows)})
    return scenarios, catalogs


# A 30-row catalog whose names hold no '/': as one text it is longer than a
# file-name component may be, which the loader's path-or-text guess trips on.
SLASH_FREE_CATALOG = [(f"MC{k:02d} rate {k}", 0.1 + 0.05 * k, -3.0 + 0.5 * k) for k in range(30)]
