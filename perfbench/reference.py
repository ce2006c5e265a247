"""Reference data and formulas the benchmark checks satlink against.

Everything here is written from the published formulas and tables, not
imported from satlink, so a check fails when the program drifts from them.
numpy is imported only inside the array-factor checks, so the workloads that
do not use them do not carry it in their memory figures.
"""

from __future__ import annotations

import math


class CheckFailed(Exception):
    """An output of the program disagrees with the reference."""


def require(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


def close(a: float, b: float, rel: float, what: str, abs_tol: float = 0.0) -> None:
    if not (abs(a - b) <= max(rel * max(abs(a), abs(b)), abs_tol)):
        raise CheckFailed(f"{what}: got {a!r}, expected {b!r}")


# Constants: the documented defaults and a CODATA-style override.
DEFAULT_CONSTANTS = {
    "c_m_per_s": 3.0e8,
    "boltzmann_j_per_k": 1.380649e-23,
    "earth_radius_km": 6371.0,
    "earth_perimeter_km": 40075.0,
    "earth_surface_km2": 510.1e6,
    "t_ref_k": 290.0,
}
CODATA_CONSTANTS = dict(DEFAULT_CONSTANTS, c_m_per_s=299792458.0, earth_radius_km=6378.137)

GEO_ALTITUDE_KM = 35786.0

# ITU satellite allocations from L to Ka band: (band, orbit, direction, (lo, hi) MHz).
BAND_CHART = (
    ("L", "geo", "downlink", (1518.0, 1559.0)),
    ("L", "geo", "uplink", (1626.5, 1660.5)),
    ("L", "geo", "uplink", (1668.0, 1675.0)),
    ("L", "non-geo", "downlink", (1613.8, 1626.5)),
    ("L", "non-geo", "uplink", (1610.0, 1626.5)),
    ("S", "any", "downlink", (2160.0, 2200.0)),
    ("S", "any", "downlink", (2483.5, 2500.0)),
    ("S", "any", "uplink", (1980.0, 2025.0)),
    ("C", "any", "downlink", (3400.0, 4200.0)),
    ("C", "any", "downlink", (4500.0, 4800.0)),
    ("C", "any", "uplink", (5725.0, 7025.0)),
    ("Ku", "any", "downlink", (10700.0, 12750.0)),
    ("Ku", "any", "uplink", (12750.0, 13250.0)),
    ("Ku", "any", "uplink", (13750.0, 14500.0)),
    ("Ka", "geo", "downlink", (17300.0, 20200.0)),
    ("Ka", "geo", "uplink", (27000.0, 30000.0)),
    ("Ka", "non-geo", "downlink", (17700.0, 20200.0)),
    ("Ka", "non-geo", "uplink", (27000.0, 29100.0)),
    ("Ka", "non-geo", "uplink", (29500.0, 30000.0)),
)

# Scenario orbit classes and the chart column each one is checked against.
ORBIT_CHART = {"GEO": "geo", "LEO": "non-geo", "MEO": "non-geo"}


def chart_rows(direction: str, orbit: str):
    """Chart rows a (direction, orbit) query may match; orbit 'any' matches all."""
    return [
        r for r in BAND_CHART
        if r[2] == direction and (orbit == "any" or r[1] in ("any", orbit))
    ]


def chart_band(freq_mhz: float, direction: str, orbit: str) -> str | None:
    for band, _, _, (lo, hi) in chart_rows(direction, orbit):
        if lo <= freq_mhz <= hi:
            return band
    return None


def chart_gaps(direction: str, lo_mhz: float = 1000.0, hi_mhz: float = 31000.0, pad: float = 1.0):
    """Frequency ranges in [lo, hi] outside every allocation of any orbit."""
    gaps, at = [], lo_mhz
    for a, b in sorted(r[3] for r in BAND_CHART if r[2] == direction):
        if a - pad > at + pad:
            gaps.append((at + pad, a - pad))
        at = max(at, b)
    if hi_mhz > at + pad:
        gaps.append((at + pad, hi_mhz))
    return gaps


# Terminal presets: gain dBi plus one of noise figure (dB) or noise temperature (K).
TERMINALS = {
    "class3-ue": {"gain_dbi": 0.0, "nf_db": 7.0},
    "vsat": {"gain_dbi": 12.0, "nf_db": 5.0},
    "iot": {"gain_dbi": 0.0, "noise_temp_k": 290.0},
}

# Public constellation shells: id -> (altitude km, orbits, satellites per orbit).
SHELLS = {
    "S1": (550.0, 72, 22), "S2": (1110.0, 32, 50), "S3": (1130.0, 8, 50),
    "S4": (1275.0, 5, 75), "S5": (1325.0, 6, 75), "K1": (630.0, 34, 34),
    "K2": (610.0, 36, 36), "K3": (590.0, 28, 28), "T1": (1015.0, 27, 13),
    "T2": (1325.0, 40, 33),
}

# Directive entries of the reference array catalog: label -> max directivity.
ARRAYS = {
    "linear-3": 3.0, "linear-7": 7.0, "linear-11": 11.0,
    "planar-4x4": 16 * math.pi, "planar-8x8": 64 * math.pi,
    "planar-16x16": 256 * math.pi, "planar-32x32": 1024 * math.pi,
}

DEFAULT_MODCOD_FLOOR_DB = -2.0


# --- formulas ---------------------------------------------------------------


def slant_km(h: float, el_rad: float, re: float) -> float:
    """Slant range from the law of cosines, solved independently."""
    s = math.sin(el_rad)
    return math.sqrt((re * s) ** 2 + h * h + 2 * re * h) - re * s


def check_law_of_cosines(d: float, h: float, el_rad: float, re: float, what: str) -> None:
    lhs = (re + h) ** 2
    rhs = re * re + d * d + 2 * re * d * math.sin(el_rad)
    close(lhs, rhs, 1e-9, f"{what}: law of cosines")


def noise_temp(rx: dict, t_ref: float) -> float:
    if "noise_temp_k" in rx:
        return rx["noise_temp_k"]
    return t_ref * (10 ** (rx["nf_db"] / 10) - 1)


def friis_snr_db(p_w, gt_dbi, rx, d_m, f_hz, bw_hz, loss_db, k: dict) -> float:
    """SNR from Friis received power over kTB noise, all in watts."""
    lam = k["c_m_per_s"] / f_hz
    pr = p_w * 10 ** (gt_dbi / 10) * 10 ** (rx["gain_dbi"] / 10) * lam**2 / (4 * math.pi * d_m) ** 2
    pr /= 10 ** (loss_db / 10)
    n = k["boltzmann_j_per_k"] * noise_temp(rx, k["t_ref_k"]) * bw_hz
    return 10 * math.log10(pr / n)


def fspl_db(d_m: float, f_hz: float, c: float) -> float:
    return 20 * math.log10(4 * math.pi * d_m * f_hz / c)


def shannon_se(snr_db: float) -> float:
    """log2(1 + snr), through log1p so that small SNRs keep their digits."""
    return math.log1p(10 ** (snr_db / 10)) / math.log(2)


def best_modcod(rows, snr_db: float):
    """Brute force: the feasible (name, se, snr) with the highest se, ties to lower snr."""
    feasible = [r for r in rows if r[2] <= snr_db]
    if not feasible:
        return None
    top = max(r[1] for r in feasible)
    return min((r for r in feasible if r[1] == top), key=lambda r: r[2])


def check_modcod(chosen, margin, rows, snr_db: float, what: str) -> None:
    """`chosen` is None when the program reported no feasible entry."""
    ref = best_modcod(rows, snr_db)
    if ref is None:
        require(chosen is None, f"{what}: {chosen} chosen below the catalog floor at {snr_db} dB")
        return
    require(chosen is not None, f"{what}: no MODCOD reported at {snr_db} dB, {ref[0]} is feasible")
    name, se, req = chosen
    require(req <= snr_db, f"{what}: {name} needs {req} dB > {snr_db} dB")
    require(se == ref[1], f"{what}: {name} ({se} bps/Hz) is not the best feasible {ref[0]} ({ref[1]})")
    close(margin, snr_db - req, 1e-12, f"{what}: margin", abs_tol=1e-12)


def footprint(sats_per_orbit: int, total: int, k: dict = DEFAULT_CONSTANTS) -> dict:
    d = k["earth_perimeter_km"] / sats_per_orbit
    area = math.pi * (d / 2) ** 2
    return {
        "footprint_diameter_km": d,
        "footprint_area_km2": area,
        "orbit_coverage_fraction": min(1.0, sats_per_orbit * area / k["earth_surface_km2"]),
        "shell_coverage_fraction": min(1.0, total * area / k["earth_surface_km2"]),
        "total_satellites": total,
    }


def nearest_array(hpbw_deg: float):
    """(label, directivity) of the catalog entry whose approximate HPBW is nearest."""
    return min(ARRAYS.items(), key=lambda kv: abs(math.sqrt(32400.0 / kv[1]) - hpbw_deg))


def check_selection(label: str, peak_dbi: float, edge_dbi: float, hpbw_deg: float, what: str) -> None:
    ref_label, d = nearest_array(hpbw_deg)
    require(label == ref_label, f"{what}: selected {label}, nearest is {ref_label}")
    close(peak_dbi, 10 * math.log10(d), 1e-5, f"{what}: peak gain")
    close(edge_dbi, 10 * math.log10(d) - 10 * math.log10(2), 1e-5, f"{what}: edge gain")


def af(n: int, psi):
    """Normalized array factor |sin(n psi/2) / (n sin(psi/2))|, written out."""
    import numpy as np

    psi = np.asarray(psi, dtype=float)
    den = n * np.sin(psi / 2)
    with np.errstate(divide="ignore", invalid="ignore"):
        v = np.abs(np.sin(n * psi / 2) / den)
    return np.where(den == 0, 1.0, np.minimum(v, 1.0))


def check_hpbw(hpbw_deg: float, n: int, spacing: float, what: str) -> None:
    theta = math.pi / 2 - math.radians(hpbw_deg) / 2
    first_null = math.acos(min(1.0, 1 / (n * spacing)))
    require(first_null < theta < math.pi / 2, f"{what}: edge {theta} rad outside the main lobe")
    p = float(af(n, 2 * math.pi * spacing * math.cos(theta))) ** 2
    close(p, 0.5, 0.0, f"{what}: power at the HPBW edge", abs_tol=1e-5)


def reference_sidelobe(n: int) -> float:
    """Peak |AF| outside the main lobe: a dense scan, then bisection on AF' = 0."""
    import numpy as np

    null1 = 2 * math.pi / n
    psi = np.linspace(null1, 2 * math.pi - null1, 4096 + 64 * n)[1:-1]
    i = int(np.argmax(af(n, psi)))
    a, b = float(psi[max(i - 1, 0)]), float(psi[min(i + 1, len(psi) - 1)])

    def slope(x):  # sign of d/dpsi [sin(n x/2)/sin(x/2)], up to a positive factor
        return n * math.cos(n * x / 2) * math.sin(x / 2) - math.sin(n * x / 2) * math.cos(x / 2)

    ga = slope(a)
    for _ in range(80):
        m = 0.5 * (a + b)
        gm = slope(m)
        if (gm > 0) == (ga > 0):
            a, ga = m, gm
        else:
            b = m
    return max(float(af(n, 0.5 * (a + b))), float(af(n, psi[i])))


def check_pattern(text: str, n: int, spacing: float, steps: int, what: str) -> int:
    """Check a pattern CSV; returns its row count."""
    import numpy as np

    lines = text.splitlines()
    require(lines[0] == "theta_deg,psi_rad,amplitude,power_db", f"{what}: header {lines[0]!r}")
    require(len(lines) - 1 == steps + 1, f"{what}: {len(lines) - 1} rows for {steps} steps")
    cols = np.array([line.split(",") for line in lines[1:]], dtype=float)
    theta, amp, pdb = np.radians(cols[:, 0]), cols[:, 2], cols[:, 3]
    require(bool(np.all((amp >= 0) & (amp <= 1))), f"{what}: amplitude outside [0, 1]")
    with np.errstate(divide="ignore"):
        ref_db = 20 * np.log10(amp)
    finite = np.isfinite(ref_db)
    require(bool(np.array_equal(finite, np.isfinite(pdb))), f"{what}: -inf rows do not match zero amplitudes")
    err = np.abs(pdb[finite] - ref_db[finite]) / np.maximum(1, np.abs(ref_db[finite]))
    require(bool(np.all(err <= 1e-5)), f"{what}: power_db != 20 log10(amplitude)")
    grid = np.linspace(0, math.pi, steps + 1)
    require(bool(np.all(np.abs(theta - grid) <= 1e-6)), f"{what}: theta grid")
    ref_amp = af(n, 2 * math.pi * spacing * np.cos(grid))
    require(bool(np.all(np.abs(amp - ref_amp) <= 1e-8)), f"{what}: amplitude != array factor")
    require(amp[steps // 2] == 1.0, f"{what}: broadside amplitude {amp[steps // 2]}")
    return steps + 1


# --- scenario pipeline, recomputed from the document --------------------------


def _cases(doc: dict):
    """Operating points in loader order: flat dl/ul keys first, then `cases`."""
    out = []
    for d in ("dl", "ul"):
        point = {
            short: doc[key]
            for short, key in (("sinr_db", f"sinr_{d}_db"), ("se_bps_hz", f"se_{d}_bps_hz"),
                               ("bitrate_mbps", f"bitrate_{d}_mbps"))
            if key in doc
        }
        if point:
            out.append({"direction": d, "label": "nominal", **point})
    for c in doc.get("cases", []):
        c = dict(c)
        if "bitrate_bps" in c:
            c["bitrate_mbps"] = c.pop("bitrate_bps") * 1e-6
        if "bw_hz" in c:
            c["bw_mhz"] = c.pop("bw_hz") * 1e-6
        out.append({"label": "nominal", **c})
    return out


def expected_findings(doc: dict) -> list[dict]:
    """Findings a scenario document must produce, derived from its values."""
    out = []
    missing = [k for k in ("altitude_km", "elevation_deg") if k not in doc]
    if missing:
        out.append({"quantity": "slant_range_km", "status": "not_computable", "missing": missing})
    else:
        slant = slant_km(doc["altitude_km"], math.radians(doc["elevation_deg"]),
                         DEFAULT_CONSTANTS["earth_radius_km"])
        out.append({"quantity": "slant_range_km", "status": "computed", "computed": slant})
    orbit = ORBIT_CHART.get(doc["orbit"].upper(), "any")
    for d, direction in (("dl", "downlink"), ("ul", "uplink")):
        f = doc.get(f"freq_{d}_ghz")
        if f is None:
            continue
        band = chart_band(f * 1e3, direction, orbit)
        reported = doc.get("band")
        item = {"quantity": "band", "direction": d, "computed": band or "out-of-band"}
        if reported is None:
            item["status"] = "computed"
        elif band is None:
            item["status"], item["reported"] = "inconsistent", reported
        else:
            declared = [b.strip() for b in reported.split("/")]
            item["status"] = "consistent" if band in declared else "inconsistent"
            item["reported"] = reported
        out.append(item)
    if "beams" in doc or "footprint_radius_km" in doc:
        missing = [k for k in ("footprint_radius_km", "beams") if k not in doc]
        if missing:
            out.append({"quantity": "cell_radius_km", "status": "not_computable", "missing": missing})
        else:
            out.append({"quantity": "cell_radius_km", "status": "computed",
                        "computed": doc["footprint_radius_km"] / math.sqrt(doc["beams"])})
    for c in _cases(doc):
        d, label = c["direction"], c["label"]
        se, sinr = c.get("se_bps_hz"), c.get("sinr_db")
        if sinr is None:
            item = {"status": "not_computable", "missing": ["sinr_db"], "reported": se}
        else:
            bound = shannon_se(sinr)
            if se is None:
                item = {"status": "computed", "computed": bound}
            else:
                item = {"status": "inconsistent" if se - bound > 1e-9 else "consistent",
                        "computed": bound, "reported": se, "delta": se - bound}
        out.append({"quantity": "se_vs_shannon", "direction": d, "label": label, **item})
        bw = c.get("bw_mhz", doc.get(f"bw_{d}_mhz"))
        reported = c["bitrate_mbps"] * 1e6 if "bitrate_mbps" in c else None
        missing = [k for k, v in (("se_bps_hz", se), ("bw_mhz", bw)) if v is None]
        if missing:
            item = {"status": "not_computable", "missing": missing, "reported": reported}
        else:
            rate = se * bw * 1e6
            if reported is None:
                item = {"status": "computed", "computed": rate}
            else:
                rel = abs(rate - reported) / reported
                item = {"status": "consistent" if rel <= 0.05 else "inconsistent",
                        "computed": rate, "reported": reported, "delta": rel}
        out.append({"quantity": "bitrate_bps", "direction": d, "label": label, **item})
    return out


def check_findings(got: list[dict], doc: dict, rel: float, what: str) -> int:
    """Compare finding documents (`Finding.to_doc` form) with the recomputation."""
    want = expected_findings(doc)
    require(len(got) == len(want), f"{what}: {len(got)} findings, expected {len(want)}")
    for g, w in zip(got, want):
        tag = f"{what}: {w['quantity']} {w.get('direction', '')} {w.get('label', '')}"
        for key in ("quantity", "status", "direction", "label"):
            require(g.get(key) == w.get(key), f"{tag}: {key} {g.get(key)!r} != {w.get(key)!r}")
        require(list(g.get("missing", [])) == w.get("missing", []), f"{tag}: missing {g.get('missing')}")
        for key in ("computed", "reported", "delta"):
            gv, wv = g.get(key), w.get(key)
            if isinstance(wv, float):
                require(isinstance(gv, (int, float)), f"{tag}: {key} is {gv!r}")
                close(gv, wv, rel, f"{tag}: {key}", abs_tol=1e-12 if key == "delta" else 0.0)
            elif wv == "out-of-band":
                require(isinstance(gv, str) and gv.startswith("out-of-band ("), f"{tag}: band {gv!r}")
            else:
                require(gv == wv, f"{tag}: {key} {gv!r} != {wv!r}")
    return len(want)
