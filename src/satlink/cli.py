"""Command-line front end: every module surfaced as a subcommand.

Output formats: human table (hand-calculation rounding unless --precise),
json and csv (both at 6 significant digits). Exit codes are a stable
contract: 0 success, 1 domain error, 2 usage/missing input, 3 infeasible
MODCOD selection, 4 file I/O failure.

Each `_cmd_*` handler returns its result and prints nothing (bar the
preamble lines of `convert band` and `scenario run` tables): a record
(dict), rows (list of dicts) or finished text (str). `main` passes it to
`_emit`, which renders the chosen format and writes it to `--out` or
stdout. A reader that closes stdout early ends the run quietly with exit 0.

`run` is the process entry point (`python -m satlink.cli` and the
`satlink` console script): it calls `main`, flushes the output and ends
the process without the interpreter's teardown. `main` returns the exit
code and never exits, for callers in the same process.

The environment variable SATLINK_CONSTANTS may point to a JSON document
overriding physical constants (keys of PhysicalConstants, e.g. c_m_per_s,
boltzmann_j_per_k, earth_radius_km).
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import re
import sys
from pathlib import Path

from . import antenna, capacity, constellation, geometry, linkbudget, quantities, scenario
from .errors import (
    DomainError,
    NoFeasibleModcodError,
    NotFoundError,
    ParseError,
    SatlinkError,
    ValidationError,
)

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_USAGE = 2
EXIT_INFEASIBLE = 3
EXIT_IO = 4


class _UsageError(SatlinkError):
    """Missing or contradictory command input (exit code 2)."""


# --- value formatting -------------------------------------------------------


def _json_ready(obj):
    """`obj` with every finite float rounded to 6 significant digits."""
    if isinstance(obj, dict):
        return {k: _json_ready(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_ready(v) for v in obj]
    if isinstance(obj, float) and math.isfinite(obj):
        return float(f"{obj:.6g}")
    return obj


def _fmt_rate(bps: float) -> str:
    for scale, unit in ((1e9, "Gb/s"), (1e6, "Mb/s"), (1e3, "kb/s")):
        if abs(bps) >= scale:
            return f"{bps / scale:.2g} {unit}"
    return f"{bps:.2g} b/s"


_DB_SUFFIXES = ("_db", "_dbw", "_dbk", "_dbi", "_dbm", "_dbhz", "_dbw_per_k_hz")


def _fmt(key: str, value, precise: bool) -> str:
    """One cell: 6 significant digits when precise, else rounded by the key's unit."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return "" if value is None else str(value)
    if isinstance(value, int):
        return str(value)
    if precise or not math.isfinite(value):
        return f"{value:.6g}"
    if key.endswith((*_DB_SUFFIXES, "_km", "_deg")):
        return f"{value:.1f}"
    if key.endswith("_bps"):
        return _fmt_rate(value)
    if key.endswith(("_w", "_fraction")):
        return f"{value:.3g}"
    return f"{value:.6g}"


# each C0 control character and DEL as its escape (\n, \t, \x1b, ...), so a table line stays one line
_VISIBLE = {c: repr(chr(c))[1:-1] for c in (*range(32), 127)}


def _emit(args, result) -> None:
    """Write a handler's result to --out or stdout.

    Text goes out as it is. A record (dict) or rows (list of dicts) is
    rendered as --format asks: JSON at 6 significant digits, CSV quoted as
    the csv module quotes (a record is one row), or a table, key/value for
    a record and columns for rows, with control characters escaped.
    """
    if isinstance(result, str):
        text = result
    elif args.format == "json":
        text = quantities.dump_json(_json_ready(result)) + "\n"
    else:
        rows = [result] if isinstance(result, dict) else result
        keys = list(rows[0]) if rows else []
        precise = args.format == "csv" or args.precise
        cells = [[_fmt(k, row.get(k), precise) for k in keys] for row in rows]
        if args.format == "csv":
            text = quantities.dump_csv([keys, *cells])
        else:
            table = [keys, *([cell.translate(_VISIBLE) for cell in line] for line in cells)]
            if isinstance(result, dict):
                width = max(map(len, keys))
                text = "".join(f"{k:<{width}}  {cell}\n" for k, cell in zip(keys, table[1]))
            else:
                widths = [max(len(line[i]) for line in table) for i in range(len(keys))]
                text = "".join("  ".join(f"{cell:<{w}}" for cell, w in zip(line, widths)) + "\n" for line in table)
    if getattr(args, "out", None):
        Path(args.out).write_text(text)  # an OSError maps to the I/O exit code in main
    else:
        sys.stdout.write(text)
        sys.stdout.flush()  # a closed pipe fails here, inside main, not at exit


# --- shared flag helpers ------------------------------------------------------


def _add_output_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--format", choices=("table", "json", "csv"), default="table")
    p.add_argument("--precise", action="store_true", help="full 6-significant-digit tables")


# Each quantity given in a choice of units, as {flag key: scale to SI}. A subcommand takes one
# quantity's flags as one mutually exclusive group; key order is the precedence in a --config.
_UNITS = {"freq": {"freq_ghz": 1e9, "freq_mhz": 1e6, "freq_hz": 1.0},
          "bw": {"bw_hz": 1.0, "bw_khz": 1e3, "bw_mhz": 1e6, "bw_ghz": 1e9}}


def _flag(key: str) -> str:
    return "--" + key.replace("_", "-")


def _add_unit_flags(p: argparse.ArgumentParser, keys) -> None:
    """Add the flags of `keys`, all of one quantity, in order as one mutually exclusive group."""
    g = p.add_mutually_exclusive_group()
    for key in keys:
        g.add_argument(_flag(key), type=float)


def _si(values: dict, quantity: str) -> float | None:
    """`quantity` in SI units from the first of its keys set in `values`, or None."""
    return next((values[k] * scale for k, scale in _UNITS[quantity].items() if values.get(k) is not None), None)


def _constants_from_env() -> quantities.PhysicalConstants:
    path = os.environ.get("SATLINK_CONSTANTS")
    if not path:
        return quantities.DEFAULT_CONSTANTS
    return quantities.PhysicalConstants.from_file(path)


# --- convert ------------------------------------------------------------------


def _cmd_convert_db(args, constants) -> dict:
    return {"linear": args.linear, "db": quantities.db_from_linear(args.linear)}


def _cmd_convert_linear(args, constants) -> dict:
    return {"db": args.db, "linear": quantities.linear_from_db(args.db)}


def _cmd_convert_power(args, constants) -> dict:
    given = [v for v in (args.watts, args.dbw, args.dbm) if v is not None]
    if len(given) != 1:
        raise _UsageError("exactly one of --watts, --dbw, --dbm")
    if args.watts is not None:
        p = quantities.Power(args.watts)
    elif args.dbw is not None:
        p = quantities.Power.from_dbw(args.dbw)
    else:
        p = quantities.Power.from_dbm(args.dbm)
    return {"watts": p.watts, "power_dbw": p.dbw, "power_dbm": p.dbm}


def _cmd_convert_noise_temp(args, constants) -> dict:
    t_ref = args.t_ref_k if args.t_ref_k is not None else constants.t_ref_k
    t = quantities.noise_temperature_from_nf(args.nf_db, t_ref)
    return {"nf_db": args.nf_db, "t_ref_k": t_ref, "noise_temp_k": t}


def _cmd_convert_wavelength(args, constants) -> dict:
    f = _si(vars(args), "freq")
    if f is None:
        raise _UsageError("freq_ghz (or --freq-mhz / --freq-hz)")
    return {"freq_hz": f, "wavelength_m": quantities.wavelength(f, constants)}


def _cmd_convert_band(args, constants) -> list[dict]:
    f = _si(vars(args), "freq")
    if f is None:
        raise _UsageError("freq_mhz (or --freq-ghz / --freq-hz)")
    band = quantities.band_lookup(f, args.direction, args.orbit)
    rows = [
        {
            "band": a.band,
            "orbit": a.orbit,
            "direction": a.direction,
            "intervals_mhz": "; ".join(f"{lo:g}-{hi:g}" for lo, hi in a.intervals_mhz),
        }
        for a in quantities.matching_allocations(f, args.direction, args.orbit)
    ]
    if args.format == "table":
        print(f"band  {band}")
    return rows


def _cmd_convert_bands(args, constants) -> str:
    return quantities.band_catalog_csv()


# --- geometry -------------------------------------------------------------------


def _cmd_geometry_slant(args, constants) -> dict:
    elev_rad = math.radians(args.elevation_deg)
    record = {
        "altitude_km": args.altitude_km,
        "elevation_deg": args.elevation_deg,
        "slant_range_km": geometry.slant_range_exact(args.altitude_km, elev_rad, constants),
    }
    if elev_rad < math.pi / 2:
        record["slant_range_altitude_approx_km"] = geometry.slant_range_altitude_approx(
            args.altitude_km, elev_rad
        )
    return record


def _cmd_geometry_footprint(args, constants) -> dict:
    fp = geometry.satellite_footprint(args.sats_per_orbit, args.coverage_sats, constants)
    return {
        "sats_per_orbit": args.sats_per_orbit,
        "coverage_sats": args.coverage_sats or args.sats_per_orbit,
        "footprint_diameter_km": fp.diameter_km,
        "footprint_area_km2": fp.area_km2,
        "coverage_fraction": fp.coverage_fraction,
    }


def _cmd_geometry_cell(args, constants) -> dict:
    r = geometry.cell_radius_from_split(args.parent_radius_km, args.beams)
    record = {
        "parent_radius_km": args.parent_radius_km,
        "beams": args.beams,
        "cell_radius_km": r,
    }
    if args.altitude_km is not None:
        hpbw = geometry.required_hpbw(r, args.altitude_km)
        record["required_hpbw_rad"] = hpbw
        record["required_hpbw_deg"] = math.degrees(hpbw)
    return record


# --- linkbudget -------------------------------------------------------------------


# The linkbudget flags in --help order, a tuple per quantity of _UNITS (no --freq-hz
# here); a --config document takes the same keys.
_BUDGET_FLAGS = (
    "distance_km", "altitude_km", "elevation_deg", ("freq_ghz", "freq_mhz"), "eirp_dbw", "power_w", "gain_dbi",
    "terminal", "rx_gain_dbi", "nf_db", "noise_temp_k", "g_over_t_dbk", tuple(_UNITS["bw"]), "atm_loss_db",
    "ad_loss_db", "margin_db",
)
_BUDGET_KEYS = tuple(k for f in _BUDGET_FLAGS for k in ((f,) if isinstance(f, str) else f))


# The forms each linkbudget quantity can take. A flag that sets a key of one
# form drops the --config keys of the quantity's other forms.
_BUDGET_FORMS = (
    ({"distance_km"}, {"altitude_km", "elevation_deg"}),
    *(tuple({key} for key in f) for f in _BUDGET_FLAGS if isinstance(f, tuple)),
    ({"eirp_dbw"}, {"power_w", "gain_dbi"}),
    ({"g_over_t_dbk"}, {"terminal"}, {"rx_gain_dbi", "nf_db", "noise_temp_k"}),
    ({"nf_db"}, {"noise_temp_k"}),
)


def _load_budget_config(path: str) -> dict:
    try:
        doc = quantities.read_object(path, "link budget config")
    except FileNotFoundError:
        raise _UsageError(f"config file {path!r} not found")
    quantities.check_keys(doc, set(_BUDGET_KEYS), "config")
    for key, value in doc.items():
        if key != "terminal":
            doc[key] = quantities.require_number(key, value, "finite")
    return doc


def _cmd_linkbudget(args, constants) -> dict:
    cfg = _load_budget_config(args.config) if args.config else {}
    flags = {key: v for key in _BUDGET_KEYS if (v := getattr(args, key)) is not None}
    for forms in _BUDGET_FORMS:
        unflagged = [form for form in forms if not form & flags.keys()]
        if len(unflagged) < len(forms):
            cfg = {k: v for k, v in cfg.items() if not any(k in form for form in unflagged)}
    cfg.update(flags)

    if "distance_km" in cfg:
        distance_m = cfg["distance_km"] * 1e3
    elif "altitude_km" in cfg and "elevation_deg" in cfg:
        distance_m = 1e3 * geometry.slant_range_exact(cfg["altitude_km"], math.radians(cfg["elevation_deg"]), constants)
    else:
        raise _UsageError("distance_km (or altitude_km + elevation_deg)")

    freq_hz = _si(cfg, "freq")
    if freq_hz is None:
        raise _UsageError("freq_ghz")

    bw_hz = _si(cfg, "bw")
    if bw_hz is None:
        raise _UsageError("bw_khz (or --bw-hz / --bw-mhz / --bw-ghz)")

    atm = cfg.get("atm_loss_db", 0.0)
    ad = cfg.get("ad_loss_db", 0.0)
    margin = cfg.get("margin_db", 0.0)

    if "eirp_dbw" in cfg:
        tx = linkbudget.Transmitter(power_w=quantities.linear_from_db(cfg["eirp_dbw"]), gain_dbi=0.0)
    elif "power_w" in cfg and "gain_dbi" in cfg:
        tx = linkbudget.Transmitter(power_w=cfg["power_w"], gain_dbi=cfg["gain_dbi"])
    else:
        raise _UsageError("eirp_dbw (or power_w + gain_dbi)")

    if "g_over_t_dbk" in cfg:
        fspl_db = linkbudget.fspl(distance_m, freq_hz, constants)
        bw_dbhz = quantities.db_from_linear(bw_hz)
        result = linkbudget.snr_db(tx.eirp_dbw, cfg["g_over_t_dbk"], fspl_db, atm, ad, margin, bw_dbhz, constants)
        return result.to_dict()
    if "terminal" in cfg:
        profile = scenario.terminal_profile(cfg["terminal"])
        gain_dbi, nf_db, noise_temp_k = profile.gain_dbi, profile.nf_db, profile.noise_temp_k
    elif "rx_gain_dbi" in cfg and ("nf_db" in cfg or "noise_temp_k" in cfg):
        gain_dbi, nf_db, noise_temp_k = cfg["rx_gain_dbi"], cfg.get("nf_db"), cfg.get("noise_temp_k")
    else:
        raise _UsageError("g_over_t_dbk, terminal, or rx_gain_dbi + nf_db/noise_temp_k")
    rx = linkbudget.Receiver(gain_dbi=gain_dbi, nf_db=nf_db, noise_temp_k=noise_temp_k, t_ref_k=constants.t_ref_k)
    return linkbudget.link_budget(tx, rx, distance_m, freq_hz, bw_hz, atm, ad, margin, constants).to_dict()


# --- capacity family ---------------------------------------------------------------


def _cmd_capacity(args, constants) -> dict:
    bw = _si(vars(args), "bw")
    if bw is None:
        raise _UsageError("bw_khz (or --bw-hz / --bw-mhz / --bw-ghz)")
    if (args.snr_db is None) == (args.snr_linear is None):
        raise _UsageError("exactly one of --snr-db, --snr-linear")
    if args.snr_db is not None:  # printed as typed: its linear value may underflow to 0
        snr_db, snr = args.snr_db, quantities.linear_from_db(args.snr_db)
    else:
        snr = args.snr_linear
        snr_db = quantities.db_from_linear(snr) if snr > 0 else -math.inf
    return {
        "bw_hz": bw,
        "snr_linear": snr,
        "snr_db": snr_db,
        "se_max_bps_hz": capacity.max_spectral_efficiency(snr),
        "capacity_bps": capacity.shannon_capacity(bw, snr),
    }


def _cmd_modcod(args, constants) -> dict:
    catalog = capacity.load_modcod_catalog(Path(args.catalog)) if args.catalog else capacity.MODCOD_TABLE
    chosen, margin = capacity.select_modcod(args.snr_db, catalog)
    record = {
        "snr_db": args.snr_db,
        "modcod": chosen.name,
        "se_bps_hz": chosen.se_bps_hz,
        "snr_qef_db": chosen.snr_qef_db,
        "margin_db": margin,
    }
    bw = _si(vars(args), "bw")
    if bw is not None:
        record["bitrate_bps"] = capacity.effective_bitrate(chosen.se_bps_hz, bw)
    return record


def _cmd_multibeam(args, constants) -> dict:
    cfg = capacity.MultiBeamConfig(
        se_bps_hz=args.se,
        bandwidth_hz=_si(vars(args), "bw"),
        polarizations=args.pol,
        beams=args.beams,
        colors=args.colors,
        guard_fraction=args.guard,
    )
    return {
        "se_bps_hz": cfg.se_bps_hz,
        "bw_hz": cfg.bandwidth_hz,
        "polarizations": cfg.polarizations,
        "beams": cfg.beams,
        "colors": cfg.colors,
        "guard_fraction": cfg.guard_fraction,
        "capacity_bps": capacity.multibeam_capacity(cfg),
    }


def _cmd_cost(args, constants) -> dict:
    return {"rtot_gbps": args.rtot_gbps, "cost_per_gbps": capacity.satellite_cost_per_gbps(args.rtot_gbps)}


def _cmd_tcp(args, constants) -> dict:
    model = capacity.TcpLinkModel(
        mss_bytes=args.mss,
        rtt_s=args.rtt_ms * 1e-3,
        loss_probability=args.ploss,
        c_constant=args.c,
    )
    return {
        "mss_bytes": model.mss_bytes,
        "rtt_ms": args.rtt_ms,
        "loss_probability": model.loss_probability,
        "c_constant": model.c_constant,
        "throughput_bps": capacity.tcp_throughput_bound(model),
    }


# --- antenna -------------------------------------------------------------------------


def _cmd_antenna_pattern(args, constants) -> str:
    spec = antenna.ArraySpec.linear(args.elements, spacing_wavelengths=args.spacing)
    return antenna.pattern_csv(spec, args.resolution_deg)


def _cmd_antenna_select(args, constants) -> dict:
    if args.hpbw_deg is not None:
        required = args.hpbw_deg
        extra = {}
    elif args.cell_radius_km is not None and args.altitude_km is not None:
        required = math.degrees(geometry.required_hpbw(args.cell_radius_km, args.altitude_km))
        extra = {"cell_radius_km": args.cell_radius_km, "altitude_km": args.altitude_km}
    else:
        raise _UsageError("hpbw_deg (or cell_radius_km + altitude_km)")
    spec, peak_dbi, edge_dbi = antenna.select_array(required)
    return {
        **extra,
        "required_hpbw_deg": required,
        "array": spec.label,
        "elements": spec.elements,
        "hpbw_deg": antenna.hpbw_from_directivity(antenna.directivity(spec).linear),
        "peak_gain_dbi": peak_dbi,
        "edge_gain_dbi": edge_dbi,
    }


def _cmd_antenna_table(args, constants) -> list[dict]:
    rows = []
    for spec in antenna.ARRAY_CATALOG:
        d = antenna.directivity(spec)
        rows.append(
            {
                "antenna": spec.label,
                "directivity_linear": d.linear,
                "directivity_dbi": d.dbi,
                "hpbw_deg": None if spec.elements == 1 else antenna.hpbw_from_directivity(d.linear),
            }
        )
    return rows


# --- constellation ----------------------------------------------------------------------


def _cmd_constellation_list(args, constants) -> list[dict]:
    return [
        {
            "constellation": s.constellation,
            "shell": s.shell_id,
            "altitude_km": s.altitude_km,
            "orbits": s.orbits,
            "sats_per_orbit": s.sats_per_orbit,
            "inclination_deg": s.inclination_deg,
            "total_satellites": s.total_satellites,
        }
        for s in constellation.list_shells()
    ]


def _cmd_constellation_stats(args, constants) -> dict:
    stats = constellation.shell_stats(args.shell, constants)
    shell = constellation.get_shell(args.shell)
    return {
        "shell": stats.shell_id,
        "constellation": shell.constellation,
        "altitude_km": shell.altitude_km,
        "footprint_diameter_km": stats.footprint_diameter_km,
        "footprint_area_km2": stats.footprint_area_km2,
        "orbit_coverage_fraction": stats.orbit_coverage_fraction,
        "shell_coverage_fraction": stats.shell_coverage_fraction,
        "total_satellites": stats.total_satellites,
    }


# --- scenario -------------------------------------------------------------------------------


def _cmd_scenario_run(args, constants) -> dict | list[dict]:
    name = args.scenario
    try:
        s = scenario.fixture(name)
    except NotFoundError:
        if Path(name).is_file():
            s = scenario.load_scenario(Path(name))
        elif name.endswith(".json"):
            raise NotFoundError(f"scenario file {name!r} not found") from None
        else:
            raise
    report = scenario.run_scenario(s)
    if args.format == "json":
        return report.to_doc()
    if args.format == "table":
        print(f"scenario  {s.name} ({s.orbit})".translate(_VISIBLE))
        if s.description:
            print(f"about     {s.description}".translate(_VISIBLE))
        if report.slant_range_km is not None:
            print(f"slant_range_km  {report.slant_range_km:.1f}")
        for note in s.annotations:
            print(f"note      {note}".translate(_VISIBLE))
        print()
    return [
        {
            "quantity": f.quantity,
            "direction": f.direction,
            "label": f.label,
            "status": f.status,
            "computed": f.computed,
            "reported": f.reported,
            "delta": f.delta,
            "missing": ";".join(f.missing) if f.missing else None,
        }
        for f in report.findings
    ]


def _cmd_scenario_list(args, constants) -> list[dict]:
    return [
        {
            "name": s.name,
            "orbit": s.orbit,
            "band": s.band,
            "altitude_km": s.altitude_km,
            "description": s.description,
        }
        for s in scenario.builtin_fixtures()
    ]


# --- parser ------------------------------------------------------------------------------------


# argparse reads only "-123" and "-1.5" as negative numbers and takes any
# other token that starts with "-" for an option, which leaves "--db -1e3"
# without a value. This reads every negative decimal literal, exponent form
# included, and "-inf", "-infinity" and "-nan" as a value.
_NEGATIVE_NUMBER = re.compile(r"^-(?:(?:\d+\.?\d*|\.\d+)(?:e[-+]?\d+)?|inf(?:inity)?|nan)$", re.IGNORECASE)


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser that reads every negative literal (-1e3, -1e308,
    -2.5E-3, -inf, -nan) as a value; its subparsers are built from the same class."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = _NEGATIVE_NUMBER


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser tree, built once per process: parsing leaves no state in it."""
    parser = _Parser(
        prog="satlink",
        description="Satellite-link engineering toolkit",
    )
    sub = parser.add_subparsers(dest="command")

    # convert
    convert = sub.add_parser("convert", help="unit conversions and the band chart")
    csub = convert.add_subparsers(dest="subcommand")
    p = csub.add_parser("db", help="linear ratio to dB")
    p.add_argument("--linear", type=float, required=True)
    _add_output_flags(p)
    p.set_defaults(func=_cmd_convert_db)
    p = csub.add_parser("linear", help="dB to linear ratio")
    p.add_argument("--db", type=float, required=True)
    _add_output_flags(p)
    p.set_defaults(func=_cmd_convert_linear)
    p = csub.add_parser("power", help="watts / dBW / dBm views")
    p.add_argument("--watts", type=float)
    p.add_argument("--dbw", type=float)
    p.add_argument("--dbm", type=float)
    _add_output_flags(p)
    p.set_defaults(func=_cmd_convert_power)
    p = csub.add_parser("noise-temp", help="noise figure to noise temperature")
    p.add_argument("--nf-db", type=float, required=True)
    p.add_argument("--t-ref-k", type=float)
    _add_output_flags(p)
    p.set_defaults(func=_cmd_convert_noise_temp)
    p = csub.add_parser("wavelength", help="carrier frequency to wavelength")
    _add_unit_flags(p, _UNITS["freq"])
    _add_output_flags(p)
    p.set_defaults(func=_cmd_convert_wavelength)
    p = csub.add_parser("band", help="resolve a frequency to its ITU band")
    _add_unit_flags(p, ("freq_mhz", "freq_ghz", "freq_hz"))
    p.add_argument("--direction", choices=(quantities.DOWNLINK, quantities.UPLINK), required=True)
    p.add_argument("--orbit", choices=(quantities.GEO, quantities.NON_GEO, quantities.ANY_ORBIT),
                   default=quantities.ANY_ORBIT)
    _add_output_flags(p)
    p.set_defaults(func=_cmd_convert_band)
    p = csub.add_parser("bands", help="export the band allocation chart as CSV")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_convert_bands)

    # geometry
    geo = sub.add_parser("geometry", help="slant range, footprints, beam cells")
    gsub = geo.add_subparsers(dest="subcommand")
    p = gsub.add_parser("slant", help="slant range from altitude and elevation")
    p.add_argument("--altitude-km", type=float, required=True)
    p.add_argument("--elevation-deg", type=float, required=True)
    _add_output_flags(p)
    p.set_defaults(func=_cmd_geometry_slant)
    p = gsub.add_parser("footprint", help="per-satellite footprint and coverage")
    p.add_argument("--sats-per-orbit", type=int, required=True)
    p.add_argument("--coverage-sats", type=int)
    _add_output_flags(p)
    p.set_defaults(func=_cmd_geometry_footprint)
    p = gsub.add_parser("cell", help="cell radius after an equal-area beam split")
    p.add_argument("--parent-radius-km", type=float, required=True)
    p.add_argument("--beams", type=int, required=True)
    p.add_argument("--altitude-km", type=float)
    _add_output_flags(p)
    p.set_defaults(func=_cmd_geometry_cell)

    # linkbudget
    p = sub.add_parser("linkbudget", help="itemized dB ledger and SNR")
    p.add_argument("--config", help="JSON file with the same keys as the flags")
    for f in _BUDGET_FLAGS:
        if f == "terminal":
            p.add_argument("--terminal", help="receiver terminal preset (class3-ue, vsat, iot)")
        elif isinstance(f, tuple):
            _add_unit_flags(p, f)
        else:
            p.add_argument(_flag(f), type=float)
    _add_output_flags(p)
    p.set_defaults(func=_cmd_linkbudget)

    # capacity
    p = sub.add_parser("capacity", help="Shannon capacity and spectral efficiency")
    p.add_argument("--snr-db", type=float)
    p.add_argument("--snr-linear", type=float)
    _add_unit_flags(p, _UNITS["bw"])
    _add_output_flags(p)
    p.set_defaults(func=_cmd_capacity)

    # modcod
    p = sub.add_parser("modcod", help="highest-rate scheme the SNR supports")
    p.add_argument("--snr-db", type=float, required=True)
    p.add_argument("--catalog", help="CSV catalog (name, se_bps_hz, snr_qef_db)")
    _add_unit_flags(p, _UNITS["bw"])
    _add_output_flags(p)
    p.set_defaults(func=_cmd_modcod)

    # multibeam
    p = sub.add_parser("multibeam", help="total multi-beam satellite capacity")
    p.add_argument("--se", type=float, required=True)
    p.add_argument("--bw-ghz", type=float, required=True)
    p.add_argument("--pol", type=int, default=1)
    p.add_argument("--beams", type=int, required=True)
    p.add_argument("--colors", type=int, required=True)
    p.add_argument("--guard", type=float, default=0.0)
    _add_output_flags(p)
    p.set_defaults(func=_cmd_multibeam)

    # cost
    p = sub.add_parser("cost", help="cost per Gb/s power law")
    p.add_argument("--rtot-gbps", type=float, required=True)
    _add_output_flags(p)
    p.set_defaults(func=_cmd_cost)

    # tcp
    p = sub.add_parser("tcp", help="loss-bounded TCP throughput")
    p.add_argument("--mss", type=float, required=True, help="maximum segment size in bytes")
    p.add_argument("--rtt-ms", type=float, required=True)
    p.add_argument("--ploss", type=float, required=True)
    p.add_argument("--c", type=float, default=1.0)
    _add_output_flags(p)
    p.set_defaults(func=_cmd_tcp)

    # antenna
    ant = sub.add_parser("antenna", help="phased-array patterns and selection")
    asub = ant.add_subparsers(dest="subcommand")
    p = asub.add_parser("pattern", help="radiation-pattern cut as CSV")
    p.add_argument("--elements", type=int, required=True)
    p.add_argument("--spacing", type=float, default=0.5, help="element spacing in wavelengths")
    p.add_argument("--resolution-deg", type=float, default=0.1)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_antenna_pattern)
    p = asub.add_parser("select", help="pick the catalog array nearest a target beamwidth")
    p.add_argument("--hpbw-deg", type=float)
    p.add_argument("--cell-radius-km", type=float)
    p.add_argument("--altitude-km", type=float)
    _add_output_flags(p)
    p.set_defaults(func=_cmd_antenna_select)
    p = asub.add_parser("table", help="reference array catalog")
    _add_output_flags(p)
    p.set_defaults(func=_cmd_antenna_table)

    # constellation
    con = sub.add_parser("constellation", help="LEO shell catalog and footprints")
    consub = con.add_subparsers(dest="subcommand")
    p = consub.add_parser("list", help="all catalog shells")
    _add_output_flags(p)
    p.set_defaults(func=_cmd_constellation_list)
    p = consub.add_parser("stats", help="footprint statistics for one shell")
    p.add_argument("shell")
    _add_output_flags(p)
    p.set_defaults(func=_cmd_constellation_stats)

    # scenario
    sce = sub.add_parser("scenario", help="NTN project consistency reports")
    ssub = sce.add_subparsers(dest="subcommand")
    p = ssub.add_parser("run", help="run a bundled fixture or a scenario file")
    p.add_argument("scenario", help="fixture name or JSON file path")
    _add_output_flags(p)
    p.set_defaults(func=_cmd_scenario_run)
    p = ssub.add_parser("list", help="bundled fixtures")
    _add_output_flags(p)
    p.set_defaults(func=_cmd_scenario_list)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if not hasattr(args, "func"):
        parser.print_help(file=sys.stderr)
        return EXIT_USAGE
    try:
        constants = _constants_from_env()
        _emit(args, args.func(args, constants))
    except BrokenPipeError:
        # the reader closed stdout: send what is left to devnull, so the flush at exit is silent
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    except _UsageError as exc:
        print(f"error: missing parameter: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except NoFeasibleModcodError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except NotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (DomainError, ParseError, ValidationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    return EXIT_OK


def run() -> None:
    """The process entry point: run `main`, flush stdout and stderr, and end
    the process with main's exit code.

    The process ends with os._exit, which skips the interpreter's teardown:
    freeing numpy and scipy there takes about 100 ms of every run, after the
    output is written and with nobody to read the result (mypy's
    util.hard_exit does the same). A SystemExit from argparse (usage errors,
    --help) or an unexpected exception escapes `main` and takes the normal
    exit path.
    """
    code = main()
    for stream in (sys.stdout, sys.stderr):
        try:
            stream.flush()
        except BrokenPipeError:  # the reader closed it: exit quietly, as main does
            pass
    os._exit(code)


if __name__ == "__main__":
    run()
