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
An input the parser cannot require (a `linkbudget` quantity that a
--config document may supply, or `antenna select`'s --altitude-km beside
--cell-radius-km) is checked by the handler, which refuses its absence, or
flags of two of its forms, through `args.parser`, its leaf's parser, like
any other usage error.

One table, `_COMMANDS`, lists every group and leaf with its help, and each
leaf's handler and flag rows; `_add_commands` builds the parser from it.
A flag row is (key, type, argparse options), and a tuple of keys is one
quantity offered in several units (`--freq-ghz`, `--freq-mhz`, ...), taken
as one mutually exclusive group, which "required" makes required. The
`linkbudget` row's keys are also the keys of its `--config` document. A
row may carry the library's rule for its quantity restated in the flag's
unit: `main` checks each such value as typed, and again once scaled to the
library's unit, before the handler runs, so a refusal names the flag and its
unit (`--freq-ghz must be > 0 GHz, got -5.0`); a --config value is checked
by the same rule, named by its key.
A group run without a subcommand prints its own help.

`run` is the process entry point (`python -m satlink.cli` and the
`satlink` console script): it calls `main`, flushes the output and ends
the process without the interpreter's teardown. `main` returns the exit
code, for callers in the same process, with one exception: every usage
error, and --help, raises SystemExit from the parser, after its usage line
(code 2, or 0 for --help).

Importing this module sets OPENBLAS_NUM_THREADS to 1 unless the caller set
it: the OpenBLAS copies bundled with numpy and scipy would each start a pool
of worker threads that compete with the import for the CPUs, and no satlink
code calls a BLAS routine. The library (`import satlink` and its
submodules) changes no process setting.

The environment variable SATLINK_CONSTANTS may point to a JSON document
overriding physical constants (keys of PhysicalConstants, e.g. c_m_per_s,
boltzmann_j_per_k, earth_radius_km). The seven handlers that use constants
read it themselves: `convert noise-temp` (unless --t-ref-k is given),
`convert wavelength`, `geometry slant`, `geometry footprint`, `linkbudget`,
`constellation stats` and `scenario run`. Every other command ignores it.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import re
import sys
from pathlib import Path

# Must run before numpy or scipy loads; the module docstring says why.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

# No satlink module needs scipy, and only `antenna.pattern_csv` needs numpy,
# which it imports when it runs. numpy and scipy.optimize are imported here
# only so that `import satlink.cli` keeps loading every module whose import
# time perfbench/run.py's probe reads.
import numpy  # noqa: F401  # for the benchmark's import probe only
import scipy.optimize  # noqa: F401  # for the benchmark's import probe only

from . import antenna, capacity, constellation, geometry, linkbudget, quantities, scenario
from .errors import DomainError, NoFeasibleModcodError, NotFoundError, ParseError, ValidationError

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_USAGE = 2
EXIT_INFEASIBLE = 3
EXIT_IO = 4


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


# The flags checked as typed: {key: (its unit, the scale to the unit the library takes, that unit)}.
_UNIT = {
    "freq_ghz": ("GHz", 1e9, "Hz"), "freq_mhz": ("MHz", 1e6, "Hz"), "freq_hz": ("Hz", 1.0, "Hz"),
    "bw_hz": ("Hz", 1.0, "Hz"), "bw_khz": ("kHz", 1e3, "Hz"),
    "bw_mhz": ("MHz", 1e6, "Hz"), "bw_ghz": ("GHz", 1e9, "Hz"),
    "distance_km": ("km", 1e3, "m"), "altitude_km": ("km", 1.0, "km"),
    "elevation_deg": ("degrees", math.radians(1.0), "rad"), "rtt_ms": ("ms", 1e-3, "s"),
}
# Each quantity given in a choice of units. A subcommand takes one quantity's flags as one
# mutually exclusive group; key order is the precedence in a --config.
_FREQ = ("freq_ghz", "freq_mhz", "freq_hz")
_BW = ("bw_hz", "bw_khz", "bw_mhz", "bw_ghz")
_BUDGET_FREQ = ("freq_ghz", "freq_mhz")  # linkbudget takes no --freq-hz


def _flag(key: str) -> str:
    return "--" + key.replace("_", "-")


def _si(values: dict, *keys: str) -> float | None:
    """A quantity in the library's unit, from the first of its `keys` set in `values`, or None."""
    return next((values[k] * _UNIT[k][1] for k in keys if values.get(k) is not None), None)


def _check_flags(values: dict, rules, name) -> None:
    """Refuse a value in `values` outside its rule, or one that leaves the float
    range in the library's unit, naming its key by `name` and the unit it was typed in."""
    for key, rule in rules:
        value = values.get(key)
        if value is not None:
            unit, scale, library_unit = _UNIT[key]
            quantities.require(name(key), value, rule)
            scaled = value * scale
            if not math.isfinite(scaled) or scaled == 0 != value:
                raise DomainError(f"{name(key)} must fit a float in {library_unit}, got {value!r} {unit}")


def _constants_from_env() -> quantities.PhysicalConstants:
    path = os.environ.get("SATLINK_CONSTANTS")
    if not path:
        return quantities.DEFAULT_CONSTANTS
    return quantities.PhysicalConstants.from_file(path)


# --- convert ------------------------------------------------------------------


def _cmd_convert_db(args) -> dict:
    return {"linear": args.linear, "db": quantities.db_from_linear(args.linear)}


def _cmd_convert_linear(args) -> dict:
    return {"db": args.db, "linear": quantities.linear_from_db(args.db)}


def _cmd_convert_power(args) -> dict:
    if args.watts is not None:
        watts = quantities.require("power", args.watts, "must be finite and > 0 W")
    elif args.dbw is not None:
        watts = quantities.linear_from_db(args.dbw)
    else:
        watts = quantities.linear_from_db(args.dbm) * 1e-3
    dbw = quantities.db_from_linear(watts)
    return {"watts": watts, "power_dbw": dbw, "power_dbm": dbw + 30.0}


def _cmd_convert_noise_temp(args) -> dict:
    t_ref = args.t_ref_k if args.t_ref_k is not None else _constants_from_env().t_ref_k
    t = quantities.noise_temperature_from_nf(args.nf_db, t_ref)
    return {"nf_db": args.nf_db, "t_ref_k": t_ref, "noise_temp_k": t}


def _cmd_convert_wavelength(args) -> dict:
    constants = _constants_from_env()
    f = _si(vars(args), *_FREQ)
    return {"freq_hz": f, "wavelength_m": quantities.wavelength(f, constants)}


def _cmd_convert_band(args) -> list[dict]:
    f = _si(vars(args), *_FREQ)
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


def _cmd_convert_bands(args) -> str:
    return quantities.band_catalog_csv()


# --- geometry -------------------------------------------------------------------


def _cmd_geometry_slant(args) -> dict:
    constants = _constants_from_env()
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


def _cmd_geometry_footprint(args) -> dict:
    constants = _constants_from_env()
    diameter = geometry.footprint_diameter(args.sats_per_orbit, constants)
    area = geometry.footprint_area(diameter)
    sats = args.sats_per_orbit if args.coverage_sats is None else args.coverage_sats
    return {
        "sats_per_orbit": args.sats_per_orbit,
        "coverage_sats": sats,
        "footprint_diameter_km": diameter,
        "footprint_area_km2": area,
        "coverage_fraction": geometry.earth_coverage_fraction(sats, area, constants),
    }


def _cmd_geometry_cell(args) -> dict:
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


# The forms each linkbudget quantity can take. Flags of two forms of one quantity
# are refused; a flag that sets a key of one form drops the --config keys of the
# quantity's other forms.
_BUDGET_FORMS = (
    ({"distance_km"}, {"altitude_km", "elevation_deg"}),
    tuple({key} for key in _BUDGET_FREQ),
    tuple({key} for key in _BW),
    ({"eirp_dbw"}, {"power_w", "gain_dbi"}),
    ({"g_over_t_dbk"}, {"terminal"}, {"rx_gain_dbi", "nf_db", "noise_temp_k"}),
    ({"nf_db"}, {"noise_temp_k"}),
)


def _load_budget_config(path: str) -> dict:
    doc = quantities.read_object(path, "link budget config")
    quantities.check_keys(doc, set(_BUDGET_KEYS), "config")
    for key, value in doc.items():
        if key != "terminal":
            doc[key] = quantities.require_number(key, value, "finite")
    return doc


def _cmd_linkbudget(args) -> dict:
    constants = _constants_from_env()
    cfg = _load_budget_config(args.config) if args.config else {}
    _check_flags(cfg, args.rules, str)  # as read: a value a flag overrides is still refused
    flags = {key: v for key in _BUDGET_KEYS if (v := getattr(args, key)) is not None}
    for forms in _BUDGET_FORMS:
        given = [form for form in forms if form & flags.keys()]
        if len(given) > 1:
            a, b = (next(k for k in flags if k in form) for form in given[:2])
            args.parser.error(f"argument {_flag(b)}: not allowed with argument {_flag(a)}")
        if given:
            cfg = {k: v for k, v in cfg.items() if k in given[0] or not any(k in form for form in forms)}
    cfg.update(flags)

    if "distance_km" in cfg:
        distance_m = _si(cfg, "distance_km")
    elif "altitude_km" in cfg and "elevation_deg" in cfg:
        distance_m = 1e3 * geometry.slant_range_exact(cfg["altitude_km"], math.radians(cfg["elevation_deg"]), constants)
    else:
        args.parser.error("missing parameter: distance_km (or altitude_km + elevation_deg)")

    freq_hz = _si(cfg, *_BUDGET_FREQ)
    if freq_hz is None:
        args.parser.error("missing parameter: freq_ghz")

    bw_hz = _si(cfg, *_BW)
    if bw_hz is None:
        args.parser.error("missing parameter: bw_khz (or --bw-hz / --bw-mhz / --bw-ghz)")

    atm = cfg.get("atm_loss_db", 0.0)
    ad = cfg.get("ad_loss_db", 0.0)
    margin = cfg.get("margin_db", 0.0)

    if "eirp_dbw" in cfg:
        tx = linkbudget.Transmitter(power_w=quantities.linear_from_db(cfg["eirp_dbw"]), gain_dbi=0.0)
    elif "power_w" in cfg and "gain_dbi" in cfg:
        tx = linkbudget.Transmitter(power_w=cfg["power_w"], gain_dbi=cfg["gain_dbi"])
    else:
        args.parser.error("missing parameter: eirp_dbw (or power_w + gain_dbi)")

    if "g_over_t_dbk" in cfg:
        fspl_db = linkbudget.fspl(distance_m, freq_hz, constants)
        bw_dbhz = quantities.db_from_linear(bw_hz)
        result = linkbudget.snr_db(tx.eirp_dbw, cfg["g_over_t_dbk"], fspl_db, atm, ad, margin, bw_dbhz, constants)
        return quantities.record_doc(result)
    if "terminal" in cfg:
        profile = scenario.terminal_profile(cfg["terminal"])
        gain_dbi, nf_db, noise_temp_k = profile.gain_dbi, profile.nf_db, profile.noise_temp_k
    elif "rx_gain_dbi" in cfg and ("nf_db" in cfg or "noise_temp_k" in cfg):
        gain_dbi, nf_db, noise_temp_k = cfg["rx_gain_dbi"], cfg.get("nf_db"), cfg.get("noise_temp_k")
    else:
        args.parser.error("missing parameter: g_over_t_dbk, terminal, or rx_gain_dbi + nf_db/noise_temp_k")
    rx = linkbudget.Receiver(gain_dbi=gain_dbi, nf_db=nf_db, noise_temp_k=noise_temp_k, t_ref_k=constants.t_ref_k)
    return quantities.record_doc(linkbudget.link_budget(tx, rx, distance_m, freq_hz, bw_hz, atm, ad, margin, constants))


# --- capacity family ---------------------------------------------------------------


def _cmd_capacity(args) -> dict:
    bw = _si(vars(args), *_BW)
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


def _cmd_modcod(args) -> dict:
    catalog = capacity.load_modcod_catalog(Path(args.catalog)) if args.catalog else capacity.MODCOD_TABLE
    chosen, margin = capacity.select_modcod(args.snr_db, catalog)
    record = {
        "snr_db": args.snr_db,
        "modcod": chosen.name,
        "se_bps_hz": chosen.se_bps_hz,
        "snr_qef_db": chosen.snr_qef_db,
        "margin_db": margin,
    }
    bw = _si(vars(args), *_BW)
    if bw is not None:
        record["bitrate_bps"] = capacity.effective_bitrate(chosen.se_bps_hz, bw)
    return record


def _cmd_multibeam(args) -> dict:
    bw = _si(vars(args), *_BW)
    return {
        "se_bps_hz": args.se,
        "bw_hz": bw,
        "polarizations": args.pol,
        "beams": args.beams,
        "colors": args.colors,
        "guard_fraction": args.guard,
        "capacity_bps": capacity.multibeam_capacity(args.se, bw, args.pol, args.beams, args.colors, args.guard),
    }


def _cmd_cost(args) -> dict:
    return {"rtot_gbps": args.rtot_gbps, "cost_per_gbps": capacity.satellite_cost_per_gbps(args.rtot_gbps)}


def _cmd_tcp(args) -> dict:
    return {
        "mss_bytes": args.mss,
        "rtt_ms": args.rtt_ms,
        "loss_probability": args.ploss,
        "c_constant": args.c,
        "throughput_bps": capacity.tcp_throughput_bound(args.mss, _si(vars(args), "rtt_ms"), args.ploss, args.c),
    }


# --- antenna -------------------------------------------------------------------------


def _cmd_antenna_pattern(args) -> str:
    spec = antenna.ArraySpec.linear(args.elements, spacing_wavelengths=args.spacing)
    return antenna.pattern_csv(spec, args.resolution_deg)


def _cmd_antenna_select(args) -> dict:
    if args.hpbw_deg is not None:
        for key in ("cell_radius_km", "altitude_km"):
            if getattr(args, key) is not None:
                args.parser.error(f"argument {_flag(key)}: not allowed with argument --hpbw-deg")
        required = args.hpbw_deg
        extra = {}
    elif args.cell_radius_km is not None and args.altitude_km is not None:
        required = math.degrees(geometry.required_hpbw(args.cell_radius_km, args.altitude_km))
        extra = {"cell_radius_km": args.cell_radius_km, "altitude_km": args.altitude_km}
    else:
        args.parser.error("missing parameter: hpbw_deg (or cell_radius_km + altitude_km)")
    spec, peak_dbi, edge_dbi = antenna.select_array(required)
    return {
        **extra,
        "required_hpbw_deg": required,
        "array": spec.label,
        "elements": spec.elements,
        "hpbw_deg": antenna.hpbw_from_directivity(antenna.directivity(spec)),
        "peak_gain_dbi": peak_dbi,
        "edge_gain_dbi": edge_dbi,
    }


def _cmd_antenna_table(args) -> list[dict]:
    rows = []
    for spec in antenna.ARRAY_CATALOG:
        d = antenna.directivity(spec)
        rows.append({
            "antenna": spec.label,
            "directivity_linear": d,
            "directivity_dbi": quantities.db_from_linear(d),
            "hpbw_deg": None if spec.elements == 1 else antenna.hpbw_from_directivity(d),
        })
    return rows


# --- constellation ----------------------------------------------------------------------


def _cmd_constellation_list(args) -> list[dict]:
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


def _cmd_constellation_stats(args) -> dict:
    constants = _constants_from_env()
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


def _cmd_scenario_run(args) -> dict | list[dict]:
    constants = _constants_from_env()
    name = args.scenario
    try:
        s = scenario.fixture(name)
    except NotFoundError:
        if not (name.endswith(".json") or os.path.isfile(name)):
            raise
        s = scenario.load_scenario(Path(name))
    report = scenario.run_scenario(s, constants)
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
    columns = ("quantity", "direction", "label", "status", "computed", "reported", "delta")
    return [
        {**{key: getattr(f, key) for key in columns}, "missing": ";".join(f.missing) if f.missing else None}
        for f in report.findings
    ]


def _cmd_scenario_list(args) -> list[dict]:
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


_REQUIRED = {"required": True}
_POSITIVE = {"rule": "must be > 0 {}"}
_ELEVATION = {"rule": "must lie in [0, 90] {}"}
_OUTPUT = (
    ("format", None, {"choices": ("table", "json", "csv"), "default": "table"}),
    ("precise", None, {"action": "store_true", "help": "full 6-significant-digit tables"}),
)

# Every subcommand: {name: (help, {name: ...})} for a group, {name: (help, handler, flags)}
# for a leaf. A flag row is (key, type, argparse options); a tuple of keys is one
# quantity's unit flags, one mutually exclusive group ("required" requires one of them);
# "positional" makes the key an argument, not a --flag. A "rule" is the library's rule for
# the quantity, restated in the flag's unit ({}): main checks the value as typed against it
# before the handler runs.
_COMMANDS = {
    "convert": ("unit conversions and the band chart", {
        "db": ("linear ratio to dB", _cmd_convert_db, (("linear", float, _REQUIRED), *_OUTPUT)),
        "linear": ("dB to linear ratio", _cmd_convert_linear, (("db", float, _REQUIRED), *_OUTPUT)),
        "power": ("watts / dBW / dBm views", _cmd_convert_power,
                  ((("watts", "dbw", "dbm"), float, _REQUIRED), *_OUTPUT)),
        "noise-temp": ("noise figure to noise temperature", _cmd_convert_noise_temp,
                       (("nf_db", float, _REQUIRED), ("t_ref_k", float), *_OUTPUT)),
        "wavelength": ("carrier frequency to wavelength", _cmd_convert_wavelength,
                       ((_FREQ, float, _REQUIRED | _POSITIVE), *_OUTPUT)),
        "band": ("resolve a frequency to its ITU band", _cmd_convert_band, (
            (("freq_mhz", "freq_ghz", "freq_hz"), float, _REQUIRED | _POSITIVE),
            ("direction", None, {"choices": (quantities.DOWNLINK, quantities.UPLINK), "required": True}),
            ("orbit", None, {"choices": (quantities.GEO, quantities.NON_GEO, quantities.ANY_ORBIT),
                             "default": quantities.ANY_ORBIT}),
            *_OUTPUT,
        )),
        "bands": ("export the band allocation chart as CSV", _cmd_convert_bands, (("out", None),)),
    }),
    "geometry": ("slant range, footprints, beam cells", {
        "slant": ("slant range from altitude and elevation", _cmd_geometry_slant,
                  (("altitude_km", float, _REQUIRED | _POSITIVE), ("elevation_deg", float, _REQUIRED | _ELEVATION),
                   *_OUTPUT)),
        "footprint": ("per-satellite footprint and coverage", _cmd_geometry_footprint,
                      (("sats_per_orbit", int, _REQUIRED), ("coverage_sats", int), *_OUTPUT)),
        "cell": ("cell radius after an equal-area beam split", _cmd_geometry_cell, (
            ("parent_radius_km", float, _REQUIRED), ("beams", int, _REQUIRED), ("altitude_km", float, _POSITIVE),
            *_OUTPUT,
        )),
    }),
    "linkbudget": ("itemized dB ledger and SNR", _cmd_linkbudget, (
        ("config", None, {"help": "JSON file with the same keys as the flags"}),
        ("distance_km", float, _POSITIVE), ("altitude_km", float, _POSITIVE), ("elevation_deg", float, _ELEVATION),
        (_BUDGET_FREQ, float, _POSITIVE),
        ("eirp_dbw", float), ("power_w", float), ("gain_dbi", float),
        ("terminal", None, {"help": f"receiver terminal preset ({', '.join(scenario.TERMINALS)})"}),
        ("rx_gain_dbi", float), ("nf_db", float), ("noise_temp_k", float), ("g_over_t_dbk", float),
        (_BW, float, _POSITIVE),
        ("atm_loss_db", float), ("ad_loss_db", float), ("margin_db", float),
        *_OUTPUT,
    )),
    "capacity": ("Shannon capacity and spectral efficiency", _cmd_capacity,
                 ((("snr_db", "snr_linear"), float, _REQUIRED), (_BW, float, _REQUIRED | _POSITIVE), *_OUTPUT)),
    "modcod": ("highest-rate scheme the SNR supports", _cmd_modcod, (
        ("snr_db", float, _REQUIRED), ("catalog", None, {"help": "CSV catalog (name, se_bps_hz, snr_qef_db)"}),
        (_BW, float, {"rule": "must be >= 0 {}"}), *_OUTPUT,
    )),
    "multibeam": ("total multi-beam satellite capacity", _cmd_multibeam, (
        ("se", float, _REQUIRED), ("bw_ghz", float, _REQUIRED | _POSITIVE), ("pol", int, {"default": 1}),
        ("beams", int, _REQUIRED), ("colors", int, _REQUIRED), ("guard", float, {"default": 0.0}), *_OUTPUT,
    )),
    "cost": ("cost per Gb/s power law", _cmd_cost, (("rtot_gbps", float, _REQUIRED), *_OUTPUT)),
    "tcp": ("loss-bounded TCP throughput", _cmd_tcp, (
        ("mss", float, {"required": True, "help": "maximum segment size in bytes"}),
        ("rtt_ms", float, _REQUIRED | _POSITIVE), ("ploss", float, _REQUIRED), ("c", float, {"default": 1.0}), *_OUTPUT,
    )),
    "antenna": ("phased-array patterns and selection", {
        "pattern": ("radiation-pattern cut as CSV", _cmd_antenna_pattern, (
            ("elements", int, _REQUIRED),
            ("spacing", float, {"default": 0.5, "help": "element spacing in wavelengths"}),
            ("resolution_deg", float, {"default": 0.1}), ("out", None),
        )),
        "select": ("pick the catalog array nearest a target beamwidth", _cmd_antenna_select,
                   (("hpbw_deg", float), ("cell_radius_km", float), ("altitude_km", float, _POSITIVE), *_OUTPUT)),
        "table": ("reference array catalog", _cmd_antenna_table, _OUTPUT),
    }),
    "constellation": ("LEO shell catalog and footprints", {
        "list": ("all catalog shells", _cmd_constellation_list, _OUTPUT),
        "stats": ("footprint statistics for one shell", _cmd_constellation_stats,
                  (("shell", None, {"positional": True}), *_OUTPUT)),
    }),
    "scenario": ("NTN project consistency reports", {
        "run": ("run a bundled fixture or a scenario file", _cmd_scenario_run,
                (("scenario", None, {"positional": True, "help": "fixture name or JSON file path"}), *_OUTPUT)),
        "list": ("bundled fixtures", _cmd_scenario_list, _OUTPUT),
    }),
}


def _add_commands(parser: argparse.ArgumentParser, commands: dict, dest: str) -> None:
    """Add the groups and leaves of `commands`, a level of _COMMANDS, under `parser`."""
    parser.set_defaults(parser=parser)  # a group run without a subcommand prints its own help
    sub = parser.add_subparsers(dest=dest)
    for name, (help_text, *entry) in commands.items():
        p = sub.add_parser(name, help=help_text)
        if len(entry) == 1:
            _add_commands(p, entry[0], "subcommand")
            continue
        handler, flags = entry
        rules = []
        for key, kind, *options in flags:
            options = dict(*options, **({"type": kind} if kind else {}))
            positional, rule = options.pop("positional", False), options.pop("rule", None)
            target = p if isinstance(key, str) else p.add_mutually_exclusive_group(
                required=options.pop("required", False))
            for k in (key,) if isinstance(key, str) else key:
                target.add_argument(k if positional else _flag(k), **options)
                if rule:
                    rules.append((k, rule.format(_UNIT[k][0])))
        p.set_defaults(func=handler, rules=tuple(rules), parser=p)


def _keys(flags) -> tuple:
    """The keys of `flags`, rows of _COMMANDS, in order."""
    return tuple(k for key, *_ in flags for k in ((key,) if isinstance(key, str) else key))


# The linkbudget flags but --config and the output flags, in --help order; a --config
# document takes the same keys.
_BUDGET_KEYS = tuple(k for k in _keys(_COMMANDS["linkbudget"][2]) if k not in ("config", *_keys(_OUTPUT)))


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser tree, built once per process: parsing leaves no state in it."""
    parser = _Parser(prog="satlink", description="Satellite-link engineering toolkit")
    _add_commands(parser, _COMMANDS, "command")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if not hasattr(args, "func"):
        args.parser.print_help(file=sys.stderr)
        return EXIT_USAGE
    try:
        _check_flags(vars(args), args.rules, _flag)
        _emit(args, args.func(args))
    except BrokenPipeError:
        # the reader closed stdout: send what is left to devnull, so the flush at exit is silent
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
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
    freeing numpy and scipy there takes about 100 ms of every run with
    OpenBLAS on one thread, after the output is written and with nobody to
    read the result (mypy's util.hard_exit does the same). A SystemExit
    from argparse (usage errors, --help) or an unexpected exception escapes
    `main` and takes the normal exit path.
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
