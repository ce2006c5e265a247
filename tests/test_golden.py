"""Golden corpora: exact behaviour that refactors must leave unchanged.

`golden/guards.json` holds, for each library expression template and each
value in its "values" list, the outcome: the exception type, message and
ValidationError field, or the repr of the result (a SHA-256 prefix of it
when long). The values give every range guard nan, +-inf, 0, -1 and the
bounds of its range.

`golden/cli.json` lists in-process `satlink` invocations with their exit
code, stdout, stderr, warnings and the text of any file they wrote.

Outcomes that were Python errors other than SatlinkError are not recorded:
they are faults, and a fix changes them.

`python tests/test_golden.py` rewrites both files from the code it imports,
and prints each case the re-capture changed: a guard expression with its old
and new outcome (a template added or removed whole is one line, with its
number of values), a CLI invocation with its old and new exit code and every
other field that moved. Run it only at a commit whose behaviour is the
reference, and review the diff.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import os
import sys
import tempfile
import warnings
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from satlink import antenna, capacity, cli, constellation, geometry, linkbudget, quantities, scenario
from satlink.errors import SatlinkError

GOLDEN = Path(__file__).parent / "golden"

# --- guard corpus -------------------------------------------------------------

_NAMESPACE = {
    "nan": math.nan,
    "inf": math.inf,
    "q": quantities,
    "g": geometry,
    "lb": linkbudget,
    "c": capacity,
    "a": antenna,
    "k": constellation,
    "s": scenario,
    "TX": linkbudget.Transmitter(power_w=2.0, gain_dbi=12.0),
    "RX": linkbudget.Receiver(gain_dbi=12.0, nf_db=5.0),
}

# written into guards.json, which the test reads them from
_VALUES = (
    math.nan, math.inf, -math.inf, 0.0, -0.0, -1.0, 0, 1, -1, 5e-324, -5e-324, 0.5,
    0.9999999999999999, 1.0, 1.0000000000000002, 2.0, 2.0000000000000004,
    math.nextafter(math.pi / 2, 0.0), math.pi / 2, math.nextafter(math.pi / 2, 4.0),
    90.0, 90.00000000000001, 180.0, 180.00000000000003, 5000.0,
    sys.float_info.max, -sys.float_info.max,
)

_BUDGET = "lb.link_budget({tx}, {rx}, {d}, {f}, {bw}{extra})"
_SCENARIO = "s.load_scenario({{{{'name': 'x', 'orbit': 'LEO', {}}}}})"

_TEMPLATES = {
    "quantities": (
        "q.db_from_linear({})", "q.linear_from_db({})",
        "q.PhysicalConstants(c_m_per_s={})", "q.PhysicalConstants(t_ref_k={})",
        "q.PhysicalConstants.from_mapping({{'earth_radius_km': {}}})",
        "q.noise_temperature_from_nf({})", "q.noise_temperature_from_nf(3.0, {})",
        "q.noise_figure_from_temperature({})", "q.noise_figure_from_temperature(100.0, {})",
        "q.wavelength({})", "q.band_lookup({}, 'downlink')", "q.band_lookup(2e9 * {}, 'uplink', 'geo')",
        "q.matching_allocations({}, 'uplink')",
    ),
    "geometry": (
        "g.slant_range_exact({}, 0.5)", "g.slant_range_exact(500.0, {})",
        "g.slant_range_altitude_approx({}, 0.5)", "g.slant_range_altitude_approx(500.0, {})",
        "g.footprint_diameter({})", "g.footprint_area({})",
        "g.earth_coverage_fraction({}, 100.0)", "g.earth_coverage_fraction(10.0, {})",
        "g.cell_radius_from_split({}, 4)", "g.cell_radius_from_split(100.0, {})",
        "g.required_hpbw({}, 500.0)", "g.required_hpbw(10.0, {})",
    ),
    "linkbudget": (
        "lb.friis_received_power({}, 1.0, 1.0, 0.1, 1000.0)", "lb.friis_received_power(1.0, {}, 1.0, 0.1, 1000.0)",
        "lb.friis_received_power(1.0, 1.0, {}, 0.1, 1000.0)", "lb.friis_received_power(1.0, 1.0, 1.0, {}, 1000.0)",
        "lb.friis_received_power(1.0, 1.0, 1.0, 0.1, {})",
        "lb.noise_power({}, 1e6)", "lb.noise_power(290.0, {})", "lb.fspl({}, 1e9)", "lb.fspl(1e6, {})",
        "lb.g_over_t(10.0, {})", "lb.g_over_t({}, 290.0)",
        "lb.combine_snr_sir({}, 10.0)", "lb.combine_snr_sir(10.0, {})",
        "lb.Transmitter({}, 10.0)", "lb.Transmitter(2.0, {})", "lb.Transmitter({}, 3.0).eirp_dbw",
        "lb.Transmitter(2.0, {}).eirp_dbw", "lb.Transmitter(2.0, {}).gain_linear", "lb.Transmitter({}, 3.0).eirp_w",
        "lb.Receiver({}, nf_db=1.0)", "lb.Receiver(0.0, nf_db={})", "lb.Receiver(0.0, noise_temp_k={})",
        "lb.Receiver({}, nf_db=1.0).gain_linear", "lb.Receiver(0.0, nf_db={}).noise_temperature_k",
        "lb.Receiver(0.0, nf_db=3.0, t_ref_k={}).noise_temperature_k",
        "lb.Receiver(0.0, noise_temp_k={}).noise_figure_db", "lb.Receiver(0.0, noise_temp_k={}).g_over_t_dbk",
        "lb.Receiver({}, noise_temp_k=100.0).g_over_t_dbk",
        "lb.snr_db({}, 0.0, 100.0)", "lb.snr_db(0.0, {}, 100.0)", "lb.snr_db(0.0, 0.0, {})",
        "lb.snr_db(0.0, 0.0, 100.0, {})", "lb.snr_db(0.0, 0.0, 100.0, 0.0, {})",
        "lb.snr_db(0.0, 0.0, 100.0, 0.0, 0.0, {})", "lb.snr_db(0.0, 0.0, 100.0, bw_dbhz={})",
        *(
            _BUDGET.format(**{**dict(tx="TX", rx="RX", d="5.5e5", f="11.7e9", bw="1e6", extra=""), **change})
            for change in (
                {"d": "{}"}, {"f": "{}"}, {"bw": "{}"}, {"extra": ", {}"}, {"extra": ", 0.0, {}"},
                {"extra": ", 0.0, 0.0, {}"}, {"tx": "lb.Transmitter({}, 12.0)"}, {"tx": "lb.Transmitter(2.0, {})"},
                {"rx": "lb.Receiver({}, nf_db=5.0)"}, {"rx": "lb.Receiver(0.0, nf_db={})"},
                {"rx": "lb.Receiver(0.0, noise_temp_k={})"}, {"rx": "lb.Receiver(0.0, nf_db=3.0, t_ref_k={})"},
                {"extra": ", constants=q.PhysicalConstants(c_m_per_s={})"},
                {"f": "1e-300", "extra": ", constants=q.PhysicalConstants(c_m_per_s={})"},
                {"extra": ", constants=q.PhysicalConstants(boltzmann_j_per_k={})"},
            )
        ),
    ),
    "capacity": (
        "c.shannon_capacity({}, 1.0)", "c.shannon_capacity(1e6, {})", "c.max_spectral_efficiency({})",
        "c.required_snr({})", "c.effective_bitrate({}, 1e6)", "c.effective_bitrate(1.0, {})",
        "c.ModCod('m', {}, 10.0)", "c.ModCod('m', 0.5, {})", "c.select_modcod({})",
        "c.multibeam_capacity({}, 1e6)", "c.multibeam_capacity(1.0, {})",
        "c.multibeam_capacity(1.0, 1e6, guard_fraction={})", "c.satellite_cost_per_gbps({})",
        "c.tcp_throughput_bound({}, 0.1, 1e-6)", "c.tcp_throughput_bound(1500.0, {}, 1e-6)",
        "c.tcp_throughput_bound(1500.0, 0.1, {})", "c.tcp_throughput_bound(1500.0, 0.1, 1e-6, {})",
    ),
    "antenna": (
        "a.ArraySpec('linear', 4, spacing_wavelengths={})",
        "a.array_factor_magnitude(4, {})", "a.normalized_array_factor(4, {})",
        "a.psi_from_incidence({}, 0.5)", "a.psi_from_incidence(0.5, {})",
        "a.gain_from_directivity({}, 0.5)", "a.gain_from_directivity(10.0, {})",
        "a.effective_aperture({}, 10.0)", "a.effective_aperture(0.1, {})", "a.hpbw_from_directivity({})",
        "a.amplitude_db_field({})", "a.amplitude_db_power({})", "a.pattern_csv(a.ArraySpec.linear(4), {})",
        "a.select_array({})",
    ),
    "constellation": (
        "k.Shell('c', 's', {}, 1, 1, 50.0)", "k.Shell('c', 's', 500.0, 1, 1, {})",
    ),
    "scenario": (
        *(
            _SCENARIO.format(field)
            for field in (
                "'altitude_km': {}", "'elevation_deg': {}", "'freq_dl_ghz': {}", "'bw_ul_mhz': {}",
                "'sinr_dl_db': {}", "'se_ul_bps_hz': {}", "'bitrate_dl_mbps': {}", "'margin_db': {}",
                "'footprint_radius_km': {}", "'cases': [{{'direction': 'dl', 'bw_hz': {}}}]",
                "'cases': [{{'direction': 'ul', 'sinr_db': {}}}]",
                "'cases': [{{'direction': 'ul', 'bitrate_bps': {}}}]",
                "'terminal': {{'name': 'vsat', 'nf_db': {}}}",
            )
        ),
        "s.terminal_profile({{'name': 'vsat', 'nf_db': {}}})",
        "s.terminal_profile({{'name': 'iot', 'noise_temp_k': {}}})",
        "s.terminal_profile({{'name': 'x', 'gain_dbi': {}, 'nf_db': 1.0}})",
        "s.terminal_profile({{'name': 'x', 'gain_dbi': 1.0, 'nf_db': 1.0, 'eirp_dbm': {}}})",
        "s.TerminalProfile('t', {}, nf_db=1.0)", "s.TerminalProfile('t', 0.0, nf_db={})",
        "s.TerminalProfile('t', 0.0, noise_temp_k={})",
    ),
}


def guard_outcome(expr: str) -> list:
    """[exception type, message, field] or ["ok", repr of the result]."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            result = eval(expr, dict(_NAMESPACE))
    except SatlinkError as exc:
        return [type(exc).__name__, str(exc), getattr(exc, "field", None)]
    text = repr(result)
    return ["ok", text if len(text) <= 120 else "sha256:" + hashlib.sha256(text.encode()).hexdigest()[:16]]


# --- CLI corpus -------------------------------------------------------------------

_SCENARIO_DOC = {
    "name": "corpus", "orbit": "LEO", "altitude_km": 550.0, "elevation_deg": 40.0, "band": "Ku",
    "freq_dl_ghz": 11.7, "freq_ul_ghz": 14.2, "bw_dl_mhz": 250.0, "sinr_dl_db": 9.0, "se_dl_bps_hz": 2.5,
    "bitrate_dl_mbps": 600.0, "beams": 4, "footprint_radius_km": 100.0, "terminal": {"name": "vsat", "nf_db": 2.0},
    "cases": [{"direction": "ul", "label": "edge", "sinr_db": 1.0, "se_bps_hz": 1.5, "bw_hz": 2e7}],
}
_CONFIG_DOC = {
    "altitude_km": 600.0, "elevation_deg": 30.0, "freq_ghz": 2.0, "power_w": 26.6, "gain_dbi": 13.0,
    "rx_gain_dbi": 0.0, "nf_db": 7.0, "bw_khz": 1.0,
}

CLI_FILES = {
    "scen.json": json.dumps(_SCENARIO_DOC, indent=2),
    "bad_scen.json": json.dumps({"name": "x", "orbit": "LEO", "altitude_km": -5}),
    "nan_scen.json": '{"name": "x", "orbit": "LEO", "sinr_dl_db": NaN}',
    "case_scen.json": json.dumps({"name": "x", "orbit": "LEO", "cases": [{"direction": "up"}]}),
    "broken.json": '{"name": ',
    "list.json": "[1, 2]",
    "bytes.json": b"\xff\xfe\x00",
    "cfg.json": json.dumps(_CONFIG_DOC),
    "cfg_gt.json": json.dumps({"distance_km": 36000, "freq_ghz": 12, "eirp_dbw": 52, "g_over_t_dbk": 12,
                               "bw_mhz": 36, "margin_db": 3}),
    "cfg_terminal.json": json.dumps({"distance_km": 1000, "freq_mhz": 2000, "eirp_dbw": 40,
                                     "terminal": {"name": "car", "gain_dbi": 3, "noise_temp_k": 400}, "bw_hz": 1e5}),
    "cfg_unknown.json": json.dumps({"frequency": 2.0}),
    "cfg_str.json": json.dumps({"distance_km": "far"}),
    "cfg_nan.json": '{"distance_km": NaN, "freq_ghz": 2}',
    "cfg_array.json": "[1]",
    "cfg_broken.json": "{",
    "cat.csv": "name,se_bps_hz,snr_qef_db\nQPSK 1/2,0.9,1.0\n8PSK 2/3,1.8,6.6\n16APSK 3/4,2.9,10.2\n",
    "cat_shannon.csv": "name,se_bps_hz,snr_qef_db\nmagic,5.0,1.0\n",
    "cat_columns.csv": "name,se\nx,1\n",
    "cat_row.csv": "name,se_bps_hz,snr_qef_db\nx,abc,1\n",
    "cat_order.csv": "name,se_bps_hz,snr_qef_db\na,1.0,5.0\nb,2.0,4.5\n",
    "consts.json": json.dumps({"c_m_per_s": 299792458.0, "earth_radius_km": 6378.137}),
    "consts_bad.json": json.dumps({"c_m_per_s": -1}),
    "consts_str.json": json.dumps({"c_m_per_s": "abc"}),
    "consts_unknown.json": json.dumps({"speed": 1}),
    "consts_list.json": "[]",
    "consts_broken.json": "{",
    "consts_nan.json": '{"t_ref_k": NaN}',
}

_FORMATS = ((), ("--format", "json"), ("--format", "csv"), ("--precise",))
_LB = ("linkbudget", "--distance-km", "21000", "--freq-ghz", "2")
_LB_TX = ("--power-w", "26.6", "--gain-dbi", "13")
_LB_FULL = (*_LB, *_LB_TX, "--terminal", "class3-ue", "--bw-khz", "1", "--atm-loss-db", "9.6")

# commands that succeed, each run in every output format
_FORMATTED = (
    ("convert", "db", "--linear", "19.95"),
    ("convert", "linear", "--db", "13"),
    ("convert", "power", "--watts", "2"),
    ("convert", "power", "--dbw", "3"),
    ("convert", "power", "--dbm", "23"),
    ("convert", "noise-temp", "--nf-db", "7"),
    ("convert", "noise-temp", "--nf-db", "0.5", "--t-ref-k", "300"),
    ("convert", "wavelength", "--freq-ghz", "2"),
    ("convert", "wavelength", "--freq-hz", "1e9"),
    ("convert", "band", "--freq-mhz", "1990", "--direction", "uplink"),
    ("convert", "band", "--freq-ghz", "11.7", "--direction", "downlink", "--orbit", "geo"),
    ("geometry", "slant", "--altitude-km", "600", "--elevation-deg", "30"),
    ("geometry", "slant", "--altitude-km", "35786", "--elevation-deg", "90"),
    ("geometry", "footprint", "--sats-per-orbit", "22"),
    ("geometry", "footprint", "--sats-per-orbit", "22", "--coverage-sats", "1584"),
    ("geometry", "cell", "--parent-radius-km", "50", "--beams", "16"),
    ("geometry", "cell", "--parent-radius-km", "50", "--beams", "16", "--altitude-km", "500"),
    _LB_FULL,
    (*_LB, "--eirp-dbw", "27.4", "--g-over-t-dbk", "-30", "--bw-khz", "1", "--atm-loss-db", "9.6"),
    (*_LB, *_LB_TX, "--rx-gain-dbi", "0", "--nf-db", "7", "--bw-mhz", "1"),
    ("linkbudget", "--altitude-km", "600", "--elevation-deg", "30", "--freq-mhz", "2000", "--eirp-dbw", "40",
     "--rx-gain-dbi", "3", "--noise-temp-k", "400", "--bw-hz", "2e5", "--margin-db", "3", "--ad-loss-db", "1"),
    ("linkbudget", "--config", "cfg.json"),
    ("linkbudget", "--config", "cfg_gt.json"),
    ("linkbudget", "--config", "cfg_terminal.json", "--bw-ghz", "0.001"),
    ("capacity", "--snr-db", "10", "--bw-mhz", "1"),
    ("capacity", "--snr-linear", "1.41", "--bw-khz", "1"),
    ("capacity", "--snr-linear", "0", "--bw-ghz", "1"),
    ("modcod", "--snr-db", "5"),
    ("modcod", "--snr-db", "5", "--bw-mhz", "10"),
    ("modcod", "--snr-db", "7", "--catalog", "cat.csv"),
    ("multibeam", "--se", "2", "--bw-ghz", "1.5", "--pol", "2", "--beams", "60", "--colors", "7", "--guard", "0.1"),
    ("cost", "--rtot-gbps", "46"),
    ("tcp", "--mss", "1500", "--rtt-ms", "200", "--ploss", "1e-9"),
    ("tcp", "--mss", "1460", "--rtt-ms", "600", "--ploss", "1e-4", "--c", "1.8"),
    ("antenna", "select", "--hpbw-deg", "10"),
    ("antenna", "select", "--cell-radius-km", "50", "--altitude-km", "500"),
    ("antenna", "table"),
    ("constellation", "list"),
    ("constellation", "stats", "S1"),
    ("constellation", "stats", "T2"),
    ("scenario", "run", "thales"),
    ("scenario", "run", "intelsat-haps"),
    ("scenario", "run", "scen.json"),
    ("scenario", "list"),
)

# everything else: one format each, mostly error paths
_SINGLE = (
    (), ("--help",), ("bogus",), ("convert",), ("antenna",), ("geometry",), ("constellation",), ("scenario",),
    ("convert", "db"), ("convert", "db", "--linear", "abc"), ("convert", "db", "--linear", "0"),
    ("convert", "db", "--linear", "-1"), ("convert", "db", "--linear", "nan"), ("convert", "db", "--linear", "inf"),
    ("convert", "linear", "--db", "5000"), ("convert", "linear", "--db", "nan"), ("convert", "linear", "--db", "-inf"),
    ("convert", "power"), ("convert", "power", "--watts", "1", "--dbm", "2"), ("convert", "power", "--watts", "-1"),
    ("convert", "power", "--dbm", "5000"), ("convert", "power", "--watts", "0"),
    ("convert", "noise-temp", "--nf-db", "-1"), ("convert", "noise-temp", "--nf-db", "nan"),
    ("convert", "noise-temp", "--nf-db", "3", "--t-ref-k", "0"), ("convert", "noise-temp", "--nf-db", "0"),
    ("convert", "wavelength"), ("convert", "wavelength", "--freq-ghz", "0"),
    ("convert", "wavelength", "--freq-mhz", "-3"), ("convert", "wavelength", "--freq-ghz", "inf"),
    ("convert", "band", "--freq-ghz", "100", "--direction", "downlink"),
    ("convert", "band", "--freq-ghz", "100", "--direction", "downlink", "--format", "json"),
    ("convert", "band", "--direction", "uplink"), ("convert", "band", "--freq-ghz", "-1", "--direction", "uplink"),
    ("convert", "band", "--freq-ghz", "2", "--direction", "sideways"),
    ("convert", "bands"), ("convert", "bands", "--out", "bands.csv"), ("convert", "bands", "--out", "nodir/b.csv"),
    ("geometry", "slant", "--altitude-km", "600", "--elevation-deg", "95"),
    ("geometry", "slant", "--altitude-km", "-5", "--elevation-deg", "30"),
    ("geometry", "slant", "--altitude-km", "600", "--elevation-deg", "nan"),
    ("geometry", "slant", "--altitude-km", "600", "--elevation-deg", "0"),
    ("geometry", "slant", "--altitude-km", "600"),
    ("geometry", "footprint", "--sats-per-orbit", "0"), ("geometry", "footprint", "--sats-per-orbit", "1.5"),
    ("geometry", "footprint", "--sats-per-orbit", "1"),
    ("geometry", "cell", "--parent-radius-km", "50", "--beams", "0"),
    ("geometry", "cell", "--parent-radius-km", "-1", "--beams", "4"),
    ("geometry", "cell", "--parent-radius-km", "50", "--beams", "4", "--altitude-km", "0"),
    ("linkbudget", "--help"),
    ("linkbudget",),
    ("linkbudget", "--freq-ghz", "2", "--eirp-dbw", "40", "--g-over-t-dbk", "1", "--bw-khz", "1"),
    ("linkbudget", "--distance-km", "1000", "--eirp-dbw", "40", "--g-over-t-dbk", "1", "--bw-khz", "1"),
    (*_LB, "--eirp-dbw", "40", "--g-over-t-dbk", "1"),
    (*_LB, "--bw-khz", "1", "--g-over-t-dbk", "1"),
    (*_LB, "--eirp-dbw", "40", "--bw-khz", "1"),
    (*_LB, "--eirp-dbw", "40", "--bw-khz", "1", "--rx-gain-dbi", "0"),
    (*_LB, "--power-w", "2", "--bw-khz", "1", "--g-over-t-dbk", "1"),
    (*_LB, "--eirp-dbw", "40", "--bw-khz", "1", "--bw-mhz", "1", "--g-over-t-dbk", "1"),
    (*_LB_FULL[:-2], "5000"), (*_LB_FULL[:-2], "-1"), (*_LB_FULL, "--ad-loss-db", "-2"),
    (*_LB_FULL, "--margin-db", "nan"),
    (*_LB_FULL[:-4], "--bw-khz", "0"), (*_LB_FULL[:-4], "--bw-khz", "-1"),
    ("linkbudget", "--distance-km", "0", "--freq-ghz", "2", *_LB_FULL[5:]),
    ("linkbudget", "--distance-km", "0.001", "--freq-ghz", "0.001", *_LB_FULL[5:]),
    ("linkbudget", "--distance-km", "1000", "--freq-ghz", "-2", *_LB_FULL[5:]),
    ("linkbudget", "--altitude-km", "600", "--elevation-deg", "120", "--freq-ghz", "2", *_LB_FULL[5:]),
    (*_LB, "--power-w", "0", "--gain-dbi", "13", "--terminal", "vsat", "--bw-khz", "1"),
    (*_LB, "--power-w", "2", "--gain-dbi", "nan", "--terminal", "vsat", "--bw-khz", "1"),
    (*_LB, "--power-w", "2", "--gain-dbi", "-4000", "--terminal", "vsat", "--bw-khz", "1"),
    (*_LB, "--power-w", "2", "--gain-dbi", "4000", "--terminal", "vsat", "--bw-khz", "1"),
    (*_LB, *_LB_TX, "--terminal", "zeppelin", "--bw-khz", "1"),
    (*_LB, *_LB_TX, "--terminal", "iot", "--bw-khz", "1"),
    (*_LB, *_LB_TX, "--rx-gain-dbi", "0", "--nf-db", "-1", "--bw-khz", "1"),
    (*_LB, *_LB_TX, "--rx-gain-dbi", "0", "--nf-db", "0", "--bw-khz", "1"),
    (*_LB, *_LB_TX, "--rx-gain-dbi", "0", "--noise-temp-k", "0", "--bw-khz", "1"),
    (*_LB, *_LB_TX, "--rx-gain-dbi", "0", "--nf-db", "1", "--noise-temp-k", "100", "--bw-khz", "1"),
    (*_LB, *_LB_TX, "--rx-gain-dbi", "inf", "--nf-db", "1", "--bw-khz", "1"),
    (*_LB, "--eirp-dbw", "nan", "--g-over-t-dbk", "1", "--bw-khz", "1"),
    (*_LB, "--eirp-dbw", "40", "--g-over-t-dbk", "inf", "--bw-khz", "1"),
    ("linkbudget", "--distance-km", "1e297", "--freq-ghz", "10", "--bw-mhz", "1", "--eirp-dbw", "40",
     "--rx-gain-dbi", "0", "--nf-db", "2"),
    ("linkbudget", "--config", "missing.json"), ("linkbudget", "--config", "cfg_unknown.json"),
    ("linkbudget", "--config", "cfg_str.json"), ("linkbudget", "--config", "cfg_nan.json"),
    ("linkbudget", "--config", "cfg_array.json"), ("linkbudget", "--config", "cfg_broken.json"),
    ("linkbudget", "--config", "cfg.json", "--nf-db", "2", "--format", "json"),
    ("linkbudget", "--config", "cfg.json", "--bw-mhz", "5", "--format", "json"),
    ("capacity", "--bw-khz", "1"), ("capacity", "--snr-db", "1"),
    ("capacity", "--bw-khz", "1", "--snr-db", "1", "--snr-linear", "2"),
    ("capacity", "--bw-khz", "1", "--snr-linear", "-1"), ("capacity", "--bw-khz", "0", "--snr-db", "3"),
    ("capacity", "--bw-khz", "1", "--snr-db", "nan"), ("capacity", "--bw-khz", "1", "--snr-db", "5000"),
    ("modcod", "--snr-db", "-3"), ("modcod", "--snr-db", "-3", "--format", "json"), ("modcod", "--snr-db", "nan"),
    ("modcod", "--snr-db", "3", "--catalog", "cat.csv"), ("modcod", "--snr-db", "3", "--catalog", "cat_shannon.csv"),
    ("modcod", "--snr-db", "3", "--catalog", "cat_columns.csv"), ("modcod", "--snr-db", "3", "--catalog", "cat_row.csv"),
    ("modcod", "--snr-db", "3", "--catalog", "cat_order.csv"), ("modcod", "--snr-db", "3", "--catalog", "nope.csv"),
    ("modcod", "--snr-db", "3", "--catalog", "bytes.json"), ("modcod", "--snr-db", "5", "--bw-hz", "-1"),
    ("modcod",),
    ("multibeam", "--se", "2", "--bw-ghz", "1", "--pol", "3", "--beams", "1", "--colors", "1"),
    ("multibeam", "--se", "2", "--bw-ghz", "1", "--beams", "0", "--colors", "1"),
    ("multibeam", "--se", "2", "--bw-ghz", "1", "--beams", "1", "--colors", "0"),
    ("multibeam", "--se", "2", "--bw-ghz", "1", "--beams", "1", "--colors", "1", "--guard", "1.5"),
    ("multibeam", "--se", "2", "--bw-ghz", "1", "--beams", "1", "--colors", "1", "--guard", "1"),
    ("multibeam", "--se", "-1", "--bw-ghz", "1", "--beams", "1", "--colors", "1"),
    ("multibeam", "--se", "2", "--bw-ghz", "0", "--beams", "1", "--colors", "1"),
    ("cost", "--rtot-gbps", "0"), ("cost", "--rtot-gbps", "-1"), ("cost", "--rtot-gbps", "inf"),
    ("tcp", "--mss", "1500", "--rtt-ms", "200", "--ploss", "0"),
    ("tcp", "--mss", "1500", "--rtt-ms", "200", "--ploss", "1.5"),
    ("tcp", "--mss", "1500", "--rtt-ms", "0", "--ploss", "1e-6"),
    ("tcp", "--mss", "-1", "--rtt-ms", "200", "--ploss", "1e-6"),
    ("tcp", "--mss", "1500", "--rtt-ms", "200", "--ploss", "1e-6", "--c", "3"),
    ("tcp", "--mss", "1500", "--rtt-ms", "200", "--ploss", "1e-6", "--c", "0.5", "--format", "json"),
    ("tcp", "--mss", "1500", "--rtt-ms", "200", "--ploss", "1e-6", "--c", "2"),
    ("antenna", "pattern", "--elements", "4", "--resolution-deg", "10"),
    ("antenna", "pattern", "--elements", "16", "--resolution-deg", "5", "--spacing", "0.7"),
    ("antenna", "pattern", "--elements", "1", "--resolution-deg", "30"),
    ("antenna", "pattern", "--elements", "8", "--resolution-deg", "90"),
    ("antenna", "pattern", "--elements", "5", "--resolution-deg", "7", "--out", "p.csv"),
    ("antenna", "pattern", "--elements", "5", "--resolution-deg", "7", "--out", "nodir/p.csv"),
    ("antenna", "pattern", "--elements", "4", "--resolution-deg", "0"),
    ("antenna", "pattern", "--elements", "4", "--resolution-deg", "-1"),
    ("antenna", "pattern", "--elements", "4", "--resolution-deg", "100"),
    ("antenna", "pattern", "--elements", "4", "--resolution-deg", "nan"),
    ("antenna", "pattern", "--elements", "0", "--resolution-deg", "10"),
    ("antenna", "pattern", "--elements", "4", "--spacing", "0", "--resolution-deg", "10"),
    ("antenna", "pattern", "--elements", "4", "--spacing", "inf", "--resolution-deg", "10"),
    ("antenna", "select"), ("antenna", "select", "--hpbw-deg", "0"), ("antenna", "select", "--hpbw-deg", "nan"),
    ("antenna", "select", "--cell-radius-km", "-1", "--altitude-km", "500"),
    ("antenna", "select", "--cell-radius-km", "50", "--altitude-km", "0"),
    ("antenna", "select", "--cell-radius-km", "50"),
    ("constellation", "stats", "X9"), ("constellation", "stats"),
    *(("scenario", "run", name, "--format", fmt)
      for name in ("inmarsat-geo-iot", "echostar-geo", "oneweb-leo", "intelsat-geo-hts", "avanti-geo-hts",
                   "hispasat-amazonas-3")
      for fmt in ("table", "json", "csv")),
    ("scenario", "run", "zeppelin"), ("scenario", "run", "missing.json"), ("scenario", "run", "bad_scen.json"),
    ("scenario", "run", "nan_scen.json"), ("scenario", "run", "case_scen.json"), ("scenario", "run", "broken.json"),
    ("scenario", "run", "list.json"), ("scenario", "run", "bytes.json"), ("scenario", "run", "."),
)

_WAVELENGTH = ("convert", "wavelength", "--freq-ghz", "2")
# (SATLINK_CONSTANTS, argv)
_WITH_CONSTANTS = (
    *((name, _WAVELENGTH) for name in (
        "consts.json", "consts_bad.json", "consts_str.json", "consts_unknown.json", "consts_list.json",
        "consts_broken.json", "consts_nan.json", "missing.json", "bytes.json",
    )),
    ("consts.json", ("geometry", "slant", "--altitude-km", "600", "--elevation-deg", "30", "--format", "json")),
    ("consts.json", (*_LB_FULL, "--format", "json")),
    ("consts.json", ("constellation", "stats", "K1", "--precise")),
    ("consts.json", ("convert", "noise-temp", "--nf-db", "3")),
    ("consts_bad.json", ("cost", "--rtot-gbps", "46")),
)


def cli_invocations() -> list[tuple[str | None, list[str]]]:
    runs = [(None, [*argv, *fmt]) for argv in _FORMATTED for fmt in _FORMATS]
    runs += [(None, list(argv)) for argv in _SINGLE]
    runs += [(env, list(argv)) for env, argv in _WITH_CONSTANTS]
    return runs


def write_cli_files(directory: Path) -> None:
    for name, content in CLI_FILES.items():
        path = directory / name
        if isinstance(content, bytes):
            path.write_bytes(content)
        else:
            path.write_text(content)


def cli_record(constants: str | None, argv: list[str]) -> dict:
    """Run `satlink <argv>` in process, in the current directory."""
    saved = {key: os.environ.get(key) for key in ("SATLINK_CONSTANTS", "COLUMNS")}
    os.environ["COLUMNS"] = "80"  # argparse wraps help to the terminal width
    os.environ.pop("SATLINK_CONSTANTS", None)
    if constants:
        os.environ["SATLINK_CONSTANTS"] = constants
    out, err = io.StringIO(), io.StringIO()
    try:
        with redirect_stdout(out), redirect_stderr(err), warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code
    finally:
        for key, value in saved.items():
            if value is None:
                os.environ.pop(key, None)
            else:
                os.environ[key] = value
    record = {
        "constants": constants,
        "argv": argv,
        "code": code,
        "stdout": out.getvalue(),
        "stderr": err.getvalue(),
        "warnings": [f"{w.category.__name__}: {w.message}" for w in caught],
    }
    if "--out" in argv:
        written = Path(argv[argv.index("--out") + 1])
        record["written"] = written.read_text() if written.is_file() else None
        written.unlink(missing_ok=True)
    return record


# --- tests --------------------------------------------------------------------------


def _load(name: str):
    return json.loads((GOLDEN / name).read_text())


@pytest.mark.parametrize("module", sorted(_TEMPLATES))
def test_guard_corpus(module):
    corpus = _load("guards.json")
    expected = corpus[module]
    assert len(expected) == len(_TEMPLATES[module])
    diffs = [
        (expr, want, got)
        for template, outcomes in expected.items()
        for value, want in zip(corpus["values"], outcomes)
        if want is not None and (got := guard_outcome(expr := template.format(value))) != want
    ]
    assert not diffs, "\n".join(f"{expr}\n  want {want}\n  got  {got}" for expr, want, got in diffs[:10])


def test_guard_corpus_pins_every_outcome():
    """A null outcome is a fault the corpus skips; none is left."""
    corpus = _load("guards.json")
    unpinned = [
        template.format(value)
        for module, templates in corpus.items()
        if module != "values"
        for template, outcomes in templates.items()
        for value, outcome in zip(corpus["values"], outcomes)
        if outcome is None
    ]
    assert not unpinned, unpinned


# `2e9 * {}` overflows in the template's own expression for an int past the
# float range, before satlink is called.
_HUGE_INT_EXEMPT = {"q.band_lookup(2e9 * {}, 'uplink', 'geo')"}


@pytest.mark.parametrize("value", ["10**400", "-10**400", "10**5000"])
def test_guard_templates_take_ints_past_the_float_range(value):
    """An int past the float range (and past the int-to-str digit limit) ends
    in a value or a SatlinkError in every guard template."""
    faults = []
    for templates in _TEMPLATES.values():
        for template in templates:
            if template not in _HUGE_INT_EXEMPT:
                try:
                    guard_outcome(expr := template.format(value))
                except Exception as exc:
                    faults.append(f"{expr}: {type(exc).__name__}: {exc}")
    assert not faults, "\n".join(faults)


def test_cli_corpus(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    write_cli_files(tmp_path)
    expected = _load("cli.json")
    assert len(expected) >= 200
    diffs = []
    for want in expected:
        got = cli_record(want["constants"], want["argv"])
        if got != want:
            diffs.append((want, got))
    assert not diffs, "\n".join(
        f"{' '.join(want['argv'])}\n  want {want}\n  got  {got}" for want, got in diffs[:5]
    )


def test_cli_csv_output_parses(tmp_path, monkeypatch):
    """Every `--format csv` run of the corpus prints rows as long as its header."""
    monkeypatch.chdir(tmp_path)
    write_cli_files(tmp_path)
    runs = [(env, argv) for env, argv in cli_invocations() if "--format" in argv and "csv" in argv]
    assert len(runs) >= 50
    for constants, argv in runs:
        record = cli_record(constants, argv)
        if record["code"] == cli.EXIT_OK:
            rows = list(csv.reader(io.StringIO(record["stdout"])))
            assert rows and all(len(row) == len(rows[0]) for row in rows), (argv, record["stdout"])


def test_a_recapture_reports_each_changed_case(capsys):
    _report_changes("x.json", {"same": 1, "moved": 2, "gone": 3}, {"same": 1, "moved": 5, "new": 4},
                    lambda old, new: f"{old} -> {new}")
    assert capsys.readouterr().err == "x.json: 3 of 3 cases changed\n  moved: 2 -> 5\n  new: added\n  gone: removed\n"


def test_a_recapture_reports_a_template_added_or_removed_whole_in_one_line(capsys):
    old = {"f(1)": 1, "f(2)": 2, "g(1)": 3, "g(2)": 4, "h(1)": 5}
    new = {"f(1)": 1, "f(2)": 7, "f(3)": 8, "k(1)": 3, "k(2)": 4, "k(3)": 6}
    template = {label: label[0] + "({})" for label in (*old, *new)}
    _report_changes("x.json", old, new, lambda old, new: f"{old} -> {new}", template)
    assert capsys.readouterr().err == (
        "x.json: 8 of 6 cases changed\n  f(2): 2 -> 7\n  f(3): added\n  k({}): added, 3 values\n"
        "  g({}): removed, 2 values\n  h({}): removed, 1 values\n")


def test_the_guard_cases_carry_their_templates():
    corpus = {"values": ["1", "nan"], "m": {"f({})": [["ok", "1"], ["DomainError", "x", None]]}}
    assert _guard_cases(corpus) == (
        {"f(1)": ["ok", "1"], "f(nan)": ["DomainError", "x", None]}, {"f(1)": "f({})", "f(nan)": "f({})"})


def test_a_cli_change_names_the_exit_codes_and_each_field_that_moved():
    old = {"code": 4, "stdout": "", "stderr": "error: a\n", "warnings": []}
    assert _cli_change(old, {**old, "code": 2, "stderr": "error: b\n"}) == (
        "exit 4 -> 2; stderr 'error: a\\n' -> 'error: b\\n'")
    assert _cli_change(old, {**old, "stdout": "x" * 300}) == f"exit 4 -> 4; stdout '' -> '{'x' * 196}..."


def _outcome_text(outcome) -> str:
    if outcome is None:
        return "skipped"
    return outcome[1] if outcome[0] == "ok" else f"{outcome[0]}: {outcome[1]}"


def _cli_label(record: dict) -> str:
    env = f"SATLINK_CONSTANTS={record['constants']} " if record["constants"] else ""
    return env + "satlink " + " ".join(record["argv"])


def _clip(value) -> str:
    text = repr(value)
    return text if len(text) <= 200 else text[:197] + "..."


def _cli_change(old: dict, new: dict) -> str:
    """Old -> new exit code, and each other field of the record that moved."""
    parts = [f"exit {old['code']} -> {new['code']}"]
    for field in ("stdout", "stderr", "warnings", "written"):
        if old.get(field) != new.get(field):
            parts.append(f"{field} {_clip(old.get(field))} -> {_clip(new.get(field))}")
    return "; ".join(parts)


def _report_changes(name: str, old: dict, new: dict, change, template=None) -> None:
    """Print to stderr each case, by label, whose record differs between the
    `old` and `new` {label: record} of golden/<name>, as `change(old, new)` words it.
    `template` maps each label to the template it comes from: a template that
    only one side holds is one line with its number of cases."""
    labels = [*new, *(label for label in old if label not in new)]
    changed = [label for label in labels if old.get(label) != new.get(label)]
    print(f"{name}: {len(changed)} of {len(new)} cases changed", file=sys.stderr)
    template = template or {}
    kept = {template.get(label) for label in old} & {template.get(label) for label in new}
    whole = Counter(template[label] for label in changed if label in template and template[label] not in kept)
    for label in changed:
        if label in template and template[label] not in kept:
            if template[label] in whole:  # the first case of a template only one side holds
                side = "added" if label in new else "removed"
                print(f"  {template[label]}: {side}, {whole.pop(template[label])} values", file=sys.stderr)
        elif label not in old or label not in new:
            print(f"  {label}: {'added' if label in new else 'removed'}", file=sys.stderr)
        else:
            print(f"  {label}: {change(old[label], new[label])}", file=sys.stderr)


def _guard_cases(corpus: dict) -> tuple[dict, dict]:
    """{expression: outcome} and {expression: template} of a guards.json document."""
    outcomes, templates = {}, {}
    for module, rows in corpus.items():
        if module != "values":
            for template, results in rows.items():
                for value, outcome in zip(corpus["values"], results):
                    expr = template.format(value)
                    outcomes[expr], templates[expr] = outcome, template
    return outcomes, templates


def _capture() -> None:
    """Write golden/guards.json and golden/cli.json from the imported satlink,
    and report what changed in each."""
    values = [repr(v) for v in _VALUES]
    corpus = {"values": values}
    for module in sorted(_TEMPLATES):
        corpus[module] = {}
        for template in _TEMPLATES[module]:
            outcomes = corpus[module][template] = []
            for value in values:
                expr = template.format(value)
                try:
                    outcomes.append(guard_outcome(expr))
                except Exception as exc:  # a fault, not a guard: left out and reported
                    outcomes.append(None)
                    print(f"skipped {expr}: {type(exc).__name__}: {exc}", file=sys.stderr)
    records = []
    with tempfile.TemporaryDirectory() as tmp:
        cwd = os.getcwd()
        os.chdir(tmp)
        try:
            write_cli_files(Path(tmp))
            for constants, argv in cli_invocations():
                try:
                    records.append(cli_record(constants, argv))
                except Exception as exc:
                    print(f"skipped {constants} {argv}: {type(exc).__name__}: {exc}", file=sys.stderr)
        finally:
            os.chdir(cwd)
    GOLDEN.mkdir(exist_ok=True)
    if (GOLDEN / "guards.json").is_file():
        (old, old_templates), (new, new_templates) = _guard_cases(_load("guards.json")), _guard_cases(corpus)
        _report_changes("guards.json", old, new, lambda old, new: f"{_outcome_text(old)} -> {_outcome_text(new)}",
                        {**old_templates, **new_templates})
    if (GOLDEN / "cli.json").is_file():
        _report_changes("cli.json", {_cli_label(r): r for r in _load("cli.json")},
                        {_cli_label(r): r for r in json.loads(json.dumps(records))}, _cli_change)
    lines = [f'"values": {json.dumps(values)}']
    for module in sorted(_TEMPLATES):
        rows = [f"  {json.dumps(template)}: {json.dumps(outcomes)}" for template, outcomes in corpus[module].items()]
        lines.append(f'"{module}": {{\n' + ",\n".join(rows) + "\n}")
    (GOLDEN / "guards.json").write_text("{\n" + ",\n".join(lines) + "\n}\n")
    (GOLDEN / "cli.json").write_text(json.dumps(records, indent=1) + "\n")
    print(f"{len(values)} values, {len(records)} invocations", file=sys.stderr)


if __name__ == "__main__":
    _capture()
