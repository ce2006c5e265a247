import ast
import csv
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from pytest import approx

import satlink
from satlink import cli, geometry, linkbudget

SRC = str(Path(satlink.__file__).resolve().parents[1])


@pytest.fixture(autouse=True)
def _default_constants(monkeypatch):
    monkeypatch.delenv("SATLINK_CONSTANTS", raising=False)


def run(capsys, *argv):
    try:
        code = cli.main(list(argv))
    except SystemExit as exc:  # the parser: every usage error
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--format", "json")
    assert code == 0, err
    return json.loads(out)


def canon(value) -> str:
    return f"{value:.6g}" if isinstance(value, (int, float)) else str(value)


class TestTcp:
    def test_worked_case(self, capsys):
        doc = run_json(capsys, "tcp", "--mss", "1500", "--rtt-ms", "200", "--ploss", "1e-9")
        assert doc["throughput_bps"] == approx(1.897e9, rel=1e-3)

    def test_table_rounds_for_humans(self, capsys):
        code, out, _ = run(capsys, "tcp", "--mss", "1500", "--rtt-ms", "200", "--ploss", "1e-9")
        assert code == 0
        assert "1.9 Gb/s" in out

    def test_variants(self, capsys):
        doc = run_json(capsys, "tcp", "--mss", "1500", "--rtt-ms", "400", "--ploss", "1e-9")
        assert doc["throughput_bps"] == approx(948.7e6, rel=1e-3)
        doc = run_json(capsys, "tcp", "--mss", "1500", "--rtt-ms", "400", "--ploss", "1e-6")
        assert doc["throughput_bps"] == approx(30e6, rel=1e-4)


class TestMultibeamAndCost:
    def test_worked_case(self, capsys):
        doc = run_json(
            capsys,
            "multibeam", "--se", "2", "--bw-ghz", "1.5", "--pol", "2",
            "--beams", "60", "--colors", "7", "--guard", "0.1",
        )
        assert doc["capacity_bps"] == approx(46.29e9, rel=1e-3)

    def test_cost(self, capsys):
        doc = run_json(capsys, "cost", "--rtot-gbps", "46")
        assert doc["cost_per_gbps"] == approx(5.63, abs=0.01)


class TestModcod:
    def test_selection_with_bitrate(self, capsys):
        doc = run_json(capsys, "modcod", "--snr-db", "1.41", "--bw-khz", "1")
        assert doc["modcod"] == "CPSK 1/2"
        assert doc["margin_db"] == approx(0.41, abs=1e-6)
        assert doc["bitrate_bps"] == approx(600.0, rel=1e-9)

    def test_below_floor_exits_3(self, capsys):
        code, _, err = run(capsys, "modcod", "--snr-db", "-3")
        assert code == 3
        assert "-2" in err  # the catalog floor requirement

    def test_custom_catalog_file(self, capsys, tmp_path):
        path = tmp_path / "catalog.csv"
        path.write_text("name,se_bps_hz,snr_qef_db\nslow,0.3,-1\nfast,2.0,12\n")
        doc = run_json(capsys, "modcod", "--snr-db", "13", "--catalog", str(path))
        assert doc["modcod"] == "fast"

    def test_custom_catalog_must_be_shannon_dominant(self, capsys, tmp_path):
        path = tmp_path / "catalog.csv"
        path.write_text("name,se_bps_hz,snr_qef_db\ncheat,2.0,0\n")
        code, _, err = run(capsys, "modcod", "--snr-db", "5", "--catalog", str(path))
        assert code == 1
        assert "Shannon" in err


class TestCapacity:
    def test_shannon(self, capsys):
        doc = run_json(capsys, "capacity", "--snr-linear", "1.41", "--bw-khz", "1")
        assert doc["capacity_bps"] == approx(1269.0, abs=0.5)
        assert doc["se_max_bps_hz"] == approx(1.27, abs=0.005)

    def test_needs_exactly_one_snr(self, capsys):
        code, _, err = run(capsys, "capacity", "--bw-khz", "1")
        assert code == 2
        code, _, err = run(
            capsys, "capacity", "--bw-khz", "1", "--snr-db", "1", "--snr-linear", "2"
        )
        assert code == 2


class TestLinkBudget:
    ARGS = [
        "linkbudget",
        "--distance-km", "21000",
        "--freq-ghz", "2",
        "--power-w", "26.6",
        "--gain-dbi", "13",
        "--terminal", "class3-ue",
        "--bw-khz", "1",
        "--atm-loss-db", "9.6",
    ]

    def test_exact_chain(self, capsys):
        doc = run_json(capsys, *self.ARGS)
        assert doc["snr_db"] == approx(0.685, abs=0.005)
        assert doc["received_power_w"] == approx(1.88e-17, rel=1e-2)

    def test_rounded_components_print_classic_ledger(self, capsys):
        code, out, _ = run(
            capsys,
            "linkbudget",
            "--distance-km", "21000",
            "--freq-ghz", "2",
            "--eirp-dbw", "27.4",
            "--g-over-t-dbk", "-30",
            "--bw-khz", "1",
            "--atm-loss-db", "9.6",
        )
        assert code == 0
        snr_line = next(line for line in out.splitlines() if line.startswith("snr_db"))
        assert snr_line.split()[-1] == "1.5"

    def test_missing_frequency_exits_2(self, capsys):
        code, _, err = run(
            capsys, "linkbudget", "--distance-km", "21000", "--eirp-dbw", "27.4",
            "--g-over-t-dbk", "-30", "--bw-khz", "1",
        )
        assert code == 2
        assert "freq" in err

    def test_config_file(self, capsys, tmp_path):
        cfg = tmp_path / "budget.json"
        cfg.write_text(json.dumps({
            "altitude_km": 600.0,
            "elevation_deg": 30.0,
            "freq_ghz": 2.0,
            "power_w": 26.6,
            "gain_dbi": 13.0,
            "rx_gain_dbi": 0.0,
            "nf_db": 7.0,
            "bw_khz": 1.0,
        }))
        doc = run_json(capsys, "linkbudget", "--config", str(cfg))
        assert doc["fspl_db"] == approx(159.09, abs=0.05)

    def test_unknown_config_key_is_domain_error(self, capsys, tmp_path):
        cfg = tmp_path / "budget.json"
        cfg.write_text(json.dumps({"frequency": 2.0}))
        code, _, err = run(capsys, "linkbudget", "--config", str(cfg))
        assert code == 1

    @pytest.mark.parametrize(
        "key,value",
        [
            ("distance_km", "far"),
            ("eirp_dbw", None),
            ("bw_khz", True),
            ("freq_ghz", [2.0]),
            ("terminal", {"name": "car", "gain_dbi": "abc", "nf_db": 3.0}),
        ],
    )
    def test_non_numeric_config_value_is_validation_error(self, capsys, tmp_path, key, value):
        doc = {"distance_km": 1000.0, "freq_ghz": 2.0, "eirp_dbw": 40.0, "terminal": "vsat", "bw_khz": 1.0}
        doc[key] = value
        cfg = tmp_path / "budget.json"
        cfg.write_text(json.dumps(doc))
        code, _, err = run(capsys, "linkbudget", "--config", str(cfg))
        assert code == 1
        assert err.startswith("error:") and key in err
        assert "Traceback" not in err

    def test_huge_loss_is_domain_error(self, capsys):
        code, out, err = run(capsys, *self.ARGS[:-1], "5000")
        assert (code, out) == (1, "")
        assert err.startswith("error:") and "5000" in err
        assert "Traceback" not in err

    def test_json_and_table_agree_at_six_digits(self, capsys):
        doc = run_json(capsys, *self.ARGS)
        code, out, _ = run(capsys, *self.ARGS, "--precise")
        assert code == 0
        table = dict(line.split(None, 1) for line in out.strip().splitlines())
        for key, value in doc.items():
            assert table[key].strip() == canon(value), key


class TestOutputEquivalence:
    COMMANDS = [
        ["tcp", "--mss", "1500", "--rtt-ms", "200", "--ploss", "1e-9"],
        ["multibeam", "--se", "2", "--bw-ghz", "1.5", "--pol", "2",
         "--beams", "60", "--colors", "7", "--guard", "0.1"],
        ["antenna", "select", "--cell-radius-km", "50", "--altitude-km", "500"],
        ["geometry", "slant", "--altitude-km", "600", "--elevation-deg", "30"],
        ["capacity", "--snr-linear", "1.41", "--bw-khz", "1"],
    ]

    @pytest.mark.parametrize("argv", COMMANDS, ids=lambda a: a[0])
    def test_json_table_and_csv_numerics_match(self, capsys, argv):
        doc = run_json(capsys, *argv)
        code, out, _ = run(capsys, *argv, "--precise")
        assert code == 0
        table = dict(line.split(None, 1) for line in out.strip().splitlines())
        code, out, _ = run(capsys, *argv, "--format", "csv")
        assert code == 0
        header, row = out.strip().splitlines()
        csv_values = dict(zip(header.split(","), row.split(",")))
        for key, value in doc.items():
            assert table[key].strip() == canon(value), key
            assert csv_values[key] == canon(value), key


class TestAntenna:
    def test_select_from_cell(self, capsys):
        doc = run_json(
            capsys, "antenna", "select", "--cell-radius-km", "50", "--altitude-km", "500"
        )
        assert doc["array"] == "planar-8x8"
        assert doc["required_hpbw_deg"] == approx(11.42, abs=0.01)
        assert doc["peak_gain_dbi"] == approx(23.03, abs=0.01)
        assert doc["edge_gain_dbi"] == approx(20.02, abs=0.01)

    def test_select_needs_inputs(self, capsys):
        code, _, err = run(capsys, "antenna", "select")
        assert code == 2

    def test_pattern_to_file(self, capsys, tmp_path):
        out_file = tmp_path / "pattern.csv"
        code, _, _ = run(capsys, "antenna", "pattern", "--elements", "5", "--out", str(out_file))
        assert code == 0
        lines = out_file.read_text().strip().splitlines()
        assert lines[0] == "theta_deg,psi_rad,amplitude,power_db"
        assert len(lines) == 1 + 1801
        amplitudes = [float(line.split(",")[2]) for line in lines[1:]]
        assert max(amplitudes) == approx(1.0, abs=1e-9)

    def test_pattern_write_failure_exits_4(self, capsys, tmp_path):
        target = tmp_path / "missing-dir" / "pattern.csv"
        code, _, err = run(capsys, "antenna", "pattern", "--elements", "5", "--out", str(target))
        assert code == 4

    def test_table_has_eight_rows(self, capsys):
        code, out, _ = run(capsys, "antenna", "table", "--format", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 1 + 8
        assert lines[1].startswith("isotropic")


class TestConvert:
    def test_db_linear(self, capsys):
        assert run_json(capsys, "convert", "db", "--linear", "19.95")["db"] == approx(13.0, abs=1e-3)
        assert run_json(capsys, "convert", "linear", "--db", "13")["linear"] == approx(19.95, abs=5e-3)

    def test_power(self, capsys):
        doc = run_json(capsys, "convert", "power", "--dbm", "23")
        assert doc["watts"] == approx(0.19953, abs=1e-4)

    def test_noise_temp(self, capsys):
        doc = run_json(capsys, "convert", "noise-temp", "--nf-db", "7")
        assert doc["noise_temp_k"] == approx(1163.4, abs=0.1)

    def test_wavelength(self, capsys):
        doc = run_json(capsys, "convert", "wavelength", "--freq-ghz", "2")
        assert doc["wavelength_m"] == approx(0.15, rel=1e-9)

    def test_band_lookup(self, capsys):
        code, out, _ = run(capsys, "convert", "band", "--freq-mhz", "1990", "--direction", "uplink")
        assert code == 0
        assert "band  S" in out

    def test_out_of_band_exits_1(self, capsys):
        code, _, err = run(
            capsys, "convert", "band", "--freq-ghz", "100", "--direction", "downlink"
        )
        assert code == 1
        assert "nearest" in err

    def test_bands_export(self, capsys, tmp_path):
        out_file = tmp_path / "bands.csv"
        code, _, _ = run(capsys, "convert", "bands", "--out", str(out_file))
        assert code == 0
        assert out_file.read_text().startswith("band,orbit,direction,low_MHz,high_MHz")


class TestGeometry:
    def test_slant(self, capsys):
        doc = run_json(capsys, "geometry", "slant", "--altitude-km", "600", "--elevation-deg", "30")
        assert doc["slant_range_km"] == approx(1075.09, abs=0.05)

    def test_footprint(self, capsys):
        doc = run_json(capsys, "geometry", "footprint", "--sats-per-orbit", "22")
        assert doc["footprint_diameter_km"] == approx(1821.6, abs=0.1)
        assert doc["coverage_fraction"] == approx(0.112, abs=0.001)

    def test_cell(self, capsys):
        doc = run_json(
            capsys, "geometry", "cell", "--parent-radius-km", "50", "--beams", "16",
            "--altitude-km", "500",
        )
        assert doc["cell_radius_km"] == 12.5
        assert doc["required_hpbw_deg"] == approx(2.862, abs=0.005)

    def test_domain_error_exits_1(self, capsys):
        code, _, _ = run(capsys, "geometry", "slant", "--altitude-km", "-5", "--elevation-deg", "30")
        assert code == 1


class TestConstellation:
    def test_list(self, capsys):
        code, out, _ = run(capsys, "constellation", "list", "--format", "csv")
        assert code == 0
        assert len(out.strip().splitlines()) == 1 + 10

    def test_stats(self, capsys):
        doc = run_json(capsys, "constellation", "stats", "S1")
        assert doc["footprint_diameter_km"] == approx(1821.59, abs=0.01)
        assert doc["total_satellites"] == 1584

    def test_unknown_shell_exits_2(self, capsys):
        code, _, err = run(capsys, "constellation", "stats", "X9")
        assert code == 2
        assert "S1" in err


class TestScenario:
    def test_run_thales_table(self, capsys):
        code, out, _ = run(capsys, "scenario", "run", "thales")
        assert code == 0
        assert "thales" in out
        bitrate_lines = [l for l in out.splitlines() if "bitrate_bps" in l and " dl " in f" {l} "]
        assert any("consistent" in l for l in bitrate_lines)

    def test_run_thales_json(self, capsys):
        doc = run_json(capsys, "scenario", "run", "thales")
        assert doc["slant_range_km"] == approx(1075.09, abs=0.05)
        statuses = {
            (f["quantity"], f.get("direction"), f.get("label")): f["status"]
            for f in doc["findings"]
        }
        assert statuses[("bitrate_bps", "dl", "nominal")] == "consistent"

    def test_run_scenario_file(self, capsys, tmp_path):
        path = tmp_path / "custom.json"
        path.write_text(json.dumps({
            "name": "custom",
            "orbit": "LEO",
            "altitude_km": 550.0,
            "elevation_deg": 45.0,
        }))
        doc = run_json(capsys, "scenario", "run", str(path))
        assert doc["scenario"]["name"] == "custom"

    def test_missing_file_exits_2(self, capsys):
        code, _, err = run(capsys, "scenario", "run", "missing.json")
        assert code == 2

    def test_unknown_fixture_lists_names(self, capsys):
        code, _, err = run(capsys, "scenario", "run", "zeppelin")
        assert code == 2
        assert "thales" in err

    def test_a_name_too_long_for_a_file_is_an_unknown_fixture(self, capsys):
        name = "z" * 300  # longer than a file name may be (ENAMETOOLONG)
        code, _, err = run(capsys, "scenario", "run", name)
        assert code == 2
        assert err.startswith(f"error: unknown fixture '{name}'; available: ")

    def test_list(self, capsys):
        code, out, _ = run(capsys, "scenario", "list", "--format", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 1 + 8
        assert lines[1].startswith("thales")

    def test_run_csv_round_trips_quoted_fields(self, capsys, tmp_path):
        tricky = 'a, "b"\nc'
        path = tmp_path / "tricky.json"
        path.write_text(json.dumps({
            "name": tricky,
            "orbit": "LEO",
            "altitude_km": 550.0,
            "elevation_deg": 45.0,
            "cases": [{"direction": "dl", "label": tricky, "sinr_db": 3.0, "bw_mhz": 1.0}],
        }))
        code, out, err = run(capsys, "scenario", "run", str(path), "--format", "csv")
        assert code == 0, err
        rows = list(csv.DictReader(io.StringIO(out)))
        findings = run_json(capsys, "scenario", "run", str(path))["findings"]
        keys = ("quantity", "direction", "label", "status")
        assert [[row[k] for k in keys] for row in rows] == [[f.get(k) or "" for k in keys] for f in findings]
        assert tricky in {row["label"] for row in rows}

    def test_run_table_escapes_control_characters(self, capsys, tmp_path):
        path = tmp_path / "controls.json"
        path.write_text(json.dumps({
            "name": "n\n1\t2",
            "orbit": "LEO",
            "description": "d\r\n\x1b[31m\x7f",
            "altitude_km": 550.0,
            "elevation_deg": 45.0,
            "annotations": ["first\nnote", "second\tnote"],
            "cases": [{"direction": "dl", "label": "l\n\t\x00", "sinr_db": 3.0, "bw_mhz": 1.0}],
        }))
        findings = run_json(capsys, "scenario", "run", str(path))["findings"]
        code, out, err = run(capsys, "scenario", "run", str(path))
        assert code == 0, err
        # scenario, about, slant range, two notes and a blank line; a header and one line per finding
        lines = out.split("\n")
        assert lines.pop() == ""
        assert len(lines) == 6 + 1 + len(findings)
        assert lines[:2] == ["scenario  n\\n1\\t2 (LEO)", "about     d\\r\\n\\x1b[31m\\x7f"]
        assert lines[3:6] == ["note      first\\nnote", "note      second\\tnote", ""]
        assert sum("l\\n\\t\\x00" in line for line in lines[7:]) == 2
        assert not any(c in out for c in "\t\r\x1b\x7f\x00")

    def test_invalid_scenario_file_is_domain_error(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text(json.dumps({"name": "broken", "orbit": "LEO", "bw_dl_mhz": -1.0}))
        code, _, err = run(capsys, "scenario", "run", str(path))
        assert code == 1
        assert "bw_dl_mhz" in err


class TestConstantsOverride:
    def test_env_constants_change_wavelength(self, capsys, tmp_path, monkeypatch):
        path = tmp_path / "constants.json"
        path.write_text(json.dumps({"c_m_per_s": 299792458.0}))
        monkeypatch.setenv("SATLINK_CONSTANTS", str(path))
        doc = run_json(capsys, "convert", "wavelength", "--freq-ghz", "2")
        assert doc["wavelength_m"] == approx(0.149896, abs=1e-6)

    def test_bad_constants_file(self, capsys, tmp_path, monkeypatch):
        path = tmp_path / "constants.json"
        path.write_text("{broken")
        monkeypatch.setenv("SATLINK_CONSTANTS", str(path))
        code, _, err = run(capsys, "convert", "wavelength", "--freq-ghz", "2")
        assert code == 1

    @pytest.mark.parametrize("value", ["abc", None, "3e8", True])
    def test_non_numeric_constant_names_the_key(self, capsys, tmp_path, monkeypatch, value):
        path = tmp_path / "constants.json"
        path.write_text(json.dumps({"c_m_per_s": value}))
        monkeypatch.setenv("SATLINK_CONSTANTS", str(path))
        code, out, err = run(capsys, *TestLinkBudget.ARGS)
        assert (code, out) == (1, "")
        assert err == f"error: c_m_per_s must be a number, got {value!r}\n"


class TestNonUtf8File:
    @pytest.fixture
    def bad(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"\xff\xfe\x00")
        return path

    @staticmethod
    def assert_names_file(result, path):
        code, out, err = result
        assert (code, out) == (1, "")
        assert err.startswith("error:") and str(path) in err
        assert "Traceback" not in err

    def test_scenario_file(self, capsys, bad):
        self.assert_names_file(run(capsys, "scenario", "run", str(bad)), bad)

    def test_modcod_catalog(self, capsys, bad):
        self.assert_names_file(run(capsys, "modcod", "--snr-db", "3", "--catalog", str(bad)), bad)

    def test_constants_file(self, capsys, bad, monkeypatch):
        monkeypatch.setenv("SATLINK_CONSTANTS", str(bad))
        self.assert_names_file(run(capsys, "convert", "wavelength", "--freq-ghz", "2"), bad)


class TestUsage:
    def test_no_command_prints_help(self, capsys):
        code, _, err = run(capsys)
        assert code == 2

    def test_subcommand_without_action(self, capsys):
        code, _, _ = run(capsys, "antenna")
        assert code == 2


class TestRefusedExtremes:
    """Inputs that used to end in an OverflowError traceback."""

    HUGE = "1" + "0" * 400  # a JSON integer too large for a float

    @staticmethod
    def assert_refused(result, message):
        code, out, err = result
        assert (code, out) == (1, "")
        assert err.startswith(f"error: {message}") and "Traceback" not in err

    def test_huge_integer_in_scenario_file(self, capsys, tmp_path):
        path = tmp_path / "big.json"
        path.write_text(f'{{"name": "x", "orbit": "LEO", "altitude_km": {self.HUGE}}}')
        self.assert_refused(run(capsys, "scenario", "run", str(path)), "altitude_km must be finite, got 1000")

    def test_huge_integer_in_constants_file(self, capsys, tmp_path, monkeypatch):
        path = tmp_path / "constants.json"
        path.write_text(f'{{"c_m_per_s": {self.HUGE}}}')
        monkeypatch.setenv("SATLINK_CONSTANTS", str(path))
        self.assert_refused(run(capsys, "convert", "wavelength", "--freq-ghz", "2"), "c_m_per_s must be finite")

    def test_huge_integer_in_budget_config(self, capsys, tmp_path):
        path = tmp_path / "budget.json"
        path.write_text(f'{{"distance_km": {self.HUGE}, "freq_ghz": 2}}')
        self.assert_refused(run(capsys, "linkbudget", "--config", str(path)), "distance_km must be finite")

    @pytest.mark.parametrize("nf_db", ["5000", "1e308"])
    def test_huge_noise_figure(self, capsys, nf_db):
        message = f"noise figure {float(nf_db)!r} dB is too large for a noise temperature"
        self.assert_refused(run(capsys, "convert", "noise-temp", "--nf-db", nf_db), message)
        budget = ("linkbudget", "--distance-km", "1000", "--freq-ghz", "2", "--eirp-dbw", "40",
                  "--rx-gain-dbi", "0", "--nf-db", nf_db, "--bw-mhz", "1")
        self.assert_refused(run(capsys, *budget), message)

    @pytest.mark.parametrize("resolution", ["1e-320", "1e-6", "0.000999"])
    def test_pattern_finer_than_the_row_limit(self, capsys, resolution):
        argv = ("antenna", "pattern", "--elements", "8", "--resolution-deg", resolution)
        self.assert_refused(run(capsys, *argv), f"resolution must be >= 0.001 degrees, got {float(resolution)!r}")


class TestRefusedDocumentsAndExtremes:
    """Inputs that used to end in a traceback or in nan rows."""

    LONG = "1" + "0" * 5000  # more digits than int() converts from a string
    DIGITS = "Exceeds the limit (4300 digits) for integer string conversion: value has 5001 digits\n"

    @pytest.mark.parametrize("spacing", ["1e308", "1e307"])  # 2*pi*spacing overflows; N*psi overflows
    def test_pattern_spacing_too_large(self, capsys, spacing):
        argv = ("antenna", "pattern", "--elements", "4", "--spacing", spacing, "--resolution-deg", "45")
        culprits = {
            "1e308": "spacing 1e+308 wavelengths is",
            "1e307": "element count 4 and spacing 1e+307 wavelengths are",
        }
        expected = f"error: {culprits[spacing]} too large for a pattern cut\n"
        assert run(capsys, *argv) == (1, "", expected)

    def test_pattern_element_count_too_large(self, capsys):
        n = "1" + "0" * 308  # inside the float range, but N*2*pi*spacing is not
        expected = f"error: element count {n} and spacing 0.5 wavelengths are too large for a pattern cut\n"
        assert run(capsys, "antenna", "pattern", "--elements", n, "--resolution-deg", "45") == (1, "", expected)

    def test_long_integer_in_scenario_file(self, capsys, tmp_path):
        path = tmp_path / "long.json"
        path.write_text(f'{{"name": "x", "orbit": "LEO", "altitude_km": {self.LONG}}}')
        assert run(capsys, "scenario", "run", str(path)) == (1, "", f"error: {path}: {self.DIGITS}")

    def test_long_integer_in_constants_file(self, capsys, tmp_path, monkeypatch):
        path = tmp_path / "constants.json"
        path.write_text(f'{{"c_m_per_s": {self.LONG}}}')
        monkeypatch.setenv("SATLINK_CONSTANTS", str(path))
        assert run(capsys, "convert", "wavelength", "--freq-ghz", "2") == (1, "", f"error: {path}: {self.DIGITS}")

    def test_long_integer_in_budget_config(self, capsys, tmp_path):
        path = tmp_path / "budget.json"
        path.write_text(f'{{"distance_km": {self.LONG}, "freq_ghz": 2}}')
        assert run(capsys, "linkbudget", "--config", str(path)) == (1, "", f"error: {path}: {self.DIGITS}")

    def test_deeply_nested_budget_config(self, capsys, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000 + "]" * 100_000)
        code, out, err = run(capsys, "linkbudget", "--config", str(path))
        assert (code, out) == (1, "") and err.startswith(f"error: {path}: maximum recursion depth exceeded")

    def test_budget_config_not_utf8(self, capsys, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b'{"distance_km": "\xff\xfe"}')
        expected = f"error: {path}: not UTF-8 text (invalid start byte at byte 17)\n"
        assert run(capsys, "linkbudget", "--config", str(path)) == (1, "", expected)

    def test_received_power_past_float_max(self, capsys):
        argv = ("linkbudget", "--distance-km", "1000", "--freq-ghz", "12", "--bw-mhz", "1", "--power-w", "1e300",
                "--gain-dbi", "100", "--rx-gain-dbi", "100", "--nf-db", "1", "--format", "json")
        expected = ("error: received power of 1e+300 W through gains 10000000000.0 and 10000000000.0 is too large "
                    "for the Friis equation\n")
        assert run(capsys, *argv) == (1, "", expected)

    def test_path_loss_underflow(self, capsys):
        argv = ("linkbudget", "--distance-km", "1e-300", "--freq-ghz", "1e-300", "--eirp-dbw", "40",
                "--g-over-t-dbk", "1", "--bw-mhz", "1")
        expected = "error: path loss 4*pi*d*f/c underflows to 0 for distance 1e-297 m and frequency 1e-291 Hz\n"
        assert run(capsys, *argv) == (1, "", expected)


class TestFlagsBeatConfig:
    """A linkbudget flag replaces every form of its quantity in --config."""

    CONFIG = {"distance_km": 1000, "freq_ghz": 2, "eirp_dbw": 40, "g_over_t_dbk": 0, "bw_mhz": 1}

    @pytest.fixture
    def cfg(self, tmp_path):
        path = tmp_path / "budget.json"
        path.write_text(json.dumps(self.CONFIG))
        return str(path)

    def test_frequency_flag_beats_config_frequency(self, capsys, cfg):
        doc = run_json(capsys, "linkbudget", "--config", cfg, "--freq-mhz", "1500")
        assert doc["fspl_db"] == float(canon(linkbudget.fspl(1e6, 1.5e9)))

    def test_altitude_and_elevation_flags_beat_config_distance(self, capsys, cfg):
        doc = run_json(capsys, "linkbudget", "--config", cfg, "--altitude-km", "500", "--elevation-deg", "30")
        distance_m = 1e3 * geometry.slant_range_exact(500.0, math.radians(30.0))
        assert doc["fspl_db"] == float(canon(linkbudget.fspl(distance_m, 2e9)))

    def test_receiver_flags_beat_config_g_over_t(self, capsys, cfg):
        doc = run_json(capsys, "linkbudget", "--config", cfg, "--rx-gain-dbi", "3", "--noise-temp-k", "400")
        assert doc["g_over_t_dbk"] == float(canon(linkbudget.g_over_t(3.0, 400.0)))

    def test_a_lone_half_of_a_form_does_not_fall_back_to_the_config(self, capsys, cfg):
        code, out, err = run(capsys, "linkbudget", "--config", cfg, "--power-w", "10")
        assert (code, out) == (2, "")
        assert err.splitlines()[-1] == "satlink linkbudget: error: missing parameter: eirp_dbw (or power_w + gain_dbi)"


class TestClosedStdout:
    """A reader that closes stdout unread ends the run quietly."""

    @pytest.mark.parametrize("argv, unbuffered", [
        (("scenario", "run", "thales", "--format", "json"), ""),
        (("convert", "db", "--linear", "2"), ""),
        (("antenna", "pattern", "--elements", "4"), ""),
        (("convert", "band", "--freq-mhz", "1990", "--direction", "uplink"), "1"),  # fails in the preamble
    ])
    def test_exits_0_without_a_message(self, argv, unbuffered):
        read_end, write_end = os.pipe()
        os.close(read_end)  # closed before the child writes a byte
        env = {**os.environ, "PYTHONPATH": SRC, "PYTHONUNBUFFERED": unbuffered}
        env.pop("SATLINK_CONSTANTS", None)
        try:
            proc = subprocess.run([sys.executable, "-m", "satlink.cli", *argv], stdout=write_end,
                                  stderr=subprocess.PIPE, env=env, timeout=120)
        finally:
            os.close(write_end)
        assert (proc.returncode, proc.stderr) == (0, b"")


def test_only_emit_main_and_run_write_stdout():
    """`_emit` writes every stdout line, `main` every refusal and `run` the last flush:
    no other code in cli.py calls print or names sys.stdout."""
    tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
    writers = {
        id(node) for function in tree.body
        if isinstance(function, ast.FunctionDef) and function.name in ("_emit", "main", "run")
        for node in ast.walk(function)
    }
    others = [
        node.lineno for node in ast.walk(tree) if id(node) not in writers and (
            isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "print"
            or isinstance(node, ast.Attribute) and node.attr == "stdout"
            and isinstance(node.value, ast.Name) and node.value.id == "sys"
        )
    ]
    assert not others, f"cli.py writes stdout outside _emit, main and run, at lines {others}"
