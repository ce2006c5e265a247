import copy
import json
import math

import pytest
from pytest import approx

from satlink import scenario as sc
from satlink.capacity import max_spectral_efficiency
from satlink.errors import DomainError, NotFoundError, ParseError, ValidationError
from satlink.quantities import linear_from_db


def _doc(name):
    for doc in sc._FIXTURE_DOCS:
        if doc["name"] == name:
            return copy.deepcopy(doc)
    raise KeyError(name)


class TestTerminalProfiles:
    def test_presets(self):
        ue = sc.terminal_profile("class3-ue")
        assert (ue.gain_dbi, ue.nf_db, ue.eirp_dbm) == (0.0, 7.0, 23.0)
        vsat = sc.terminal_profile("vsat")
        assert (vsat.gain_dbi, vsat.nf_db) == (12.0, 5.0)
        iot = sc.terminal_profile("iot")
        assert (iot.gain_dbi, iot.noise_temp_k, iot.eirp_dbm) == (0.0, 290.0, 23.0)

    def test_preset_override(self):
        t = sc.terminal_profile({"name": "class3-ue", "nf_db": 9.0})
        assert t.nf_db == 9.0
        assert t.gain_dbi == 0.0
        assert t.eirp_dbm == 23.0

    def test_noise_representation_displacement(self):
        t = sc.terminal_profile({"name": "class3-ue", "noise_temp_k": 400.0})
        assert t.nf_db is None
        assert t.noise_temp_k == 400.0

    def test_custom_terminal(self):
        t = sc.terminal_profile({"name": "car", "gain_dbi": 20.0, "noise_temp_k": 150.0})
        assert t.name == "car"

    def test_unknown_preset(self):
        with pytest.raises(NotFoundError):
            sc.terminal_profile("dish-of-unusual-size")

    def test_requires_exactly_one_noise_figure(self):
        with pytest.raises(ValidationError):
            sc.TerminalProfile("x", gain_dbi=0.0)
        with pytest.raises(ValidationError):
            sc.TerminalProfile("x", gain_dbi=0.0, nf_db=7.0, noise_temp_k=290.0)

    def test_unknown_terminal_key(self):
        with pytest.raises(ValidationError):
            sc.terminal_profile({"name": "x", "gain_dbi": 1.0, "nf_db": 3.0, "color": "red"})

    @pytest.mark.parametrize(
        "noise,field",
        [
            ({"nf_db": -3.0}, "nf_db"),
            ({"nf_db": math.nan}, "nf_db"),
            ({"nf_db": math.inf}, "nf_db"),
            ({"noise_temp_k": 0.0}, "noise_temp_k"),
            ({"noise_temp_k": -10.0}, "noise_temp_k"),
            ({"noise_temp_k": math.inf}, "noise_temp_k"),
        ],
    )
    def test_rejects_unphysical_noise(self, noise, field):
        with pytest.raises(ValidationError) as err:
            sc.TerminalProfile("x", gain_dbi=0.0, **noise)
        assert err.value.field == field

    def test_noiseless_figure_allowed(self):
        assert sc.TerminalProfile("x", gain_dbi=0.0, nf_db=0.0).nf_db == 0.0

    def test_non_numeric_mapping_value(self):
        with pytest.raises(ValidationError) as err:
            sc.terminal_profile({"name": "car", "gain_dbi": "abc", "nf_db": 3.0})
        assert err.value.field == "terminal.gain_dbi"


class TestLoadScenario:
    def test_minimal_document(self):
        s = sc.load_scenario({"name": "tiny", "orbit": "LEO"})
        assert s.name == "tiny"
        assert s.cases == ()
        assert s.altitude_km is None

    def test_missing_orbit(self):
        with pytest.raises(ValidationError) as err:
            sc.load_scenario({"name": "x"})
        assert err.value.field == "orbit"

    def test_negative_bandwidth(self):
        with pytest.raises(ValidationError) as err:
            sc.load_scenario({"name": "x", "orbit": "LEO", "bw_dl_mhz": -10.0})
        assert err.value.field == "bw_dl_mhz"

    def test_unknown_key(self):
        with pytest.raises(ValidationError) as err:
            sc.load_scenario({"name": "x", "orbit": "LEO", "altitude": 550.0})
        assert err.value.field == "altitude"

    def test_elevation_range(self):
        with pytest.raises(ValidationError):
            sc.load_scenario({"name": "x", "orbit": "LEO", "elevation_deg": 95.0})

    def test_flat_keys_become_nominal_cases(self):
        s = sc.load_scenario(
            {"name": "x", "orbit": "LEO", "sinr_dl_db": 5.0, "se_ul_bps_hz": 1.0}
        )
        assert [(c.direction, c.label) for c in s.cases] == [("dl", "nominal"), ("ul", "nominal")]

    def test_case_validation(self):
        with pytest.raises(ValidationError):
            sc.load_scenario({"name": "x", "orbit": "LEO", "cases": [{"label": "a"}]})
        with pytest.raises(ValidationError):
            sc.load_scenario(
                {"name": "x", "orbit": "LEO", "cases": [{"direction": "dl", "flavor": "mild"}]}
            )
        with pytest.raises(ValidationError):
            sc.load_scenario({"name": "x", "orbit": "LEO", "cases": [{"direction": "sideways"}]})

    @pytest.mark.parametrize("label", [["a"], {"a": 1}, 3, None], ids=["list", "dict", "number", "null"])
    def test_case_label_must_be_a_string(self, label):
        with pytest.raises(ValidationError, match="case label must be a string") as err:
            sc.load_scenario({"name": "x", "orbit": "LEO", "cases": [{"direction": "dl", "label": label, "sinr_db": 3}]})
        assert err.value.field == "cases[0].label"

    @pytest.mark.parametrize("fields, field, message", [
        ({"terminal": {"gain_dbi": 1.0}}, "terminal.name", "terminal mapping needs a name"),
        ({"terminal": {"name": "x", "nf_db": 1.0}}, "terminal.gain_dbi", "terminal mapping needs gain_dbi"),
        ({"terminal": 3}, "terminal", "terminal must be a preset name or mapping, got int"),
        ({"cases": [3]}, "cases[0]", "each case must be a mapping"),
        ({"description": 3}, "description", "description must be a string"),
        ({"band": ["Ku"]}, "band", "band must be a string"),
        ({"annotations": ["a", 1]}, "annotations", "annotations must be a list of strings"),
        ({"cases": {"direction": "dl"}}, "cases", "cases must be a list"),
    ], ids=["terminal-name", "terminal-gain", "terminal-type", "case-type", "description", "band", "annotations",
            "cases"])
    def test_refused_fields_are_named(self, fields, field, message):
        with pytest.raises(ValidationError) as err:
            sc.load_scenario({"name": "x", "orbit": "LEO", **fields})
        assert type(err.value) is ValidationError and str(err.value) == message and err.value.field == field

    @pytest.mark.parametrize("fields, field", [
        ({"cases": [{"direction": "dl"}, {"direction": "up"}]}, "cases[1].direction"),
        ({"terminal": {"name": "t", "gain_dbi": 0, "nf_db": -1}}, "terminal.nf_db"),
        ({"terminal": {"name": "iot", "noise_temp_k": 0}}, "terminal.noise_temp_k"),
        ({"terminal": {"name": "t", "gain_dbi": 0}}, "terminal.nf_db/noise_temp_k"),
    ], ids=["case-direction", "terminal-nf", "terminal-temperature", "terminal-noise"])
    def test_a_record_refusal_names_its_place_in_the_document(self, fields, field):
        with pytest.raises(ValidationError) as err:
            sc.load_scenario({"name": "x", "orbit": "LEO", **fields})
        assert err.value.field == field

    def test_reuse_must_be_integer(self):
        with pytest.raises(ValidationError):
            sc.load_scenario({"name": "x", "orbit": "LEO", "reuse": 2.5})

    @pytest.mark.parametrize("key", ["reuse", "beams"])
    @pytest.mark.parametrize("count, shown", [(10**400, repr(10**400)), (10**5000, "an integer of 5001 digits")],
                             ids=["400-digits", "5001-digits"])
    def test_a_count_past_the_float_range_is_refused_at_load(self, key, count, shown):
        with pytest.raises(ValidationError) as err:
            sc.load_scenario({"name": "x", "orbit": "LEO", "footprint_radius_km": 500.0, key: count})
        assert (err.value.field, str(err.value)) == (key, f"{key} must lie within the float range, got {shown}")

    @pytest.mark.parametrize("key", ["reuse", "beams"])
    def test_a_count_at_the_float_range_still_loads(self, key):
        assert getattr(sc.load_scenario({"name": "x", "orbit": "LEO", key: 10**308}), key) == 10**308

    @pytest.mark.parametrize("key, message", [
        ("bitrate_bps", "cases[0].bitrate_bps must fit a float in Mb/s, got 5e-324 b/s"),
        ("bw_hz", "cases[0].bw_hz must fit a float in MHz, got 5e-324 Hz"),
    ])
    def test_a_case_figure_that_scales_to_0_is_refused_at_load(self, key, message):
        case = {"direction": "dl", "se_bps_hz": 1, key: 5e-324}
        with pytest.raises(ValidationError) as err:
            sc.load_scenario({"name": "x", "orbit": "LEO", "bw_dl_mhz": 10, "cases": [case]})
        assert (err.value.field, str(err.value)) == (f"cases[0].{key}", message)

    def test_from_file(self, tmp_path):
        path = tmp_path / "s.json"
        path.write_text(json.dumps({"name": "filed", "orbit": "GEO", "altitude_km": 35786.0}))
        assert sc.load_scenario(path).name == "filed"

    def test_parse_error_carries_location(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"name": "x",\n  orbit: "LEO"}')
        with pytest.raises(ParseError) as err:
            sc.load_scenario(path)
        assert err.value.line == 2

    def test_json_text(self):
        s = sc.load_scenario('{"name": "inline", "orbit": "LEO"}\n')
        assert s.name == "inline"

    def test_from_str_path(self, tmp_path):
        path = tmp_path / "s.json"
        path.write_text(json.dumps({"name": "filed", "orbit": "GEO"}))
        assert sc.load_scenario(str(path)).name == "filed"

    @pytest.mark.parametrize("as_source", [lambda p: p, str], ids=["Path", "str"])
    def test_non_utf8_file_is_parse_error(self, tmp_path, as_source):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"\xff\xfe\x00")
        with pytest.raises(ParseError, match="bad.bin: not UTF-8"):
            sc.load_scenario(as_source(path))

    @pytest.mark.parametrize("name", [doc["name"] for doc in sc._FIXTURE_DOCS])
    def test_one_line_fixture_text(self, name):
        # most fixtures are longer than a file name may be (255 bytes)
        s = sc.fixture(name)
        assert sc.load_scenario(json.dumps(sc.scenario_to_doc(s))) == s

    def test_long_one_line_text_is_not_a_path(self):
        with pytest.raises(ParseError):
            sc.load_scenario("x" * 1000)


class TestFixtures:
    def test_eight_fixtures(self):
        fixtures = sc.builtin_fixtures()
        assert len(fixtures) == 8
        assert [s.name for s in fixtures] == [
            "thales",
            "intelsat-haps",
            "inmarsat-geo-iot",
            "echostar-geo",
            "oneweb-leo",
            "intelsat-geo-hts",
            "avanti-geo-hts",
            "hispasat-amazonas-3",
        ]

    def test_thales_fields(self):
        s = sc.fixture("thales")
        assert (s.orbit, s.altitude_km, s.elevation_deg) == ("LEO", 600.0, 30.0)
        assert (s.freq_dl_ghz, s.bw_dl_mhz, s.bw_ul_mhz) == (2.0, 10.0, 0.36)
        dl = next(c for c in s.cases if c.direction == "dl")
        assert (dl.sinr_db, dl.se_bps_hz, dl.bitrate_mbps) == (5.5, 1.35, 13.5)
        assert s.terminal.name == "class3-ue"

    def test_intelsat_haps_fields(self):
        s = sc.fixture("intelsat-haps")
        assert s.beams == 16
        assert s.footprint_radius_km == 50.0
        assert s.margin_db == 4.0
        assert s.terminal.nf_db == 9.0

    def test_oneweb_bitrates(self):
        s = sc.fixture("oneweb-leo")
        rates = {(c.direction, c.label): c.bitrate_mbps for c in s.cases}
        assert rates[("dl", "best")] == 830.0
        assert rates[("ul", "best")] == 830.0
        assert rates[("dl", "worst")] == 140.0

    def test_unknown_fixture(self):
        with pytest.raises(NotFoundError) as err:
            sc.fixture("sputnik")
        assert "thales" in str(err.value)


class TestRunScenario:
    def test_thales_report(self):
        report = sc.run_scenario(sc.fixture("thales"))
        assert report.slant_range_km == approx(1075.09, abs=0.05)

        dl_rate = report.finding("bitrate_bps", "dl")
        assert dl_rate.status == sc.CONSISTENT
        assert dl_rate.computed == approx(13.5e6, rel=1e-12)
        ul_rate = report.finding("bitrate_bps", "ul")
        assert ul_rate.status == sc.CONSISTENT
        assert ul_rate.computed == approx(360e3, rel=1e-12)

        dl_se = report.finding("se_vs_shannon", "dl")
        assert dl_se.status == sc.CONSISTENT
        assert dl_se.computed == approx(2.185, abs=0.005)

        # declared 2 GHz downlink has no S-band downlink allocation
        assert report.finding("band", "dl").status == sc.INCONSISTENT
        assert report.finding("band", "ul").status == sc.CONSISTENT

    def test_inmarsat_bitrate_flagged(self):
        report = sc.run_scenario(sc.fixture("inmarsat-geo-iot"))
        dl = report.finding("bitrate_bps", "dl")
        assert dl.status == sc.INCONSISTENT
        assert dl.computed == approx(134e3, rel=1e-9)
        assert dl.reported == approx(112e3, rel=1e-9)
        assert dl.delta == approx(0.1964, abs=1e-3)
        ul = report.finding("bitrate_bps", "ul")
        assert ul.status == sc.INCONSISTENT
        assert ul.delta == approx(0.0772, abs=1e-3)

    def test_haps_cell_radius(self):
        report = sc.run_scenario(sc.fixture("intelsat-haps"))
        cell = report.finding("cell_radius_km")
        assert cell.status == sc.COMPUTED
        assert cell.computed == 12.5

    def test_haps_cases_consistent(self):
        report = sc.run_scenario(sc.fixture("intelsat-haps"))
        for f in report.findings:
            if f.quantity in ("se_vs_shannon", "bitrate_bps"):
                assert f.status == sc.CONSISTENT, f

    def test_echostar_missing_bandwidth(self):
        report = sc.run_scenario(sc.fixture("echostar-geo"))
        for case_label in ("vsat", "class3-ue"):
            f = report.finding("bitrate_bps", "dl", case_label)
            assert f.status == sc.NOT_COMPUTABLE
            assert f.missing == ("bw_mhz",)
            assert f.computed is None

    def test_oneweb_nothing_fabricated(self):
        report = sc.run_scenario(sc.fixture("oneweb-leo"))
        assert report.finding("slant_range_km").status == sc.NOT_COMPUTABLE
        assert report.finding("slant_range_km").missing == ("elevation_deg",)
        best = report.finding("bitrate_bps", "dl", "best")
        assert best.status == sc.NOT_COMPUTABLE
        assert set(best.missing) == {"se_bps_hz", "bw_mhz"}
        assert best.reported == approx(830e6)
        assert report.finding("se_vs_shannon", "dl", "best").missing == ("sinr_db",)

    def test_hispasat_has_no_band_finding(self):
        report = sc.run_scenario(sc.fixture("hispasat-amazonas-3"))
        assert all(f.quantity != "band" for f in report.findings)

    def test_every_fixture_pair_is_shannon_feasible(self):
        for s in sc.builtin_fixtures():
            for case in s.cases:
                if case.sinr_db is None or case.se_bps_hz is None:
                    continue
                bound = max_spectral_efficiency(linear_from_db(case.sinr_db))
                assert case.se_bps_hz <= bound + 1e-9, (s.name, case.label)

    def test_not_computable_findings_carry_no_values(self):
        for s in sc.builtin_fixtures():
            for f in sc.run_scenario(s).findings:
                if f.status == sc.NOT_COMPUTABLE:
                    assert f.computed is None
                    assert f.missing

    def test_synthetic_shannon_violation(self):
        s = sc.load_scenario(
            {"name": "impossible", "orbit": "LEO", "sinr_dl_db": 0.0, "se_dl_bps_hz": 10.0}
        )
        f = sc.run_scenario(s).finding("se_vs_shannon", "dl")
        assert f.status == sc.INCONSISTENT
        assert f.computed == approx(1.0, rel=1e-12)
        assert f.delta == approx(9.0, rel=1e-9)

    def test_band_computed_when_band_undeclared(self):
        s = sc.load_scenario({"name": "x", "orbit": "LEO", "freq_dl_ghz": 11.7})
        f = sc.run_scenario(s).finding("band", "dl")
        assert f.status == sc.COMPUTED
        assert f.computed == "Ku"

    @pytest.mark.parametrize("fields, message", [
        ({"se_dl_bps_hz": 2, "bw_dl_mhz": 1e305}, "bandwidth 1e+305 MHz is too large for a bandwidth in Hz"),
        ({"cases": [{"direction": "ul", "se_bps_hz": 2, "bw_mhz": 1e305}]},
         "bandwidth 1e+305 MHz is too large for a bandwidth in Hz"),
        ({"freq_dl_ghz": 1e305}, "frequency 1e+305 GHz is too large for a frequency in Hz"),
    ], ids=["bw_dl_mhz", "case-bw_mhz", "freq_dl_ghz"])
    def test_a_value_past_float_max_in_si_units_is_named_as_typed(self, fields, message):
        s = sc.load_scenario({"name": "x", "orbit": "LEO", **fields})
        with pytest.raises(DomainError) as exc:
            sc.run_scenario(s)
        assert str(exc.value) == message

    def test_a_relative_error_past_float_max_is_refused(self):
        s = sc.load_scenario({"name": "x", "orbit": "LEO", "bw_dl_mhz": 10, "se_dl_bps_hz": 1,
                              "bitrate_dl_mbps": 5e-324})
        with pytest.raises(DomainError) as exc:
            sc.run_scenario(s)
        assert str(exc.value) == (
            "bitrate 10000000.0 b/s against reported bitrate 4.940656e-318 b/s is too large for a relative error"
        )

    def test_the_shannon_bound_is_checked_before_the_reported_bitrate(self):
        s = sc.load_scenario({"name": "x", "orbit": "LEO", "cases": [
            {"direction": "dl", "sinr_db": 4000, "bitrate_mbps": 1e305}]})
        with pytest.raises(DomainError, match=r"^dB value 4000\.0 is too large for a linear ratio$"):
            sc.run_scenario(s)

    def test_a_bandwidth_is_converted_only_for_a_computable_bitrate(self):
        s = sc.load_scenario({"name": "x", "orbit": "LEO", "bw_dl_mhz": 1e305, "bitrate_dl_mbps": 1.0})
        f = sc.run_scenario(s).finding("bitrate_bps", "dl")
        assert (f.status, f.reported, f.missing) == (sc.NOT_COMPUTABLE, 1e6, ("se_bps_hz",))

    def test_an_out_of_band_result_is_never_consistent(self):
        s = sc.load_scenario({"name": "x", "orbit": "GEO", "band": "out-of-band (S nearest)", "freq_dl_ghz": 2.0})
        f = sc.run_scenario(s).finding("band", "dl")
        assert (f.status, f.computed, f.reported) == (sc.INCONSISTENT, s.band, s.band)


class TestFieldDeletionFuzz:
    CASES = [
        ("altitude_km", "slant_range_km", None, None),
        ("elevation_deg", "slant_range_km", None, None),
        ("sinr_dl_db", "se_vs_shannon", "dl", None),
        ("bw_dl_mhz", "bitrate_bps", "dl", None),
        ("se_dl_bps_hz", "bitrate_bps", "dl", None),
    ]

    @pytest.mark.parametrize("deleted,quantity,direction,label", CASES)
    def test_deleting_computation_input_flips_finding(self, deleted, quantity, direction, label):
        doc = _doc("thales")
        del doc[deleted]
        report = sc.run_scenario(sc.load_scenario(doc))
        finding = report.finding(quantity, direction, label)
        assert finding.status == sc.NOT_COMPUTABLE
        assert finding.computed is None

    def test_deleting_reported_value_downgrades_to_computed(self):
        doc = _doc("thales")
        del doc["bitrate_dl_mbps"]
        report = sc.run_scenario(sc.load_scenario(doc))
        finding = report.finding("bitrate_bps", "dl")
        assert finding.status == sc.COMPUTED
        assert finding.reported is None


class TestReportSerialization:
    @pytest.mark.parametrize("name", [d["name"] for d in sc._FIXTURE_DOCS])
    def test_round_trip(self, name):
        report = sc.run_scenario(sc.fixture(name))
        assert sc.ScenarioReport.from_json(report.to_json()) == report

    def test_scenario_doc_round_trip(self):
        for s in sc.builtin_fixtures():
            assert sc.load_scenario(sc.scenario_to_doc(s)) == s

    @pytest.mark.parametrize("name", [d["name"] for d in sc._FIXTURE_DOCS])
    def test_to_json_is_json_dumps(self, name):
        report = sc.run_scenario(sc.fixture(name))
        assert report.to_json() == json.dumps(report.to_doc(), indent=2)

    def test_bad_report_json(self):
        with pytest.raises(ParseError):
            sc.ScenarioReport.from_json("{nope")

    def _report_text(self, **fields):
        doc = {"scenario": sc.scenario_to_doc(sc.fixture("thales")), **fields}
        return json.dumps(doc)

    def test_report_that_is_a_list(self):
        with pytest.raises(ParseError, match=r"^report document: wrong shape"):
            sc.ScenarioReport.from_json("[]")

    def test_report_without_scenario(self):
        with pytest.raises(ParseError, match=r"^report document: missing key 'scenario'$"):
            sc.ScenarioReport.from_json("{}")

    def test_report_findings_not_a_list(self):
        with pytest.raises(ParseError, match=r"^report document: wrong shape"):
            sc.ScenarioReport.from_json(self._report_text(findings=3))

    def test_report_finding_not_a_mapping(self):
        with pytest.raises(ParseError, match=r"^report document: wrong shape"):
            sc.ScenarioReport.from_json(self._report_text(findings=[1]))

    def test_report_finding_without_quantity(self):
        with pytest.raises(ParseError, match=r"^report document: missing key 'quantity'$"):
            sc.ScenarioReport.from_json(self._report_text(findings=[{}]))

    def test_report_with_long_integer(self):
        text = '{"slant_range_km": 1' + "0" * 5000 + "}"
        with pytest.raises(ParseError, match=r"^report document: Exceeds the limit \(4300 digits\)"):
            sc.ScenarioReport.from_json(text)

    def test_report_scenario_that_names_a_file(self, tmp_path):
        path = tmp_path / "s.json"
        path.write_text(json.dumps(sc.scenario_to_doc(sc.fixture("thales"))))
        for scenario in (str(path), path.read_text()):
            with pytest.raises(ParseError, match=r"^scenario document must be a JSON object$"):
                sc.ScenarioReport.from_json(json.dumps({"scenario": scenario}))

    def test_finding_lookup_missing(self):
        report = sc.run_scenario(sc.fixture("thales"))
        with pytest.raises(NotFoundError):
            report.finding("launch_window")
