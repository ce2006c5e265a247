import json
import math

import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from pytest import approx

from satlink import antenna, capacity, constellation, geometry, scenario
from satlink import quantities as q
from satlink.errors import DomainError, OutOfBandError, ParseError, SatlinkError, ValidationError


class TestDbConversions:
    def test_identity(self):
        assert q.db_from_linear(1.0) == 0.0
        assert q.linear_from_db(0.0) == 1.0

    def test_goldens(self):
        assert q.db_from_linear(19.95) == approx(13.0, abs=1e-3)
        assert q.db_from_linear(26.6) == approx(14.249, abs=1e-3)
        assert q.linear_from_db(13.0) == approx(19.95, abs=5e-3)
        assert q.linear_from_db(1.5) == approx(1.41, abs=5e-3)

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.inf, math.nan, "x"])
    def test_db_from_linear_rejects(self, bad):
        with pytest.raises(DomainError):
            q.db_from_linear(bad)

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan, None])
    def test_linear_from_db_rejects(self, bad):
        with pytest.raises(DomainError):
            q.linear_from_db(bad)

    @given(st.floats(min_value=-20.0, max_value=20.0))
    def test_round_trip(self, exponent):
        x = 10.0**exponent
        assert q.linear_from_db(q.db_from_linear(x)) == approx(x, rel=1e-12)


class TestConstants:
    def test_defaults(self):
        c = q.DEFAULT_CONSTANTS
        assert c.c_m_per_s == 3.0e8
        assert c.boltzmann_j_per_k == 1.380649e-23
        assert c.earth_radius_km == 6371.0
        assert c.earth_perimeter_km == 40075.0
        assert c.earth_surface_km2 == 510.1e6
        assert c.t_ref_k == 290.0

    def test_boltzmann_db_view(self):
        assert q.DEFAULT_CONSTANTS.boltzmann_dbw_per_k_hz == approx(-228.6, abs=0.05)

    def test_cached_boltzmann_is_not_a_field(self):
        a, b = q.PhysicalConstants(boltzmann_j_per_k=1.4e-23), q.PhysicalConstants(boltzmann_j_per_k=1.4e-23)
        before = repr(a)
        assert a.boltzmann_dbw_per_k_hz == q.db_from_linear(1.4e-23)
        assert repr(a) == before
        assert a == b and hash(a) == hash(b)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValidationError):
            q.PhysicalConstants(c_m_per_s=0.0)

    def test_from_mapping_rejects_unknown_keys(self):
        with pytest.raises(ValidationError) as err:
            q.PhysicalConstants.from_mapping({"speed": 1.0})
        assert err.value.field == "speed"

    def test_from_file(self, tmp_path):
        path = tmp_path / "constants.json"
        path.write_text(json.dumps({"c_m_per_s": 299792458.0}))
        c = q.PhysicalConstants.from_file(path)
        assert c.c_m_per_s == 299792458.0
        assert c.earth_radius_km == 6371.0

    def test_from_file_malformed(self, tmp_path):
        path = tmp_path / "constants.json"
        path.write_text("{not json")
        with pytest.raises(ParseError):
            q.PhysicalConstants.from_file(path)


class TestNoiseTemperature:
    def test_goldens(self):
        assert q.noise_temperature_from_nf(7.0, 290.0) == approx(1163.4, abs=0.1)
        assert q.noise_temperature_from_nf(5.0, 290.0) == approx(627.0, abs=0.1)
        assert q.noise_temperature_from_nf(0.0, 290.0) == 0.0

    def test_rejects_negative_nf(self):
        with pytest.raises(DomainError):
            q.noise_temperature_from_nf(-0.1)
        with pytest.raises(DomainError):
            q.noise_temperature_from_nf(3.0, t_ref_k=0.0)

    @given(
        st.floats(min_value=0.0, max_value=30.0),
        st.floats(min_value=0.01, max_value=30.0),
    )
    def test_strictly_increasing(self, nf, step):
        assert q.noise_temperature_from_nf(nf + step) > q.noise_temperature_from_nf(nf)

    @given(
        st.floats(min_value=0.1, max_value=30.0),
        st.floats(min_value=10.0, max_value=1000.0),
    )
    def test_linear_in_t_ref(self, nf, t_ref):
        doubled = q.noise_temperature_from_nf(nf, 2.0 * t_ref)
        assert doubled == approx(2.0 * q.noise_temperature_from_nf(nf, t_ref), rel=1e-12)

    def test_inverse(self):
        t = q.noise_temperature_from_nf(7.0, 290.0)
        assert q.noise_figure_from_temperature(t, 290.0) == approx(7.0, rel=1e-12)


class TestWavelength:
    def test_goldens(self):
        assert q.wavelength(2e9) == approx(0.15, rel=1e-12)
        assert q.wavelength(3e8) == approx(1.0, rel=1e-12)
        assert q.wavelength(11.7e9) == approx(0.025641, rel=1e-4)

    def test_respects_constants(self):
        c = q.PhysicalConstants(c_m_per_s=299792458.0)
        assert q.wavelength(2e9, c) == approx(0.1498962, rel=1e-6)

    @pytest.mark.parametrize("bad", [0.0, -2e9, math.inf, math.nan])
    def test_rejects(self, bad):
        with pytest.raises(DomainError):
            q.wavelength(bad)


class TestBandLookup:
    @pytest.mark.parametrize(
        "freq_hz,direction,orbit,band",
        [
            (1990e6, q.UPLINK, q.ANY_ORBIT, "S"),
            (13.0e9, q.UPLINK, q.ANY_ORBIT, "Ku"),
            (11.7e9, q.DOWNLINK, q.ANY_ORBIT, "Ku"),
            (14.5e9, q.UPLINK, q.ANY_ORBIT, "Ku"),
            (2180e6, q.DOWNLINK, q.ANY_ORBIT, "S"),
            (19.0e9, q.DOWNLINK, q.GEO, "Ka"),
            (19.0e9, q.DOWNLINK, q.NON_GEO, "Ka"),
            (1620e6, q.UPLINK, q.NON_GEO, "L"),
            (1650e6, q.UPLINK, q.GEO, "L"),
            (3800e6, q.DOWNLINK, q.ANY_ORBIT, "C"),
            (48e9, q.UPLINK, q.ANY_ORBIT, "Q/V"),
        ],
    )
    def test_goldens(self, freq_hz, direction, orbit, band):
        assert q.band_lookup(freq_hz, direction, orbit) == band

    def test_out_of_band_reports_nearest(self):
        with pytest.raises(OutOfBandError) as err:
            q.band_lookup(100e9, q.DOWNLINK)
        assert err.value.nearest.band == "Q/V"
        assert "Q/V" in str(err.value)

    def test_orbit_qualifier_disambiguates(self):
        # 17.5 GHz downlink exists for geostationary service only
        assert q.band_lookup(17.5e9, q.DOWNLINK, q.GEO) == "Ka"
        with pytest.raises(OutOfBandError):
            q.band_lookup(17.5e9, q.DOWNLINK, q.NON_GEO)

    def test_s_band_downlink_gap_at_2ghz(self):
        # 2 GHz is a valid uplink but sits between the downlink intervals
        assert q.band_lookup(2000e6, q.UPLINK) == "S"
        with pytest.raises(OutOfBandError) as err:
            q.band_lookup(2000e6, q.DOWNLINK)
        assert err.value.nearest.band == "S"

    def test_every_interior_point_resolves_uniquely(self):
        for direction in (q.DOWNLINK, q.UPLINK):
            for orbit in (q.GEO, q.NON_GEO):
                for alloc in q.BAND_CATALOG:
                    if alloc.direction != direction:
                        continue
                    if alloc.orbit not in (orbit, q.ANY_ORBIT):
                        continue
                    for lo, hi in alloc.intervals_mhz:
                        mid = 0.5 * (lo + hi) * 1e6
                        matches = q.matching_allocations(mid, direction, orbit)
                        assert {m.band for m in matches} == {alloc.band}

    def test_rejects_bad_queries(self):
        with pytest.raises(DomainError):
            q.band_lookup(-1.0, q.UPLINK)
        with pytest.raises(DomainError):
            q.band_lookup(2e9, "sideways")
        with pytest.raises(DomainError):
            q.band_lookup(2e9, q.UPLINK, "polar")


_QUERIES = [(d, o) for d in (q.DOWNLINK, q.UPLINK) for o in (q.GEO, q.NON_GEO, q.ANY_ORBIT)]


class TestBandChart:
    @pytest.mark.parametrize("direction,orbit", _QUERIES)
    def test_lookup_agrees_with_matching_allocations_at_every_endpoint(self, direction, orbit):
        for alloc in q.BAND_CATALOG:
            for edge_mhz in (bound for interval in alloc.intervals_mhz for bound in interval):
                for freq_hz in (edge_mhz * 1e6 - 1.0, edge_mhz * 1e6, edge_mhz * 1e6 + 1.0):
                    matches = q.matching_allocations(freq_hz, direction, orbit)
                    if matches:
                        assert q.band_lookup(freq_hz, direction, orbit) == matches[0].band
                    else:
                        with pytest.raises(OutOfBandError):
                            q.band_lookup(freq_hz, direction, orbit)

    @pytest.mark.parametrize("direction", [q.DOWNLINK, q.UPLINK])
    def test_no_frequency_maps_to_two_band_names(self, direction):
        # the "any" orbit query sees every row of a direction, so this covers
        # the geo and non-geo queries too
        rows = [
            (lo, hi, a.band) for a in q.BAND_CATALOG if a.direction == direction for lo, hi in a.intervals_mhz
        ]
        for i, (alo, ahi, aband) in enumerate(rows):
            for blo, bhi, bband in rows[i + 1 :]:
                if aband != bband:
                    assert ahi < blo or bhi < alo, f"{aband} and {bband} share [{max(alo, blo)}, {min(ahi, bhi)}] MHz"

    @pytest.mark.parametrize("direction,orbit", _QUERIES)
    def test_nearest_is_the_first_allocation_at_the_least_distance(self, direction, orbit):
        allocations = [
            a for a in q.BAND_CATALOG
            if a.direction == direction and (orbit == q.ANY_ORBIT or a.orbit in (q.ANY_ORBIT, orbit))
        ]
        intervals = sorted(interval for a in allocations for interval in a.intervals_mhz)
        probes, reach = [intervals[0][0] / 2, intervals[-1][1] * 2], intervals[0][1]
        for lo, hi in intervals[1:]:
            if lo > reach:
                probes.append((reach + lo) / 2)  # the exact middle of a gap
            reach = max(reach, hi)
        for freq_mhz in probes:
            assert freq_mhz * 1e6 / 1e6 == freq_mhz

            def distance(a):
                return min(min(abs(freq_mhz - lo), abs(freq_mhz - hi)) for lo, hi in a.intervals_mhz)

            least = min(map(distance, allocations))
            with pytest.raises(OutOfBandError) as err:
                q.band_lookup(freq_mhz * 1e6, direction, orbit)
            assert err.value.nearest is next(a for a in allocations if distance(a) == least), freq_mhz

    def test_a_tie_in_distance_goes_to_the_earlier_allocation(self):
        # 2950 MHz is 450 MHz from S (ending at 2500) and from C (starting at 3400)
        with pytest.raises(OutOfBandError) as err:
            q.band_lookup(2950e6, q.DOWNLINK)
        assert err.value.nearest.band == "S"
        assert "nearest is S band (any) at ((2160.0, 2200.0), (2483.5, 2500.0)) MHz" in str(err.value)


class TestBandAllocationInvariants:
    def test_rejects_reversed_bounds(self):
        with pytest.raises(ValidationError):
            q.BandAllocation("X", q.ANY_ORBIT, q.DOWNLINK, ((200.0, 100.0),))

    def test_rejects_overlapping_intervals(self):
        with pytest.raises(ValidationError):
            q.BandAllocation("X", q.ANY_ORBIT, q.DOWNLINK, ((100.0, 200.0), (150.0, 250.0)))

    @pytest.mark.parametrize("orbit, direction, intervals, field, message", [
        (q.ANY_ORBIT, "sideways", ((1.0, 2.0),), "direction",
         "direction must be one of ('downlink', 'uplink'), got 'sideways'"),
        ("leo", q.DOWNLINK, ((1.0, 2.0),), "orbit", "orbit must be one of ('geo', 'non-geo', 'any'), got 'leo'"),
        (q.ANY_ORBIT, q.DOWNLINK, (), "intervals_mhz", "allocation needs at least one interval"),
    ], ids=["direction", "orbit", "no-intervals"])
    def test_refusals_name_the_field(self, orbit, direction, intervals, field, message):
        with pytest.raises(ValidationError) as err:
            q.BandAllocation("X", orbit, direction, intervals)
        assert type(err.value) is ValidationError and str(err.value) == message and err.value.field == field


class TestBandCatalogCsv:
    def test_shape_and_content(self):
        lines = q.band_catalog_csv().strip().splitlines()
        assert lines[0] == "band,orbit,direction,low_MHz,high_MHz"
        intervals = sum(len(a.intervals_mhz) for a in q.BAND_CATALOG)
        assert len(lines) == 1 + intervals
        assert "S,any,uplink,1980,2025" in lines
        assert "Ka,non-geo,downlink,17700,20200" in lines


class TestRequire:
    """The one range check: bounds are read from the rule's phrase."""

    @pytest.mark.parametrize(
        "rule,inside,outside",
        [
            ("must be > 0 Hz", [5e-324, 1e308], [0.0, -0.0, math.inf, math.nan]),
            ("must be >= 0 dB", [0.0, -0.0, 1e308], [-5e-324, math.inf]),
            ("must be finite dBi", [-1e308, 1e308], [math.inf, -math.inf, math.nan, 10**400]),
            ("must lie in [0, pi/2) rad", [0.0, math.nextafter(math.pi / 2, 0.0)], [math.pi / 2, -5e-324]),
            ("must lie in (0, 1]", [5e-324, 1.0, 1], [0, 1.0000000000000002]),
            ("must be a positive linear ratio", [5e-324, math.inf], [0.0, -math.inf, math.nan]),
            ("must be >= 1", [1, 1.0], [0.9999999999999999, math.inf]),
        ],
    )
    def test_bounds_come_from_the_phrase(self, rule, inside, outside):
        for v in inside:
            assert q.require("x", v, rule) is v
        for v in outside:
            with pytest.raises(DomainError) as err:
                q.require("x", v, rule)
            assert str(err.value) == f"x {rule}, got {v!r}"

    def test_a_tuple_names_the_first_failed_phrase(self):
        rule = ("must be finite", "must be > 0")
        assert q.require("k", 2, rule, "k") == 2
        for v, phrase in ((math.nan, "must be finite"), (10**400, "must be finite"), (-1, "must be > 0")):
            with pytest.raises(ValidationError) as err:
                q.require("k", v, rule, "k")
            assert (err.value.field, str(err.value)) == ("k", f"k {phrase}, got {v!r}")

    @pytest.mark.parametrize("value", ["3", None, 1j])
    def test_a_non_number_fails(self, value):
        with pytest.raises(DomainError, match="must be > 0 Hz"):
            q.require("bandwidth", value, "must be > 0 Hz")

    def test_a_rule_without_a_range_is_refused(self):
        with pytest.raises(ValueError, match="states no range"):
            q.require("x", 1.0, "must be nice")



class TestRequireCount:
    """The one count check: an int from 1 up, never a bool."""

    @pytest.mark.parametrize("value", [1, 2, 10**400])
    def test_counts_pass_through(self, value):
        assert q.require_count("n", value) is value

    @pytest.mark.parametrize("value", [0, -1, True, False, 1.0, 2.5, "3", None, math.inf, math.nan])
    def test_other_values_fail(self, value):
        with pytest.raises(DomainError) as err:
            q.require_count("n", value)
        assert str(err.value) == f"n must be an integer >= 1, got {value!r}"

    def test_top_and_field(self):
        assert q.require_count("p", 2, "must be 1 or 2", top=2) == 2
        with pytest.raises(ValidationError) as err:
            q.require_count("p", 3, "must be 1 or 2", "p", top=2)
        assert (err.value.field, str(err.value)) == ("p", "p must be 1 or 2, got 3")

    @pytest.mark.parametrize("call, message", [
        ("a.ArraySpec.linear(True)", "element count must be an integer >= 1, got True"),
        ("a.ArraySpec.linear(0)", "element count must be an integer >= 1, got 0"),
        ("a.ArraySpec.planar(-1, -4)", "rows must be an integer >= 1, got -1"),
        ("a.ArraySpec.planar(4, True)", "cols must be an integer >= 1, got True"),
        ("a.normalized_array_factor(True, 0.3)", "element count must be an integer >= 1, got True"),
        ("a.array_factor_magnitude(False, 0.3)", "element count must be an integer >= 1, got False"),
        ("c.multibeam_capacity(1.0, 1e6, polarizations=True, beams=True, colors=True)",
         "polarizations must be 1 or 2, got True"),
        ("c.multibeam_capacity(1.0, 1e6, polarizations=2.0)", "polarizations must be 1 or 2, got 2.0"),
        ("c.multibeam_capacity(1.0, 1e6, polarizations=3)", "polarizations must be 1 or 2, got 3"),
        ("c.multibeam_capacity(1.0, 1e6, beams=True)", "beams must be an integer >= 1, got True"),
        ("c.multibeam_capacity(1.0, 1e6, beams=0)", "beams must be an integer >= 1, got 0"),
        ("c.multibeam_capacity(1.0, 1e6, colors=True)", "colors must be an integer >= 1, got True"),
        ("c.multibeam_capacity(1.0, 1e6, colors=0)", "colors must be an integer >= 1, got 0"),
        ("k.Shell('c', 's', 500.0, True, True, 50.0)", "orbit count must be >= 1, got True"),
        ("k.Shell('c', 's', 500.0, 1, True, 50.0)", "satellites per orbit must be >= 1, got True"),
    ])
    def test_every_count_refuses_a_bool(self, call, message):
        with pytest.raises(DomainError) as err:
            eval(call, {"a": antenna, "c": capacity, "k": constellation})
        assert str(err.value) == message

    def test_scenario_counts(self):
        for key in ("beams", "reuse"):
            with pytest.raises(ValidationError) as err:
                scenario.load_scenario({"name": "x", "orbit": "LEO", key: True})
            assert (err.value.field, str(err.value)) == (key, f"{key} must be an integer >= 1, got True")


class TestLongIntegers:
    """A refusal shows an int too long for a repr by its number of digits."""

    @pytest.mark.parametrize("call, shown", [
        (lambda n: antenna.ArraySpec.linear(n), "got an integer of 5001 digits"),
        (lambda n: geometry.cell_radius_from_split(1.0, n), "got an integer of 5001 digits"),
        (lambda n: geometry.footprint_diameter(n), "got an integer of 5001 digits"),
        (lambda n: capacity.multibeam_capacity(1.0, 1e6, beams=n),
         "and an integer of 5001 digits beams are too large"),
    ], ids=["ArraySpec.linear", "cell_radius_from_split", "footprint_diameter", "multibeam_capacity"])
    def test_a_refusal_of_a_long_integer_is_a_satlink_error(self, call, shown):
        with pytest.raises(SatlinkError) as err:
            call(10**5000)
        assert shown in str(err.value)

    @pytest.mark.parametrize("value, shown", [
        (10**4300, "an integer of 4301 digits"),
        (10**4301 - 1, "an integer of 4301 digits"),
        (10**5000, "an integer of 5001 digits"),
        (10**5000 - 1, "an integer of 5000 digits"),
        (-(10**5000), "a negative integer of 5001 digits"),
        (10**4299, "1" + "0" * 4299),
    ], ids=["1e4300", "1e4301-1", "1e5000", "1e5000-1", "-1e5000", "1e4299"])
    def test_the_digit_count_is_exact(self, value, shown):
        with pytest.raises(DomainError) as err:
            q.require("n", value, "must be finite")
        assert str(err.value) == f"n must be finite, got {shown}"

    LONG_CASE = {"name": "x", "orbit": "LEO", "cases": [{"direction": 10**5000}]}

    @pytest.mark.parametrize("call, message", [
        (lambda: antenna.ArraySpec(10**5000, 4), "topology must be 'linear' or 'planar', got {}"),
        (lambda: scenario.LinkCase(direction=10**5000), "case direction must be 'dl' or 'ul', got {}"),
        (lambda: scenario.load_scenario(TestLongIntegers.LONG_CASE), "case direction must be 'dl' or 'ul', got {}"),
        (lambda: q.band_lookup(2e9, 10**5000), "direction must be one of ('downlink', 'uplink'), got {}"),
        (lambda: q.band_lookup(2e9, "downlink", 10**5000), "orbit must be one of ('geo', 'non-geo', 'any'), got {}"),
        (lambda: q.matching_allocations(2e9, 10**5000), "direction must be one of ('downlink', 'uplink'), got {}"),
        (lambda: q.BandAllocation("L", 10**5000, "downlink", ((1.0, 2.0),)),
         "orbit must be one of ('geo', 'non-geo', 'any'), got {}"),
        (lambda: q.BandAllocation("L", "any", 10**5000, ((1.0, 2.0),)),
         "direction must be one of ('downlink', 'uplink'), got {}"),
        (lambda: q.BandAllocation("L", "any", "downlink", ((10**5000, 2.0),)),
         "interval bounds must satisfy low < high, got ({}, 2.0)"),
        (lambda: scenario.fixture(10**5000),
         "unknown fixture {}; available: " + ", ".join(s.name for s in scenario.builtin_fixtures())),
        (lambda: constellation.get_shell(10**5000),
         "unknown shell {}; valid ids: " + ", ".join(s.shell_id for s in constellation.list_shells())),
        (lambda: q.require_number("k", [10**5000], "finite"), "k must be a number, got an unprintable list"),
        (lambda: scenario.load_scenario({"name": "x", "orbit": "LEO", "altitude_km": [10**5000]}),
         "altitude_km must be a number, got an unprintable list"),
        (lambda: q.require("x", [10**5000], "must be finite"), "x must be finite, got an unprintable list"),
        (lambda: q.require_count("n", [10**5000]), "n must be an integer >= 1, got an unprintable list"),
    ], ids=["ArraySpec-topology", "LinkCase-direction", "load_scenario-case-direction", "band_lookup-direction",
            "band_lookup-orbit", "matching_allocations-direction", "BandAllocation-orbit",
            "BandAllocation-direction", "BandAllocation-interval", "fixture", "get_shell", "require_number-list",
            "load_scenario-altitude-list", "require-list", "require_count-list"])
    def test_every_refusal_shows_its_value(self, call, message):
        with pytest.raises(SatlinkError) as err:
            call()
        assert str(err.value) == message.format("an integer of 5001 digits")

    def test_a_value_whose_repr_fails_is_shown_by_its_type(self):
        class Opaque:
            def __repr__(self):
                raise RuntimeError("no repr")

        assert q._show(Opaque()) == "an unprintable Opaque"
        assert q._show({"a": (10**5000,)}) == "an unprintable dict"
        assert q._show([1, "two", 3.0]) == "[1, 'two', 3.0]"


class TestRequireNoOverflow:
    """The one overflow check: a result of finite inputs must be finite."""

    @pytest.mark.parametrize("value", [0.0, -0.0, 5e-324, -1e308, 1.7976931348623157e308, 3])
    def test_a_finite_result_is_returned(self, value):
        assert q.require_no_overflow(value, "unused {}") is value

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_a_non_finite_result_raises_the_formatted_message(self, value):
        with pytest.raises(DomainError) as err:
            q.require_no_overflow(value, "power {!r} W and gain {!r} are too large for {}", 1e300, 1e10, "a test")
        assert str(err.value) == "power 1e+300 W and gain 10000000000.0 are too large for a test"

    def test_the_message_is_built_only_on_failure(self):
        assert q.require_no_overflow(1.0, "{} {}") == 1.0  # formatting it would raise IndexError


class _Dict(dict):
    pass


class _List(list):
    pass


_SPECIAL_LEAVES = [
    math.nan, math.inf, -math.inf, -0.0, 10**40, -(2**70), 1e16, 5e-324, True, False, None,
    "é ☃ 𝄞", "\x00\x01\x1f\x7f", "tab\tnew\nline", '"quoted" \\slash/', "",
]
_JSON_LEAVES = st.one_of(
    st.sampled_from(_SPECIAL_LEAVES),
    st.floats(allow_nan=True, allow_infinity=True),
    st.integers(),
    st.text(),
)
_JSON_VALUES = st.recursive(
    _JSON_LEAVES,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.lists(inner, max_size=3).map(_List),
        st.dictionaries(st.text(), inner, max_size=4),
        st.dictionaries(st.text(), inner, max_size=3).map(_Dict),
    ),
    max_leaves=24,
)


class TestDumpJson:
    """The one indented writer is json.dumps, byte for byte."""

    @given(_JSON_VALUES)
    @example({"list": _SPECIAL_LEAVES, "tuple": tuple(_SPECIAL_LEAVES), "dicts": [{"v": v} for v in _SPECIAL_LEAVES]})
    def test_matches_json_dumps(self, value):
        assert q.dump_json(value) == json.dumps(value, indent=2)

    @pytest.mark.parametrize("value", [{}, [], (), _Dict(), _List(), {"a": {}, "b": [], "c": [{}]}])
    def test_empty_containers(self, value):
        assert q.dump_json(value) == json.dumps(value, indent=2)

    def test_default_indent_is_two(self):
        doc = {"a": [1.5, "x", None, True], "b": {"c": -math.inf}}
        assert q.dump_json(doc) == json.dumps(doc, indent=2)

    @pytest.mark.parametrize("value", [{1: "a"}, {"a": {None: 1}}, [{("k",): 0}]])
    def test_rejects_keys_that_are_not_strings(self, value):
        with pytest.raises(TypeError, match="keys must be str"):
            q.dump_json(value)

    @pytest.mark.parametrize("value", [object(), {"a": {1, 2}}, [b"bytes"]])
    def test_rejects_values_json_cannot_write(self, value):
        with pytest.raises(TypeError, match="is not JSON serializable"):
            q.dump_json(value)
