import hashlib
import math
import sys

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from pytest import approx
from scipy.optimize import brentq, minimize_scalar

from satlink import antenna as ant
from satlink.errors import DomainError, NoSidelobeError
from satlink.quantities import db_from_linear


class TestArrayFactor:
    @pytest.mark.parametrize("n", [1, 2, 5, 16, 64])
    def test_peak_at_zero(self, n):
        assert ant.normalized_array_factor(n, 0.0) == 1.0
        assert ant.array_factor_magnitude(n, 0.0) == float(n)

    def test_pair_broadside_null(self):
        assert ant.normalized_array_factor(2, math.pi) == approx(0.0, abs=1e-12)

    def test_first_null_of_five(self):
        assert ant.normalized_array_factor(5, 2 * math.pi / 5) == approx(0.0, abs=1e-12)

    @given(st.integers(min_value=1, max_value=64), st.floats(min_value=-20.0, max_value=20.0))
    def test_bounded_and_even(self, n, psi):
        value = ant.normalized_array_factor(n, psi)
        assert 0.0 <= value <= 1.0
        assert value == approx(ant.normalized_array_factor(n, -psi), abs=1e-12)

    def test_periodic_peak(self):
        assert ant.normalized_array_factor(7, 2 * math.pi) == 1.0

    def test_rejects_bad_count(self):
        with pytest.raises(DomainError):
            ant.normalized_array_factor(0, 1.0)

    @pytest.mark.parametrize("f", [ant.normalized_array_factor, ant.array_factor_magnitude])
    @pytest.mark.parametrize(
        "n,psi", [(4, 1e308), (4, -1e308), (2, 1.7e308), (10**309, 1.0)], ids=["inf", "-inf", "pair", "huge-n"]
    )
    def test_rejects_overflowing_n_psi(self, f, n, psi):
        with pytest.raises(DomainError, match=r"^N\*psi must be finite, got -?inf$"):
            f(n, psi)

    @pytest.mark.parametrize("f", [ant.normalized_array_factor, ant.array_factor_magnitude])
    def test_single_element_at_huge_psi(self, f):
        assert f(1, 1e308) == 1.0


class TestPsiFromIncidence:
    def test_broadside_is_zero(self):
        assert ant.psi_from_incidence(0.5, math.pi / 2) == approx(0.0, abs=1e-12)

    def test_endfire_at_half_wave(self):
        assert ant.psi_from_incidence(0.5, 0.0) == approx(math.pi, rel=1e-12)

    def test_quarter_wave_at_60_degrees(self):
        assert ant.psi_from_incidence(0.25, math.pi / 3) == approx(0.25 * math.pi, rel=1e-12)


class TestDirectivity:
    def test_linear(self):
        d = ant.directivity(ant.ArraySpec.linear(7))
        assert d == 7.0
        assert db_from_linear(d) == approx(8.45, abs=0.005)

    def test_planar(self):
        d = ant.directivity(ant.ArraySpec.planar(8, 8))
        assert d == approx(64 * math.pi, rel=1e-12)
        assert db_from_linear(d) == approx(23.03, abs=0.005)

    def test_single_element_is_isotropic(self):
        d = ant.directivity(ant.ArraySpec.linear(1))
        assert d == 1.0
        assert db_from_linear(d) == 0.0

    @pytest.mark.parametrize("make", [ant.ArraySpec.linear, lambda n: ant.ArraySpec.planar(n, 1)],
                             ids=["linear", "planar"])
    def test_a_count_past_the_float_range_is_refused(self, make):
        with pytest.raises(DomainError, match=r"^element count must lie within the float range, got 10{400}$"):
            ant.directivity(make(10**400))

    def test_the_largest_float_count_is_accepted(self):
        assert ant.directivity(ant.ArraySpec.linear(int(1.7976931348623157e308))) == 1.7976931348623157e308

    def test_a_planar_count_whose_directivity_passes_float_max(self):
        n = 10**308  # inside the float range, but N*pi is not
        with pytest.raises(DomainError, match=rf"^element count {n} is too large for a planar directivity$"):
            ant.directivity(ant.ArraySpec.planar(10**154, 10**154))


class TestGainAndAperture:
    def test_lossless(self):
        assert ant.gain_from_directivity(64 * math.pi, 1.0) == approx(64 * math.pi)

    def test_half_efficiency_costs_3_db(self):
        d = 64 * math.pi
        drop = (db_from_linear(ant.directivity(ant.ArraySpec.planar(8, 8)))
                - db_from_linear(ant.gain_from_directivity(d, 0.5)))
        assert drop == approx(3.01, abs=0.005)

    def test_product(self):
        g = ant.gain_from_directivity(100.0, 0.9)
        assert g == approx(90.0, rel=1e-12)
        assert db_from_linear(g) == approx(19.54, abs=0.005)

    def test_gain_never_exceeds_directivity(self):
        with pytest.raises(DomainError):
            ant.gain_from_directivity(100.0, 1.5)

    def test_aperture_goldens(self):
        assert ant.effective_aperture(0.15, 1.0) == approx(1.79e-3, rel=1e-3)
        assert ant.effective_aperture(3e8 / 11.7e9, 201.06) == approx(1.052e-2, rel=1e-3)

    def test_aperture_scales_with_wavelength_squared(self):
        assert ant.effective_aperture(0.3, 2.0) == approx(4 * ant.effective_aperture(0.15, 2.0), rel=1e-12)

    def test_aperture_past_float_max(self):
        with pytest.raises(DomainError) as info:
            ant.effective_aperture(1e100, 1e300)
        assert str(info.value) == "wavelength 1e+100 m and gain 1e+300 are too large for an effective aperture"


class TestHpbwApproximation:
    def test_goldens(self):
        assert ant.hpbw_from_directivity(64 * math.pi) == approx(12.69, abs=0.005)
        assert ant.hpbw_from_directivity(3.0) == approx(103.92, abs=0.005)
        assert ant.hpbw_from_directivity(32400.0) == approx(1.0, rel=1e-12)

    # reference catalog figures quoted for these configurations
    @pytest.mark.parametrize(
        "spec,dbi,hpbw",
        [
            (ant.ArraySpec.linear(3), 4.7, 104.0),
            (ant.ArraySpec.linear(7), 8.4, 68.0),
            (ant.ArraySpec.linear(11), 10.4, 54.0),
            (ant.ArraySpec.planar(4, 4), 17.0, 25.0),
            (ant.ArraySpec.planar(8, 8), 23.0, 12.7),
            (ant.ArraySpec.planar(16, 16), 29.0, 6.4),
            (ant.ArraySpec.planar(32, 32), 35.0, 3.2),
        ],
    )
    def test_catalog_regression(self, spec, dbi, hpbw):
        d = ant.directivity(spec)
        assert db_from_linear(d) == approx(dbi, abs=0.1)
        assert ant.hpbw_from_directivity(d) == approx(hpbw, abs=0.5)


class TestHpbwNumeric:
    def test_two_elements_closed_form(self):
        # |cos(psi/2)|^2 = 0.5 at psi = pi/2, i.e. theta = 60 and 120 degrees
        assert ant.hpbw_numeric(ant.ArraySpec.linear(2)) == approx(60.0, abs=1e-5)

    def test_five_elements(self):
        assert ant.hpbw_numeric(ant.ArraySpec.linear(5)) == approx(20.78, abs=0.01)

    def test_matches_independent_root_finder(self):
        for n in (3, 5, 9):
            def half_power_gap(theta):
                a = ant.normalized_array_factor(n, ant.psi_from_incidence(0.5, theta))
                return a * a - 0.5

            null_theta = math.acos(min(1.0, 2.0 / n))
            theta = brentq(half_power_gap, null_theta + 1e-12, math.pi / 2, xtol=1e-12)
            expected = math.degrees(2 * (math.pi / 2 - theta))
            assert ant.hpbw_numeric(ant.ArraySpec.linear(n)) == approx(expected, abs=1e-5)

    def test_narrows_with_element_count(self):
        widths = [ant.hpbw_numeric(ant.ArraySpec.linear(n)) for n in range(2, 13)]
        assert all(a > b for a, b in zip(widths, widths[1:]))

    def test_rejects_single_element(self):
        with pytest.raises(DomainError):
            ant.hpbw_numeric(ant.ArraySpec.linear(1))

    def test_rejects_planar(self):
        with pytest.raises(DomainError):
            ant.hpbw_numeric(ant.ArraySpec.planar(4, 4))

    def test_rejects_beam_wider_than_visible_range(self):
        with pytest.raises(DomainError):
            ant.hpbw_numeric(ant.ArraySpec.linear(2, spacing_wavelengths=0.1))


class TestSidelobeLevel:
    def test_three_elements_analytic(self):
        # single sidelobe peaks exactly at psi = pi with amplitude 1/3
        assert ant.sidelobe_level(ant.ArraySpec.linear(3)) == approx(1.0 / 3.0, abs=1e-6)

    def test_ten_elements(self):
        level = ant.sidelobe_level(ant.ArraySpec.linear(10))
        assert level == approx(0.2247, abs=1e-3)
        assert level == approx(0.22, abs=0.01)

    def test_large_n_asymptote(self):
        assert ant.sidelobe_level(ant.ArraySpec.linear(100)) == approx(0.217, abs=1e-3)

    def test_strictly_decreasing_from_3_to_10(self):
        levels = [ant.sidelobe_level(ant.ArraySpec.linear(n)) for n in range(3, 11)]
        assert all(a > b for a, b in zip(levels, levels[1:]))

    def test_both_db_views(self):
        # 0.35 reads as -9.1 dB in the field convention but -4.6 dB through
        # 10*log10, which is how some published sidelobe figures are quoted
        assert ant.amplitude_db_field(0.35) == approx(-9.12, abs=0.01)
        assert ant.amplitude_db_power(0.35) == approx(-4.56, abs=0.01)
        assert ant.amplitude_db_power(0.22) == approx(-6.58, abs=0.01)
        with pytest.raises(DomainError):
            ant.amplitude_db_field(0.0)

    def test_pair_has_no_sidelobe(self):
        with pytest.raises(NoSidelobeError):
            ant.sidelobe_level(ant.ArraySpec.linear(2))

    def test_rejects_planar(self):
        with pytest.raises(DomainError):
            ant.sidelobe_level(ant.ArraySpec.planar(4, 4))

    def test_matches_full_grid_scan(self):
        # brute force over the whole (null1, 2*pi - null1) grid, then polish
        for n in range(3, 65):
            null1 = 2 * math.pi / n
            psi = np.linspace(null1, 2 * math.pi - null1, 20001)[1:-1]
            vals = np.abs(np.sin(n * psi / 2) / (n * np.sin(psi / 2)))
            i = int(np.argmax(vals))
            res = minimize_scalar(
                lambda p: -ant.normalized_array_factor(n, float(p)),
                bounds=(psi[i - 1], psi[i + 1]),
                method="bounded",
                options={"xatol": 1e-12},
            )
            expected = max(float(vals[i]), -res.fun)
            assert ant.sidelobe_level(ant.ArraySpec.linear(n)) == approx(expected, abs=1e-10), n

    def test_matches_scipys_bounded_search_over_the_same_bracket(self):
        for n in range(3, 513):
            res = minimize_scalar(
                lambda p: -ant.normalized_array_factor(n, float(p)),
                bounds=(2 * math.pi / n, 4 * math.pi / n),
                method="bounded",
                options={"xatol": min(1e-12, 1e-9 / n)},
            )
            assert ant.sidelobe_level(ant.ArraySpec.linear(n)) == approx(-res.fun, abs=1e-15), n

    @pytest.mark.parametrize("n", [10**15, 10**100, 10**300, int(sys.float_info.max)])
    def test_ends_at_the_continuum_limit_where_the_tolerance_is_subnormal(self, n):
        # the first sidelobe of sin(x)/x; the search tolerance 1e-9/N is
        # subnormal for the last two counts
        assert ant.sidelobe_level(ant.ArraySpec.linear(n)) == approx(0.21723362821122164, abs=1e-15)


class TestSelectArray:
    def test_beamwidth_requirement_from_cell(self):
        spec, peak, edge = ant.select_array(11.42)
        assert spec.label == "planar-8x8"
        assert peak == approx(23.03, abs=0.01)
        assert edge == approx(20.02, abs=0.01)

    def test_narrow_requirement(self):
        spec, _, _ = ant.select_array(3.2)
        assert spec.label == "planar-32x32"

    def test_wide_requirement(self):
        spec, _, _ = ant.select_array(104.0)
        assert spec.label == "linear-3"

    def test_isotropic_excluded(self):
        spec, _, _ = ant.select_array(1000.0)
        assert spec.elements > 1

    def test_catalog_must_have_directive_entries(self):
        with pytest.raises(DomainError):
            ant.select_array(10.0, catalog=[ant.ArraySpec.linear(1)])


class TestArraySpec:
    def test_labels(self):
        assert ant.ArraySpec.linear(1).label == "isotropic"
        assert ant.ArraySpec.linear(5).label == "linear-5"
        assert ant.ArraySpec.planar(8, 8).label == "planar-8x8"

    def test_catalog_has_eight_rows(self):
        assert len(ant.ARRAY_CATALOG) == 8

    def test_rejects_bad_specs(self):
        with pytest.raises(DomainError):
            ant.ArraySpec.linear(0)
        with pytest.raises(DomainError):
            ant.ArraySpec("planar", 16, rows=3, cols=4)
        with pytest.raises(DomainError):
            ant.ArraySpec.linear(4, spacing_wavelengths=0.0)

    @pytest.mark.parametrize("make, message", [
        (lambda: ant.ArraySpec("ring", 4), "topology must be 'linear' or 'planar', got 'ring'"),
        (lambda: ant.ArraySpec("planar", 4, rows=2), "planar arrays need rows and cols"),
        (lambda: ant.ArraySpec("planar", 4, rows=10**5000, cols=1),
         "rows*cols (an integer of 5001 digitsx1) must equal element count 4"),
        (lambda: ant.pattern_csv(ant.ArraySpec.planar(2, 2)), "pattern cuts are defined for linear arrays only"),
    ], ids=["topology", "planar-without-cols", "rows-past-the-digit-limit", "planar-pattern-cut"])
    def test_refusals_name_the_fault(self, make, message):
        with pytest.raises(DomainError) as err:
            make()
        assert type(err.value) is DomainError and str(err.value) == message


def _pattern_rows(spec, resolution_deg):
    """The rows (theta_rad, psi_rad, amplitude, power_db) of a pattern cut."""
    return list(zip(*(column.tolist() for column in ant._pattern_cut(spec, resolution_deg))))


class TestPatternExport:
    def test_csv_shape(self):
        text = ant.pattern_csv(ant.ArraySpec.linear(5), resolution_deg=0.1)
        lines = text.strip().splitlines()
        assert lines[0] == "theta_deg,psi_rad,amplitude,power_db"
        assert len(lines) == 1 + 1801

    def test_peak_is_unity_at_broadside(self):
        theta, _, amplitude, _ = max(_pattern_rows(ant.ArraySpec.linear(5), 0.5), key=lambda row: row[2])
        assert amplitude == approx(1.0, abs=1e-12)
        assert math.degrees(theta) == approx(90.0, abs=0.5)

    def test_power_matches_amplitude(self):
        for _, _, amplitude, power_db in _pattern_rows(ant.ArraySpec.linear(4), 5.0):
            if amplitude > 0:
                assert power_db == approx(20 * math.log10(amplitude), abs=1e-9)

    def test_endfire_null_of_half_wave_pair(self):
        # psi = pi at endfire; float sine leaves a sub-1e-16 residue there
        theta, _, _, power_db = _pattern_rows(ant.ArraySpec.linear(2), 1.0)[0]
        assert math.degrees(theta) == approx(0.0, abs=1e-9)
        assert power_db < -300.0

    # digests of the CSV text as first released, before it was rendered
    # from column arrays
    @pytest.mark.parametrize(
        "n,resolution,digest",
        [
            (2, 0.1, "d1edb5ba2100a0c779c8d9f4a52f5b161af1f288e57f39d83dab03ea23aa9397"),
            (2, 0.5, "f31c4a7616fa8ab65935b76c5caa27916c7c6aaa0a4ecfbb3c47e87d97d483b5"),
            (5, 0.1, "e1c13b895d1525b75802ddd4a0a66bccd24c00426767910ee63beb66bd62c063"),
            (5, 0.5, "f2116ed62e83104a2a61d354503f5d9dc1f099028d12a150f74cf4c2ee5deb5f"),
            (16, 0.1, "ac5d1216128a48c95a6254e518a8003b0966e9d56de108229a9e383654c621f7"),
            (16, 0.5, "0cdb394f8b017e8929688b18649c73d4f9e55b214734d549507d5d8176640f53"),
            (256, 0.1, "d7766a07a6731091e1c8fc52fe9d7c50608b227d09ec57e653bee4e79ed8fc50"),
            (256, 0.5, "8ec75d6ee4ee3dc39cc64353e260b0884076db946278decb5e3be4cb004f6606"),
        ],
    )
    def test_csv_bytes_pinned(self, n, resolution, digest):
        text = ant.pattern_csv(ant.ArraySpec.linear(n), resolution_deg=resolution)
        assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_pattern_row_limit():
    finest = 180.0 / (ant.MAX_PATTERN_ROWS - 1)
    thetas = ant._pattern_cut(ant.ArraySpec.linear(4), finest)[0]
    assert len(thetas) == ant.MAX_PATTERN_ROWS
    with pytest.raises(DomainError, match="resolution must be >= 0.001 degrees"):
        ant._pattern_cut(ant.ArraySpec.linear(4), math.nextafter(finest, 0.0))
