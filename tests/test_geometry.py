import math
from decimal import Decimal, localcontext

import pytest
from hypothesis import given
from hypothesis import strategies as st
from pytest import approx

from satlink import geometry as geo
from satlink.errors import DomainError
from satlink.quantities import PhysicalConstants

altitudes = st.floats(min_value=1.0, max_value=50_000.0)
elevations = st.floats(min_value=0.0, max_value=math.pi / 2)


class TestSlantRangeExact:
    def test_zenith_collapses_to_altitude(self):
        assert geo.slant_range_exact(21_000.0, math.pi / 2) == approx(21_000.0, rel=1e-12)

    def test_mid_elevation(self):
        assert geo.slant_range_exact(600.0, math.radians(30.0)) == approx(1075.09, abs=0.05)

    def test_horizon(self):
        expected = math.sqrt(550.0**2 + 2 * 6371.0 * 550.0)
        d = geo.slant_range_exact(550.0, 0.0)
        assert d == approx(expected, rel=1e-12)
        assert d == approx(2703.81, abs=0.05)

    @pytest.mark.parametrize("h, expected", [(1e-12, 2e-12), (5e-324, 1e-323)])
    def test_tiny_altitude_keeps_its_digits(self, h, expected):
        # d ~ h / sin(e) for h << Re: 2h at 30 degrees, with no cancellation against Re
        assert geo.slant_range_exact(h, math.radians(30.0)) == approx(expected, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("h", [1e-9, 1e-3, 1.0, 550.0, 35_786.0])
    @pytest.mark.parametrize("elev_deg", [0.0, 5.0, 30.0, 89.0])
    def test_within_an_ulp_or_two_of_the_exact_distance(self, h, elev_deg):
        with localcontext() as ctx:
            ctx.prec = 60
            rs = Decimal(6371.0) * Decimal(math.sin(math.radians(elev_deg)))
            q = Decimal(h) * (Decimal(h) + 2 * Decimal(6371.0))
            exact = float(q / ((rs * rs + q).sqrt() + rs))
        assert geo.slant_range_exact(h, math.radians(elev_deg)) == approx(exact, rel=4e-16, abs=0.0)

    def test_an_underflowing_altitude_and_radius_give_zero(self):
        constants = PhysicalConstants(earth_radius_km=5e-324)
        assert geo.slant_range_exact(5e-324, 0.0, constants) == 0.0

    @pytest.mark.parametrize("alt,elev", [(0.0, 0.5), (-1.0, 0.5), (600.0, -0.1), (600.0, 2.0)])
    def test_rejects(self, alt, elev):
        with pytest.raises(DomainError):
            geo.slant_range_exact(alt, elev)

    @given(altitudes)
    def test_zenith_identity(self, h):
        assert geo.slant_range_exact(h, math.pi / 2) == approx(h, rel=1e-9)

    @given(altitudes, elevations)
    def test_never_below_altitude(self, h, a):
        assert geo.slant_range_exact(h, a) >= h * (1 - 1e-12)

    @given(
        altitudes,
        st.floats(min_value=0.0, max_value=math.pi / 2 - 1e-6),
        st.floats(min_value=1e-6, max_value=0.5),
    )
    def test_strictly_decreasing_in_elevation(self, h, a, step):
        higher = min(a + step, math.pi / 2)
        assert geo.slant_range_exact(h, a) > geo.slant_range_exact(h, higher)


class TestSlantRangeAltitudeApprox:
    def test_worked_case(self):
        assert geo.slant_range_altitude_approx(21_000.0, 0.021) == approx(21_004.6, abs=0.5)
        # the classical printed figure is 21,003 km; stays within a couple of km
        assert geo.slant_range_altitude_approx(21_000.0, 0.021) == approx(21_003.0, abs=2.0)

    def test_zero_elevation_returns_altitude(self):
        assert geo.slant_range_altitude_approx(600.0, 0.0) == 600.0

    def test_small_angle(self):
        assert geo.slant_range_altitude_approx(600.0, 0.021) == approx(600.132, abs=1e-3)

    def test_rejects_zenith(self):
        with pytest.raises(DomainError):
            geo.slant_range_altitude_approx(600.0, math.pi / 2)


class TestFootprint:
    def test_diameter_goldens(self):
        assert geo.footprint_diameter(22) == approx(1821.6, abs=0.05)
        assert geo.footprint_diameter(1) == 40_075.0
        assert geo.footprint_diameter(34) == approx(1178.7, abs=0.05)

    def test_diameter_rejects_zero(self):
        with pytest.raises(DomainError):
            geo.footprint_diameter(0)

    def test_area_goldens(self):
        assert geo.footprint_area(1821.6) == approx(2.606e6, rel=1e-3)
        assert geo.footprint_area(2.0) == approx(math.pi, rel=1e-12)
        assert geo.footprint_area(1178.7) == approx(1.091e6, rel=1e-3)

    def test_coverage_goldens(self):
        area_s1 = geo.footprint_area(geo.footprint_diameter(22))
        assert geo.earth_coverage_fraction(22, area_s1) == approx(0.112, abs=5e-4)
        assert geo.earth_coverage_fraction(1, 510.1e6) == 1.0
        area_k1 = geo.footprint_area(geo.footprint_diameter(34))
        assert geo.earth_coverage_fraction(34, area_k1) == approx(0.0727, abs=5e-4)

    def test_coverage_caps_at_one(self):
        assert geo.earth_coverage_fraction(1000, 510.1e6) == 1.0

    @pytest.mark.parametrize("area, shown", [
        (math.nan, "nan"), (10**400, "1" + "0" * 400), ("x", "'x'"),
    ], ids=["nan", "int past the float range", "str"])
    def test_coverage_checks_the_area_before_dividing(self, area, shown):
        with pytest.raises(DomainError) as err:
            geo.earth_coverage_fraction(22, area)
        assert str(err.value) == f"area must be > 0 km^2, got {shown}"

    def test_coverage_refuses_a_fraction_that_underflows(self):
        earth = PhysicalConstants(earth_surface_km2=1e300)
        assert geo.earth_coverage_fraction(1, 1e-7, earth) == approx(1e-307, rel=1e-12)
        with pytest.raises(DomainError) as err:
            geo.earth_coverage_fraction(1, 1e-30, earth)
        assert str(err.value) == "coverage fraction must lie in (0, 1], got 0.0"

    @given(st.integers(min_value=1, max_value=1000))
    def test_diameter_times_count_is_perimeter(self, n):
        assert geo.footprint_diameter(n) * n == approx(40_075.0, rel=1e-12)


class TestCellSplit:
    def test_goldens(self):
        assert geo.cell_radius_from_split(50.0, 16) == 12.5
        assert geo.cell_radius_from_split(42.0, 1) == 42.0
        assert geo.cell_radius_from_split(50.0, 4) == 25.0

    @given(
        st.floats(min_value=0.1, max_value=1e4),
        st.integers(min_value=1, max_value=10_000),
    )
    def test_total_child_area_equals_parent(self, radius, n):
        child = geo.cell_radius_from_split(radius, n)
        assert n * math.pi * child**2 == approx(math.pi * radius**2, rel=1e-9)


class TestRequiredHpbw:
    def test_goldens(self):
        hpbw = geo.required_hpbw(50.0, 500.0)
        assert hpbw == approx(0.19934, abs=5e-4)
        assert math.degrees(hpbw) == approx(11.42, abs=0.01)

    def test_point_cell(self):
        assert geo.required_hpbw(0.0, 500.0) == 0.0

    def test_unit_slope_is_90_degrees(self):
        assert math.degrees(geo.required_hpbw(500.0, 500.0)) == approx(90.0, rel=1e-12)

    def test_rejects(self):
        with pytest.raises(DomainError):
            geo.required_hpbw(-1.0, 500.0)
        with pytest.raises(DomainError):
            geo.required_hpbw(50.0, 0.0)
