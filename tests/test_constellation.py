import pytest
from pytest import approx

from satlink import constellation as con
from satlink.errors import DomainError, NotFoundError


class TestCatalog:
    def test_ten_shells(self):
        assert len(con.list_shells()) == 10
        assert [s.shell_id for s in con.list_shells()] == [
            "S1", "S2", "S3", "S4", "S5", "K1", "K2", "K3", "T1", "T2",
        ]

    def test_first_starlink_shell(self):
        s1 = con.get_shell("S1")
        assert s1.constellation == "Starlink"
        assert (s1.altitude_km, s1.orbits, s1.sats_per_orbit, s1.inclination_deg) == (550.0, 72, 22, 53.0)

    def test_first_telesat_shell(self):
        t1 = con.get_shell("T1")
        assert (t1.altitude_km, t1.orbits, t1.sats_per_orbit, t1.inclination_deg) == (1015.0, 27, 13, 98.98)

    def test_totals(self):
        assert con.get_shell("S1").total_satellites == 1584
        assert all(s.total_satellites > 0 for s in con.list_shells())

    def test_unknown_id(self):
        with pytest.raises(NotFoundError) as err:
            con.get_shell("X9")
        assert "S1" in str(err.value)
        assert err.value.valid_ids == tuple(s.shell_id for s in con.list_shells())

    def test_shell_invariants(self):
        with pytest.raises(DomainError):
            con.Shell("X", "X1", -5.0, 2, 2, 50.0)
        with pytest.raises(DomainError):
            con.Shell("X", "X1", 500.0, 2, 2, 200.0)


class TestShellStats:
    def test_starlink_s1(self):
        stats = con.shell_stats("S1")
        assert stats.footprint_diameter_km == approx(1821.6, abs=0.05)
        assert stats.footprint_area_km2 == approx(2.6e6, rel=0.01)
        assert stats.orbit_coverage_fraction == approx(0.11, abs=0.005)
        assert stats.total_satellites == 1584

    def test_telesat_t1_diameter(self):
        assert con.shell_stats("T1").footprint_diameter_km == approx(3082.7, abs=0.05)

    def test_kuiper_k1(self):
        stats = con.shell_stats("K1")
        assert stats.footprint_diameter_km == approx(1178.7, abs=0.05)
        assert stats.orbit_coverage_fraction == approx(0.0727, abs=5e-4)

    def test_whole_shell_extrapolation_caps_at_one(self):
        stats = con.shell_stats("S1")
        assert stats.shell_coverage_fraction == 1.0  # 72 orbits of optimistic disks
        assert 0.0 < stats.orbit_coverage_fraction <= 1.0

    def test_unknown_id(self):
        with pytest.raises(NotFoundError):
            con.shell_stats("Z3")

    def test_diameter_count_product_is_perimeter(self):
        for shell in con.list_shells():
            stats = con.shell_stats(shell.shell_id)
            assert stats.footprint_diameter_km * shell.sats_per_orbit == approx(40_075.0, rel=1e-12)

