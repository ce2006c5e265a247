import math

import pytest
from hypothesis import given
from hypothesis import strategies as st
from pytest import approx

from satlink import capacity as cap
from satlink.errors import DomainError, NoFeasibleModcodError, ParseError
from satlink.quantities import linear_from_db


class TestShannon:
    def test_worked_case(self):
        assert cap.shannon_capacity(1e3, 1.41) == approx(1270.0, rel=0.01)

    def test_trivials(self):
        assert cap.shannon_capacity(5e6, 0.0) == 0.0
        assert cap.shannon_capacity(5e6, 1.0) == approx(5e6, rel=1e-12)

    def test_spectral_efficiency(self):
        assert cap.max_spectral_efficiency(1.41) == approx(1.27, abs=0.005)
        assert cap.max_spectral_efficiency(0.0) == 0.0
        assert cap.max_spectral_efficiency(3.0) == approx(2.0, rel=1e-12)

    def test_required_snr(self):
        assert cap.required_snr(1.0) == approx(1.0, rel=1e-12)
        assert cap.required_snr(1.27) == approx(1.41, abs=0.005)
        assert cap.required_snr(0.0) == 0.0

    @given(st.floats(min_value=1e-6, max_value=1e4))
    def test_inverse_pair(self, snr):
        assert cap.required_snr(cap.max_spectral_efficiency(snr)) == approx(snr, rel=1e-12)

    def test_rejects(self):
        with pytest.raises(DomainError):
            cap.shannon_capacity(0.0, 1.0)
        with pytest.raises(DomainError):
            cap.max_spectral_efficiency(-0.1)


class TestModcodCatalog:
    def test_nine_entries(self):
        assert len(cap.MODCOD_TABLE) == 9
        assert cap.MODCOD_TABLE[0].name == "APSK 1/2"
        assert cap.MODCOD_TABLE[-1] == cap.ModCod("DPSK 7/8", 1.5, 9.0)

    def test_every_entry_below_shannon(self):
        for m in cap.MODCOD_TABLE:
            assert m.se_bps_hz < cap.max_spectral_efficiency(linear_from_db(m.snr_qef_db))

    def test_se_sorted_implies_snr_sorted(self):
        by_se = sorted(cap.MODCOD_TABLE, key=lambda m: m.se_bps_hz)
        snrs = [m.snr_qef_db for m in by_se]
        assert snrs == sorted(snrs)

    def test_shannon_violation_rejected_at_construction(self):
        with pytest.raises(DomainError):
            cap.ModCod("too-good", 1.2, 0.0)  # Shannon bound at 0 dB is 1.0

    def test_non_monotone_catalog_rejected(self):
        rows = [cap.ModCod("a", 0.5, 3.0), cap.ModCod("b", 0.9, 2.0)]
        with pytest.raises(DomainError):
            cap.validate_catalog(rows)

    def test_csv_round_trip(self):
        text = cap.modcod_catalog_csv()
        assert text.splitlines()[0] == "name,se_bps_hz,snr_qef_db"
        assert cap.load_modcod_catalog(text) == cap.MODCOD_TABLE

    def test_csv_from_file(self, tmp_path):
        path = tmp_path / "catalog.csv"
        path.write_text(cap.modcod_catalog_csv())
        assert cap.load_modcod_catalog(path) == cap.MODCOD_TABLE

    def test_csv_from_str_path(self, tmp_path):
        path = tmp_path / "catalog.csv"
        path.write_text(cap.modcod_catalog_csv())
        assert cap.load_modcod_catalog(str(path)) == cap.MODCOD_TABLE

    def test_long_csv_text_without_slash(self):
        # one path component longer than a file name may be (255 bytes)
        rows = [cap.ModCod(f"mc{i:02d}", (20 + 10 * i) / 100, (-30 + 6 * i) / 10) for i in range(30)]
        text = cap.modcod_catalog_csv(rows)
        assert "/" not in text and len(text) > 255
        assert cap.load_modcod_catalog(text) == tuple(rows)

    def test_csv_missing_columns(self):
        with pytest.raises(ParseError):
            cap.load_modcod_catalog("name,se\nfoo,1\n")

    def test_csv_bad_number(self):
        with pytest.raises(ParseError):
            cap.load_modcod_catalog("name,se_bps_hz,snr_qef_db\nfoo,abc,1\n")


class TestSelectModcod:
    def test_worked_case(self):
        # the classic worked figure quotes 1.41 dB here, reusing the budget
        # chain's linear ratio as decibels; either reading (1.41 or 1.5 dB)
        # lands on the same scheme, and 1.41 reproduces the 0.41 dB margin
        chosen, margin = cap.select_modcod(1.41)
        assert chosen.name == "CPSK 1/2"
        assert margin == approx(0.41, abs=1e-9)
        assert cap.select_modcod(1.5)[0] is chosen

    def test_top_of_table(self):
        chosen, margin = cap.select_modcod(9.0)
        assert chosen.name == "DPSK 7/8"
        assert margin == 0.0

    def test_below_floor(self):
        with pytest.raises(NoFeasibleModcodError) as err:
            cap.select_modcod(-3.0)
        assert err.value.floor.name == "APSK 1/2"

    @pytest.mark.parametrize("entry", cap.MODCOD_TABLE)
    def test_each_row_selected_at_its_threshold(self, entry):
        chosen, margin = cap.select_modcod(entry.snr_qef_db)
        assert chosen == entry
        assert margin == 0.0

    @given(st.floats(min_value=-2.0, max_value=30.0))
    def test_selection_never_beats_shannon(self, snr_db):
        chosen, _ = cap.select_modcod(snr_db)
        bw = 1e6
        assert cap.effective_bitrate(chosen.se_bps_hz, bw) <= cap.shannon_capacity(
            bw, linear_from_db(snr_db)
        )

    def test_tie_breaks_toward_lower_requirement(self):
        rows = [cap.ModCod("hungry", 0.5, 2.0), cap.ModCod("frugal", 0.5, 0.0)]
        chosen, _ = cap.select_modcod(5.0, rows)
        assert chosen.name == "frugal"


class TestEffectiveBitrate:
    def test_goldens(self):
        assert cap.effective_bitrate(0.6, 1e3) == approx(600.0, rel=1e-12)
        assert cap.effective_bitrate(1.35, 10e6) == approx(13.5e6, rel=1e-12)
        assert cap.effective_bitrate(1.0, 0.0) == 0.0

    def test_rejects_negative(self):
        with pytest.raises(DomainError):
            cap.effective_bitrate(-0.1, 1e3)


class TestMultibeam:
    def test_worked_case(self):
        total = cap.multibeam_capacity(
            se_bps_hz=2.0, bandwidth_hz=1.5e9, polarizations=2, beams=60, colors=7, guard_fraction=0.1
        )
        assert total == approx(46.286e9, rel=1e-4)
        assert float(f"{total / 1e9:.2g}") == 46.0

    def test_all_guard_band(self):
        assert cap.multibeam_capacity(se_bps_hz=2.0, bandwidth_hz=1e9, guard_fraction=1.0) == 0.0

    def test_single_reuse_collapses(self):
        total = cap.multibeam_capacity(se_bps_hz=2.0, bandwidth_hz=1e9, polarizations=1, beams=4, colors=4)
        assert total == approx(2e9, rel=1e-12)

    @given(st.integers(min_value=1, max_value=500))
    def test_linear_in_beams(self, n):
        one = cap.multibeam_capacity(se_bps_hz=1.5, bandwidth_hz=1e9, beams=1, colors=3)
        many = cap.multibeam_capacity(se_bps_hz=1.5, bandwidth_hz=1e9, beams=n, colors=3)
        assert many == approx(n * one, rel=1e-12)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"polarizations": 3},
            {"beams": 0},
            {"colors": 0},
            {"guard_fraction": 1.5},
            {"guard_fraction": -0.1},
            {"bandwidth_hz": 0.0},
        ],
    )
    def test_rejects(self, kwargs):
        base = {"se_bps_hz": 2.0, "bandwidth_hz": 1e9}
        base.update(kwargs)
        with pytest.raises(DomainError):
            cap.multibeam_capacity(**base)


class TestCostLaw:
    def test_unit_input_exposes_coefficient(self):
        assert cap.satellite_cost_per_gbps(1.0) == 167.3

    def test_worked_case(self):
        assert cap.satellite_cost_per_gbps(46.0) == approx(5.63, abs=0.01)

    @given(st.floats(min_value=0.1, max_value=1e4))
    def test_monotone_decreasing(self, r):
        assert cap.satellite_cost_per_gbps(2 * r) < cap.satellite_cost_per_gbps(r)

    def test_rejects_nonpositive(self):
        with pytest.raises(DomainError):
            cap.satellite_cost_per_gbps(0.0)


class TestTcpBound:
    def test_worked_cases(self):
        assert cap.tcp_throughput_bound(1500, 0.2, 1e-9) == approx(1.897e9, rel=1e-3)
        assert cap.tcp_throughput_bound(1500, 0.4, 1e-9) == approx(948.7e6, rel=1e-3)
        assert cap.tcp_throughput_bound(1500, 0.4, 1e-6) == approx(30e6, rel=1e-9)

    def test_rtt_doubling_halves(self):
        base = cap.tcp_throughput_bound(1500, 0.1, 1e-6)
        assert cap.tcp_throughput_bound(1500, 0.2, 1e-6) == approx(base / 2, rel=1e-12)

    @given(st.floats(min_value=1.1, max_value=1e3))
    def test_loss_scaling(self, k):
        base = cap.tcp_throughput_bound(1500, 0.1, 1e-6)
        scaled = cap.tcp_throughput_bound(1500, 0.1, k * 1e-6)
        assert scaled == approx(base / math.sqrt(k), rel=1e-9)

    def test_zero_loss_diverges(self):
        with pytest.raises(DomainError):
            cap.tcp_throughput_bound(1500, 0.2, 0.0)

    @pytest.mark.parametrize("c", [0.0, -1.0, 2.5])
    def test_c_outside_valid_range(self, c):
        with pytest.raises(DomainError):
            cap.tcp_throughput_bound(1500, 0.2, 1e-6, c_constant=c)

    def test_c_outside_typical_range_warns(self):
        with pytest.warns(UserWarning):
            cap.tcp_throughput_bound(1500, 0.2, 1e-6, c_constant=1.8)

    def test_typical_range_warning_names_the_caller(self):
        with pytest.warns(UserWarning) as caught:
            cap.tcp_throughput_bound(1500, 0.2, 1e-6, c_constant=1.8)
        assert [w.filename for w in caught] == [__file__]

    def test_rejects_bad_inputs(self):
        with pytest.raises(DomainError):
            cap.tcp_throughput_bound(0, 0.2, 1e-6)
        with pytest.raises(DomainError):
            cap.tcp_throughput_bound(1500, 0.0, 1e-6)
