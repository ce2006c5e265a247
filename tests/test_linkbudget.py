import math
import random

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from pytest import approx

from satlink import linkbudget as lb
from satlink.errors import DomainError, ValidationError
from satlink.quantities import (
    DEFAULT_CONSTANTS,
    PhysicalConstants,
    db_from_linear,
    linear_from_db,
    record_doc,
    wavelength,
)


class TestFriis:
    def test_worked_case(self):
        p = lb.friis_received_power(26.6, 19.95, 1.0, 0.15, 2.1e7)
        assert p == approx(1.7145e-16, rel=1e-4)
        assert p == approx(1.71e-16, rel=0.01)

    def test_inverse_square(self):
        near = lb.friis_received_power(10.0, 2.0, 3.0, 0.1, 1e6)
        far = lb.friis_received_power(10.0, 2.0, 3.0, 0.1, 2e6)
        assert near / far == approx(4.0, rel=1e-12)

    def test_unit_geometry_identity(self):
        assert lb.friis_received_power(5.0, 1.0, 1.0, 4 * math.pi, 1.0) == approx(5.0, rel=1e-12)

    @pytest.mark.parametrize("d", [0.0, -1.0])
    def test_rejects_degenerate_distance(self, d):
        with pytest.raises(DomainError):
            lb.friis_received_power(1.0, 1.0, 1.0, 0.15, d)

    def test_rejects_a_received_power_past_float_max(self):
        with pytest.raises(DomainError) as info:
            lb.friis_received_power(1e300, 1e300, 1, 0.1, 1000)
        message = "received power of 1e+300 W through gains 1e+300 and 1 is too large for the Friis equation"
        assert str(info.value) == message

    def test_huge_finite_received_power_is_kept(self):
        assert lb.friis_received_power(1e300, 1e6, 1.0, 0.1, 1.0) == approx(1e304 / (4 * math.pi) ** 2, rel=1e-15)


class TestNoisePower:
    def test_goldens(self):
        assert lb.noise_power(1163.443, 1e3) == approx(1.6063e-17, rel=1e-4)
        assert lb.noise_power(0.0, 1e6) == 0.0
        floor = lb.noise_power(290.0, 1.0)
        assert floor == approx(4.0039e-21, rel=1e-4)
        assert db_from_linear(floor) + 30.0 == approx(-173.98, abs=0.01)  # dBm

    def test_rejects(self):
        with pytest.raises(DomainError):
            lb.noise_power(-1.0, 1e3)
        with pytest.raises(DomainError):
            lb.noise_power(290.0, 0.0)


class TestFspl:
    def test_worked_case(self):
        assert lb.fspl(2.1e7, 2e9) == approx(184.907, abs=1e-3)

    def test_distance_doubling(self):
        assert lb.fspl(2e6, 2e9) - lb.fspl(1e6, 2e9) == approx(6.0206, abs=1e-4)

    def test_frequency_doubling(self):
        assert lb.fspl(1e6, 4e9) - lb.fspl(1e6, 2e9) == approx(6.0206, abs=1e-4)

    def test_leo_ku_case(self):
        assert lb.fspl(5.5e5, 11.7e9) == approx(168.6, abs=0.05)

    @given(
        st.floats(min_value=1e3, max_value=1e8),
        st.floats(min_value=1e8, max_value=1e11),
        st.floats(min_value=1.01, max_value=10.0),
    )
    def test_strictly_increasing(self, d, f, k):
        assert lb.fspl(d * k, f) > lb.fspl(d, f)
        assert lb.fspl(d, f * k) > lb.fspl(d, f)


    def test_underflowing_product_is_domain_error(self):
        # each input passes its own check, but 4*pi*d*f/c underflows to 0
        with pytest.raises(DomainError, match="underflows to 0 for distance 1000000.0 m and frequency 5e-324 Hz"):
            lb.fspl(1e6, 5e-324)

    def test_overflow_names_the_speed_of_light(self):
        # 1,000 km and 2 GHz are ordinary: the tiny speed of light overflows 4*pi*d*f/c
        with pytest.raises(DomainError, match=r"over speed of light 1e-300 m/s is too large for a path loss"):
            lb.fspl(1e6, 2e9, PhysicalConstants(c_m_per_s=1e-300))

    @pytest.mark.parametrize("d, f, c, shown", [
        (1.0, 1e6, 3e8, "distance 1.0 m, frequency 1000000.0 Hz and speed of light 300000000.0 m/s"),
        (1e6, 2e9, 1e300, "distance 1000000.0 m, frequency 2000000000.0 Hz and speed of light 1e+300 m/s"),
    ])
    def test_a_ratio_below_1_is_refused_not_a_negative_loss(self, d, f, c, shown):
        with pytest.raises(DomainError) as err:
            lb.fspl(d, f, PhysicalConstants(c_m_per_s=c))
        assert str(err.value) == f"path loss 4*pi*d*f/c is below 1 for {shown}"

    def test_a_ratio_of_1_is_a_loss_of_0_db(self):
        assert lb.fspl(3e8 / (4.0 * math.pi), 1.0) == approx(0.0, abs=1e-12)


class TestGOverT:
    def test_goldens(self):
        assert lb.g_over_t(12.0, 627.06) == approx(-15.97, abs=0.01)
        assert lb.g_over_t(0.0, 290.0) == approx(-24.62, abs=0.01)
        assert lb.g_over_t(0.0, 1163.443) == approx(-30.66, abs=0.01)

    def test_matches_rounded_field_figures(self):
        assert lb.g_over_t(12.0, 627.06) == approx(-16.0, abs=0.05)
        assert lb.g_over_t(0.0, 290.0) == approx(-24.6, abs=0.05)
        assert lb.g_over_t(0.0, 1163.443) == approx(-30.0, abs=0.7)

    def test_rejects_nonpositive_temperature(self):
        with pytest.raises(DomainError):
            lb.g_over_t(0.0, 0.0)


class TestSnrLedger:
    def test_worked_case(self):
        result = lb.snr_db(27.4, -30.0, 184.9, 9.6, 0.0, 0.0, 30.0)
        assert result.snr_db == approx(1.5, abs=0.01)

    def test_exact_chain(self):
        eirp = db_from_linear(26.6) + 13.0
        g_t = lb.g_over_t(0.0, 1163.443)
        result = lb.snr_db(eirp, g_t, lb.fspl(2.1e7, 2e9), 9.6, 0.0, 0.0, 30.0)
        assert result.snr_db == approx(0.68, abs=0.05)

    def test_boltzmann_only(self):
        result = lb.snr_db(0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
        assert result.snr_db == approx(228.6, abs=0.05)

    def test_breakdown_sums_to_snr(self):
        result = lb.snr_db(27.4, -30.0, 184.9, 9.6, 1.2, 3.0, 30.0)
        assert sum(v for _, v in result.breakdown()) == approx(result.snr_db, abs=1e-9)

    def test_eirp_shift_moves_snr_exactly(self):
        base = lb.snr_db(10.0, -20.0, 150.0, 1.0, 0.0, 0.0, 30.0).snr_db
        assert lb.snr_db(20.0, -20.0, 150.0, 1.0, 0.0, 0.0, 30.0).snr_db == approx(base + 10.0, abs=1e-12)

    @given(st.floats(min_value=0.01, max_value=30.0))
    def test_decreasing_in_losses(self, loss):
        base = lb.snr_db(10.0, -20.0, 150.0, 0.0, 0.0, 0.0, 30.0).snr_db
        assert lb.snr_db(10.0, -20.0, 150.0, loss, 0.0, 0.0, 30.0).snr_db < base

    def test_rejects_negative_loss(self):
        with pytest.raises(DomainError):
            lb.snr_db(10.0, -20.0, 150.0, -0.1, 0.0, 0.0, 30.0)

    def test_record_doc_contract(self):
        result = lb.snr_db(27.4, -30.0, 184.9, 9.6, 0.0, 0.0, 30.0)
        assert list(record_doc(result)) == [
            "eirp_dbw",
            "g_over_t_dbk",
            "fspl_db",
            "atm_loss_db",
            "ad_loss_db",
            "margin_db",
            "bw_dbhz",
            "boltzmann_dbw_per_k_hz",
            "snr_db",
        ]


class TestCombineSnrSir:
    def test_worked_case(self):
        combined = lb.combine_snr_sir(8.0, 4.0)
        assert combined == approx(2.67, abs=0.01)
        assert db_from_linear(combined) == approx(4.26, abs=0.02)

    def test_interference_free_limit(self):
        assert lb.combine_snr_sir(8.0, math.inf) == 8.0

    def test_sir_12_db_case(self):
        combined = lb.combine_snr_sir(8.0, linear_from_db(12.0))
        assert combined == approx(5.316, abs=0.005)
        assert db_from_linear(combined) == approx(7.256, abs=0.005)

    @given(
        st.floats(min_value=1e-3, max_value=1e6),
        st.floats(min_value=1e-3, max_value=1e6),
    )
    def test_commutative_and_below_min(self, a, b):
        assert lb.combine_snr_sir(a, b) == approx(lb.combine_snr_sir(b, a), rel=1e-12)
        assert lb.combine_snr_sir(a, b) <= min(a, b)

    @given(st.floats(min_value=1e-3, max_value=1e6))
    def test_approaches_snr_as_sir_grows(self, snr):
        assert lb.combine_snr_sir(snr, 1e15 * snr) == approx(snr, rel=1e-9)

    @pytest.mark.parametrize("bad", [0.0, -2.0, math.nan])
    def test_rejects(self, bad):
        with pytest.raises(DomainError):
            lb.combine_snr_sir(bad, 4.0)
        with pytest.raises(DomainError):
            lb.combine_snr_sir(8.0, bad)


class TestTransmitter:
    def test_eirp_is_power_plus_gain(self):
        tx = lb.Transmitter(power_w=26.6, gain_dbi=13.0)
        assert tx.eirp_dbw == approx(db_from_linear(26.6) + 13.0, abs=1e-9)
        assert tx.eirp_dbw == approx(27.25, abs=0.005)
        assert tx.eirp_w == approx(26.6 * linear_from_db(13.0), rel=1e-12)

    def test_rejects_nonpositive_power(self):
        with pytest.raises(DomainError):
            lb.Transmitter(power_w=0.0, gain_dbi=13.0)


class TestReceiver:
    def test_exactly_one_noise_description(self):
        with pytest.raises(ValidationError):
            lb.Receiver(gain_dbi=0.0)
        with pytest.raises(ValidationError):
            lb.Receiver(gain_dbi=0.0, nf_db=7.0, noise_temp_k=290.0)

    def test_derives_temperature_from_nf(self):
        rx = lb.Receiver(gain_dbi=0.0, nf_db=7.0)
        assert rx.noise_temperature_k == approx(1163.4, abs=0.1)
        assert rx.g_over_t_dbk == approx(-30.66, abs=0.01)

    def test_derives_nf_from_temperature(self):
        rx = lb.Receiver(gain_dbi=12.0, noise_temp_k=627.06)
        assert rx.noise_figure_db == approx(5.0, abs=1e-3)
        assert rx.g_over_t_dbk == approx(-15.97, abs=0.01)

    def test_figure_of_merit_definition(self):
        rx = lb.Receiver(gain_dbi=12.0, nf_db=5.0)
        assert rx.g_over_t_dbk == approx(
            rx.gain_dbi - 10.0 * math.log10(rx.noise_temperature_k), abs=1e-9
        )


class TestEndToEndBudget:
    def test_watts_fields_match_manual_computation(self):
        tx = lb.Transmitter(power_w=26.6, gain_dbi=13.0)
        rx = lb.Receiver(gain_dbi=0.0, nf_db=7.0)
        result = lb.link_budget(tx, rx, 2.1e7, 2e9, 1e3, atm_loss_db=9.6)
        expected_rx = lb.friis_received_power(
            26.6, tx.gain_linear, 1.0, 0.15, 2.1e7
        ) / linear_from_db(9.6)
        assert result.received_power_w == approx(expected_rx, rel=1e-12)
        assert result.noise_power_w == approx(lb.noise_power(rx.noise_temperature_k, 1e3), rel=1e-12)
        assert result.snr_db == approx(0.685, abs=0.005)

    def test_watts_path_equals_db_path(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            p_t = 10.0 ** rng.uniform(-1, 3)
            g_t_dbi = rng.uniform(0, 40)
            g_r_dbi = rng.uniform(0, 40)
            t_k = rng.uniform(50, 2000)
            bw = 10.0 ** rng.uniform(3, 8)
            d = 10.0 ** rng.uniform(4, 7.6)
            f = 10.0 ** rng.uniform(8.5, 10.5)
            atm, ad, margin = rng.uniform(0, 10, size=3)
            tx = lb.Transmitter(power_w=p_t, gain_dbi=g_t_dbi)
            rx = lb.Receiver(gain_dbi=g_r_dbi, noise_temp_k=t_k)
            result = lb.link_budget(tx, rx, d, f, bw, atm, ad, margin)
            watts_snr_db = db_from_linear(result.received_power_w / result.noise_power_w)
            assert watts_snr_db == approx(result.snr_db, abs=1e-6)

    def test_budget_keys_include_watts(self):
        tx = lb.Transmitter(power_w=2.0, gain_dbi=12.0)
        rx = lb.Receiver(gain_dbi=12.0, nf_db=5.0)
        doc = record_doc(lb.link_budget(tx, rx, 5.5e5, 11.7e9, 1e6))
        assert "received_power_w" in doc and "noise_power_w" in doc


_TX = lb.Transmitter(power_w=2.0, gain_dbi=12.0)
_RX = lb.Receiver(gain_dbi=12.0, nf_db=5.0)
_KU = (5.5e5, 11.7e9, 1e6)  # distance_m, freq_hz, bandwidth_hz
_NEGATIVE_LOSS = (
    "path loss 4*pi*d*f/c is below 1 for distance 1.0 m, frequency 1000000.0 Hz and speed of light 300000000.0 m/s"
)


class TestLinkBudgetErrorContract:
    """The first error link_budget raises for each invalid input: exception
    type and message, including which fault wins when there are two."""

    @pytest.mark.parametrize(
        "args,message",
        [
            ((_TX, lb.Receiver(0.0, noise_temp_k=0.0), *_KU), "system noise temperature must be > 0 K, got 0.0"),
            ((_TX, lb.Receiver(0.0, nf_db=0.0), *_KU), "system noise temperature must be > 0 K, got 0.0"),
            ((_TX, _RX, 1.0, 1e6, 1e3), _NEGATIVE_LOSS),
            ((_TX, _RX, *_KU, -1.0), "atm_loss_db must be >= 0 dB, got -1.0"),
            ((_TX, _RX, *_KU, 0.0, -1.0), "ad_loss_db must be >= 0 dB, got -1.0"),
            ((_TX, _RX, *_KU, 0.0, 0.0, -1.0), "margin_db must be >= 0 dB, got -1.0"),
            ((_TX, _RX, 5.5e5, math.nan, 1e6), "frequency must be finite and > 0 Hz, got nan"),
            ((_TX, _RX, math.nan, 11.7e9, 1e6), "distance must be > 0 m, got nan"),
            ((_TX, _RX, 5.5e5, 11.7e9, math.nan), "bandwidth must be > 0 Hz, got nan"),
            ((_TX, _RX, 0.0, 11.7e9, 1e6), "distance must be > 0 m, got 0.0"),
            ((_TX, _RX, 5.5e5, math.inf, 1e6), "frequency must be finite and > 0 Hz, got inf"),
            # two faults in one call: the earlier check wins
            ((_TX, _RX, -1.0, 11.7e9, 0.0), "bandwidth must be > 0 Hz, got 0.0"),
            ((_TX, lb.Receiver(0.0, noise_temp_k=0.0), *_KU, -2.0), "system noise temperature must be > 0 K, got 0.0"),
            ((_TX, _RX, 1.0, 1e6, 1e3, math.nan), _NEGATIVE_LOSS),
            # faults that only show in derived values
            ((_TX, lb.Receiver(0.0, nf_db=3.0, t_ref_k=-1.0), *_KU), "reference temperature must be > 0 K, got -1.0"),
            ((lb.Transmitter(2.0, -4000.0), _RX, *_KU), "g_t must be finite and > 0, got 0.0"),
        ],
    )
    def test_first_error(self, args, message):
        with pytest.raises(DomainError) as err:
            lb.link_budget(*args)
        assert type(err.value) is DomainError
        assert str(err.value) == message

    def test_loss_overflow(self):
        with pytest.raises(DomainError):
            lb.link_budget(_TX, _RX, *_KU, 5000.0)


def _budget_corpus(seed, n):
    rng = random.Random(seed)
    codata = PhysicalConstants(c_m_per_s=299792458.0, earth_radius_km=6378.137)
    for i in range(n):
        tx = lb.Transmitter(10.0 ** rng.uniform(-1, 3), rng.uniform(-5, 45))
        t_ref = rng.choice((290.0, rng.uniform(100.0, 400.0)))
        if i % 2:
            rx = lb.Receiver(rng.uniform(-5, 45), nf_db=rng.uniform(0.01, 12.0), t_ref_k=t_ref)
        else:
            rx = lb.Receiver(rng.uniform(-5, 45), noise_temp_k=rng.uniform(20.0, 3000.0), t_ref_k=t_ref)
        d = 10.0 ** rng.uniform(3, 7.7)
        f = 10.0 ** rng.uniform(8, 11)
        bw = 10.0 ** rng.uniform(3, 9)
        losses = [rng.choice((0.0, rng.uniform(0, 20))) for _ in range(3)]
        yield tx, rx, d, f, bw, losses, (DEFAULT_CONSTANTS if i % 3 else codata)


def test_link_budget_is_bit_identical_to_public_helpers():
    for tx, rx, d, f, bw, (atm, ad, margin), k in _budget_corpus(11, 3000):
        ledger = lb.snr_db(
            tx.eirp_dbw, rx.g_over_t_dbk, lb.fspl(d, f, k), atm, ad, margin, db_from_linear(bw), k
        )
        rx_w = lb.friis_received_power(
            tx.power_w, tx.gain_linear, rx.gain_linear, wavelength(f, k), d
        ) / linear_from_db(atm + ad + margin)
        n_w = lb.noise_power(rx.noise_temperature_k, bw, k)
        expected = {**record_doc(ledger), "received_power_w": rx_w, "noise_power_w": n_w}
        assert record_doc(lb.link_budget(tx, rx, d, f, bw, atm, ad, margin, k)) == expected
