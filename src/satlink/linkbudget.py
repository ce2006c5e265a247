"""RF power accounting from transmitter to receiver.

Covers the free-space propagation equation, thermal noise, EIRP, the G/T
figure of merit, free-space path loss and the additive dB link-budget ledger
that turns them into an SNR. The dB ledger and the watts path are two views
of the same algebra and are kept mutually consistent.
"""

from __future__ import annotations

import math
import sys

from .errors import DomainError, ValidationError
from .quantities import (
    DEFAULT_CONSTANTS,
    PhysicalConstants,
    linear_from_db,
    noise_figure_from_temperature,
    noise_temperature_from_nf,
    record,
    require,
    require_no_overflow,
    wavelength,
)


def friis_received_power(
    p_t_w: float, g_t: float, g_r: float, wavelength_m: float, distance_m: float
) -> float:
    """Received signal power in watts over a free-space path.

    Args:
        p_t_w: transmit power in W
        g_t: transmit antenna gain, linear
        g_r: receive antenna gain, linear
        wavelength_m: carrier wavelength in m
        distance_m: transmitter-receiver separation in m

    Returns:
        p_t * g_t * g_r * wavelength^2 / ((4*pi)^2 * distance^2)
    """
    require("p_t_w", p_t_w, "must be finite and > 0")
    require("g_t", g_t, "must be finite and > 0")
    require("g_r", g_r, "must be finite and > 0")
    require("wavelength_m", wavelength_m, "must be finite and > 0")
    require("distance_m", distance_m, "must be finite and > 0")
    return _friis(p_t_w, g_t, g_r, wavelength_m, distance_m)


def _friis(p_t_w, g_t, g_r, wavelength_m, distance_m) -> float:
    try:
        p_r = p_t_w * g_t * g_r * wavelength_m**2 / ((4.0 * math.pi) ** 2 * distance_m**2)
    except (OverflowError, ZeroDivisionError):  # a square above float max, or a distance squared to 0
        raise DomainError(
            f"wavelength {wavelength_m!r} m or distance {distance_m!r} m is too large or too small "
            "for the Friis equation"
        ) from None
    return require_no_overflow(
        p_r, "received power of {} W through gains {} and {} is too large for the Friis equation", p_t_w, g_t, g_r
    )


def noise_power(t_k: float, bw_hz: float, constants: PhysicalConstants = DEFAULT_CONSTANTS) -> float:
    """Thermal noise power in watts collected over a bandwidth: N = k*T*B."""
    require("noise temperature", t_k, "must be >= 0 K")
    require("bandwidth", bw_hz, "must be > 0 Hz")
    return _noise_power(t_k, bw_hz, constants)


def _noise_power(t_k, bw_hz, constants) -> float:
    return require_no_overflow(
        constants.boltzmann_j_per_k * t_k * bw_hz,
        "noise temperature {} K and bandwidth {} Hz are too large for a noise power", t_k, bw_hz,
    )


def fspl(distance_m: float, freq_hz: float, constants: PhysicalConstants = DEFAULT_CONSTANTS) -> float:
    """Free-space path loss in dB: 20*log10(4*pi*d*f/c)."""
    require("distance", distance_m, "must be > 0 m")
    require("frequency", freq_hz, "must be > 0 Hz")
    return _fspl(distance_m, freq_hz, constants)


def _fspl(distance_m, freq_hz, constants) -> float:
    ratio = 4.0 * math.pi * distance_m * freq_hz / constants.c_m_per_s
    if ratio == 0.0:
        raise DomainError(
            f"path loss 4*pi*d*f/c underflows to 0 for distance {distance_m!r} m and frequency {freq_hz!r} Hz"
        )
    if ratio < 1.0:  # a negative loss: the distance is under a wavelength over 4*pi
        raise DomainError(
            f"path loss 4*pi*d*f/c is below 1 for distance {distance_m!r} m, frequency {freq_hz!r} Hz "
            f"and speed of light {constants.c_m_per_s!r} m/s"
        )
    path_db = 20.0 * math.log10(ratio)
    return require_no_overflow(
        path_db,
        "distance {} m times frequency {} Hz over speed of light {} m/s is too large for a path loss",
        distance_m, freq_hz, constants.c_m_per_s,
    )


def g_over_t(g_r_dbi: float, t_k: float) -> float:
    """Receiver figure of merit in dB/K: antenna gain minus 10*log10(T)."""
    require("system noise temperature", t_k, "must be > 0 K")
    require("receive gain", g_r_dbi, "must be finite dBi")
    return _g_over_t(g_r_dbi, t_k)


def _g_over_t(g_r_dbi, t_k) -> float:
    return g_r_dbi - 10.0 * math.log10(t_k)


def combine_snr_sir(snr: float, sir: float) -> float:
    """Combine noise-only and interference-only ratios into an SINR.

    Both inputs are linear ratios; an infinite SIR denotes an
    interference-free link, and a ratio past the float range counts as
    infinite. SINR = 1 / (1/SNR + 1/SIR).
    """
    require("snr", snr, "must be a positive linear ratio")
    require("sir", sir, "must be a positive linear ratio")
    # an infinite term drops out of the sum exactly
    if sir > sys.float_info.max:
        return snr
    if snr > sys.float_info.max:
        return sir
    return 1.0 / (1.0 / snr + 1.0 / sir)


@record
class Transmitter:
    """Transmit chain: RF power into an antenna of a given gain."""

    power_w: float
    gain_dbi: float

    def __post_init__(self):
        require("transmit power", self.power_w, "must be > 0 W")
        require("transmit gain", self.gain_dbi, "must be finite dBi")

    @property
    def gain_linear(self) -> float:
        return linear_from_db(self.gain_dbi)

    @property
    def eirp_dbw(self) -> float:
        return 10.0 * math.log10(self.power_w) + self.gain_dbi  # power_w is checked at construction

    @property
    def eirp_w(self) -> float:
        return require_no_overflow(
            self.power_w * self.gain_linear,
            "transmit power {} W and gain {} dBi are too large for an EIRP in watts", self.power_w, self.gain_dbi,
        )


@record
class Receiver:
    """Receive chain: antenna gain plus exactly one of noise figure or
    noise temperature (the other is derived against t_ref_k)."""

    gain_dbi: float
    nf_db: float | None = None
    noise_temp_k: float | None = None
    t_ref_k: float = DEFAULT_CONSTANTS.t_ref_k

    def __post_init__(self):
        require("receive gain", self.gain_dbi, "must be finite dBi")
        if (self.nf_db is None) == (self.noise_temp_k is None):
            raise ValidationError("nf_db/noise_temp_k", "specify exactly one of noise figure or noise temperature")
        if self.nf_db is not None:
            require("noise figure", self.nf_db, "must be >= 0 dB")
        if self.noise_temp_k is not None:
            require("noise temperature", self.noise_temp_k, "must be >= 0 K")

    @property
    def gain_linear(self) -> float:
        return linear_from_db(self.gain_dbi)

    @property
    def noise_temperature_k(self) -> float:
        if self.noise_temp_k is not None:
            return self.noise_temp_k
        return noise_temperature_from_nf(self.nf_db, self.t_ref_k)

    @property
    def noise_figure_db(self) -> float:
        if self.nf_db is not None:
            return self.nf_db
        return noise_figure_from_temperature(self.noise_temp_k, self.t_ref_k)

    @property
    def g_over_t_dbk(self) -> float:
        return g_over_t(self.gain_dbi, self.noise_temperature_k)


@record
class LinkBudgetResult:
    """Itemized dB ledger of a link budget and the resulting SNR.

    `received_power_w`/`noise_power_w` are populated only when the budget
    was derived from a full transmitter/receiver description; a bare G/T
    figure cannot be split back into gain and temperature.
    """

    eirp_dbw: float
    g_over_t_dbk: float
    fspl_db: float
    atm_loss_db: float
    ad_loss_db: float
    margin_db: float
    bw_dbhz: float
    boltzmann_dbw_per_k_hz: float
    snr_db: float
    received_power_w: float | None = None
    noise_power_w: float | None = None

    def breakdown(self) -> list[tuple[str, float]]:
        """Signed ledger items; their sum is the SNR in dB."""
        return [
            ("eirp_dbw", self.eirp_dbw),
            ("g_over_t_dbk", self.g_over_t_dbk),
            ("fspl_db", -self.fspl_db),
            ("atm_loss_db", -self.atm_loss_db),
            ("ad_loss_db", -self.ad_loss_db),
            ("margin_db", -self.margin_db),
            ("bw_dbhz", -self.bw_dbhz),
            ("boltzmann_dbw_per_k_hz", -self.boltzmann_dbw_per_k_hz),
        ]


def snr_db(
    eirp_dbw: float,
    g_over_t_dbk: float,
    fspl_db: float,
    atm_loss_db: float = 0.0,
    ad_loss_db: float = 0.0,
    margin_db: float = 0.0,
    bw_dbhz: float = 0.0,
    constants: PhysicalConstants = DEFAULT_CONSTANTS,
) -> LinkBudgetResult:
    """Aggregate the additive dB link budget into an SNR.

    SNR = EIRP + G/T - FSPL - AtmLoss - AdLoss - margin - B_w - k_B,
    with EIRP in dBW, G/T in dB/K, losses in dB, bandwidth in dBHz and the
    Boltzmann constant in dBW/K/Hz. Returns the full itemized ledger.
    """
    require("eirp_dbw", eirp_dbw, "must be finite")
    require("g_over_t_dbk", g_over_t_dbk, "must be finite")
    require("bw_dbhz", bw_dbhz, "must be finite")
    require("fspl_db", fspl_db, "must be >= 0 dB")
    require("atm_loss_db", atm_loss_db, "must be >= 0 dB")
    require("ad_loss_db", ad_loss_db, "must be >= 0 dB")
    require("margin_db", margin_db, "must be >= 0 dB")
    return _ledger(eirp_dbw, g_over_t_dbk, fspl_db, atm_loss_db, ad_loss_db, margin_db, bw_dbhz, constants)


def _ledger(
    eirp_dbw, g_over_t_dbk, fspl_db, atm_loss_db, ad_loss_db, margin_db, bw_dbhz, constants, rx_w=None, n_w=None
) -> LinkBudgetResult:
    k_db = constants.boltzmann_dbw_per_k_hz
    snr = require_no_overflow(
        eirp_dbw + g_over_t_dbk - fspl_db - atm_loss_db - ad_loss_db - margin_db - bw_dbhz - k_db,
        "EIRP {} dBW, G/T {} dB/K, losses {}, {}, {} and {} dB and bandwidth {} dBHz are too large for an SNR ledger",
        eirp_dbw, g_over_t_dbk, fspl_db, atm_loss_db, ad_loss_db, margin_db, bw_dbhz,
    )
    return LinkBudgetResult(
        eirp_dbw, g_over_t_dbk, fspl_db, atm_loss_db, ad_loss_db, margin_db, bw_dbhz, k_db, snr, rx_w, n_w
    )


def link_budget(
    transmitter: Transmitter,
    receiver: Receiver,
    distance_m: float,
    freq_hz: float,
    bandwidth_hz: float,
    atm_loss_db: float = 0.0,
    ad_loss_db: float = 0.0,
    margin_db: float = 0.0,
    constants: PhysicalConstants = DEFAULT_CONSTANTS,
) -> LinkBudgetResult:
    """End-to-end link budget from full transmitter/receiver descriptions.

    Computes FSPL from distance and frequency, aggregates the dB ledger and
    additionally fills the received/noise power in watts (signal attenuated
    by the linear equivalent of every loss line).

    Every input is checked once, in the order the public functions above
    would check it, so a bad input raises the same first error as they do.
    """
    require("bandwidth", bandwidth_hz, "must be > 0 Hz")
    lam = wavelength(freq_hz, constants)
    require("distance", distance_m, "must be > 0 m")
    path_db = _fspl(distance_m, freq_hz, constants)
    eirp_dbw = transmitter.eirp_dbw
    t_sys = require("system noise temperature", receiver.noise_temperature_k, "must be > 0 K")
    bw_dbhz = 10.0 * math.log10(bandwidth_hz)  # bandwidth_hz is checked above
    require("atm_loss_db", atm_loss_db, "must be >= 0 dB")
    require("ad_loss_db", ad_loss_db, "must be >= 0 dB")
    require("margin_db", margin_db, "must be >= 0 dB")
    extra_loss = linear_from_db(atm_loss_db + ad_loss_db + margin_db)
    g_t, g_r = transmitter.gain_linear, receiver.gain_linear
    # an extreme gain underflows to 0
    require("g_t", g_t, "must be finite and > 0")
    require("g_r", g_r, "must be finite and > 0")
    gt_dbk = _g_over_t(receiver.gain_dbi, t_sys)
    rx_w = _friis(transmitter.power_w, g_t, g_r, lam, distance_m) / extra_loss
    n_w = _noise_power(t_sys, bandwidth_hz, constants)
    return _ledger(eirp_dbw, gt_dbk, path_db, atm_loss_db, ad_loss_db, margin_db, bw_dbhz, constants, rx_w, n_w)
