"""From SNR to bits: Shannon limit, MODCOD selection, multi-beam totals,
the satellite cost power-law and the classic TCP throughput bound."""

from __future__ import annotations

import math
import warnings
from bisect import bisect_right
from operator import attrgetter

from .errors import DomainError, NoFeasibleModcodError, ParseError, ValidationError
from .quantities import (
    dump_csv, linear_from_db, read_document, record, require, require_count, require_no_overflow,
)

_LN2 = math.log(2.0)


def shannon_capacity(bw_hz: float, snr_linear: float) -> float:
    """Maximum achievable bitrate in bps: B * log2(1 + snr)."""
    bps = require("bandwidth", bw_hz, "must be > 0 Hz") * max_spectral_efficiency(snr_linear)
    return require_no_overflow(bps, "bandwidth {} Hz at SNR {} is too large for a Shannon capacity", bw_hz, snr_linear)


def max_spectral_efficiency(snr_linear: float) -> float:
    """Shannon bound on spectral efficiency in bps/Hz: log2(1 + snr)."""
    return math.log1p(require("snr", snr_linear, "must be a finite ratio >= 0")) / _LN2


def required_snr(se_bps_hz: float) -> float:
    """Minimum linear SNR supporting a spectral efficiency: 2^se - 1.

    Exact inverse of max_spectral_efficiency.
    """
    try:
        return math.expm1(require("spectral efficiency", se_bps_hz, "must be >= 0") * _LN2)
    except OverflowError:  # above about 1024 bps/Hz
        return require_no_overflow(math.inf, "spectral efficiency {} bps/Hz is too large for a required SNR", se_bps_hz)


def effective_bitrate(se_bps_hz: float, bw_hz: float) -> float:
    """Delivered bitrate in bps for a spectral efficiency over a bandwidth."""
    return require_no_overflow(
        require("se_bps_hz", se_bps_hz, "must be >= 0") * require("bw_hz", bw_hz, "must be >= 0"),
        "spectral efficiency {} bps/Hz and bandwidth {} Hz are too large for a bitrate", se_bps_hz, bw_hz,
    )


@record
class ModCod:
    """One modulation-and-coding scheme: spectral efficiency plus the SNR it
    needs for quasi-error-free operation (2 residual errors per 10^4 bits)."""

    name: str
    se_bps_hz: float
    snr_qef_db: float

    def __post_init__(self):
        require(f"{self.name}: spectral efficiency", self.se_bps_hz, "must be > 0")
        require(f"{self.name}: required SNR", self.snr_qef_db, "must be finite dB")
        shannon = max_spectral_efficiency(linear_from_db(self.snr_qef_db))
        if not self.se_bps_hz < shannon:
            raise DomainError(
                f"{self.name}: {self.se_bps_hz} bps/Hz at {self.snr_qef_db} dB beats the "
                f"Shannon bound of {shannon:.4f} bps/Hz"
            )


_SE_THEN_SNR = attrgetter("se_bps_hz", "snr_qef_db")
_SNR = attrgetter("snr_qef_db")


def _ladder(catalog) -> tuple[tuple[ModCod, ...], list[float], list[ModCod], ModCod]:
    """Check a MODCOD catalog and order it for selection by bisection.

    Returns the entries in the order given, the SNR requirements in
    (spectral efficiency, requirement) order, the pick for each prefix of
    that order, and the floor. A monotone catalog keeps the requirements
    non-decreasing in that order, so the entries an SNR meets are a prefix.
    The pick of a prefix is the first entry of its highest-efficiency run:
    the lowest requirement and, the sort being stable, the first such entry
    in catalog order. The floor is the entry with the lowest requirement,
    the first in catalog order on a tie.
    """
    entries = tuple(catalog)
    if not entries:
        raise DomainError("MODCOD catalog is empty")
    ordered = sorted(entries, key=_SE_THEN_SNR)
    picks = []
    best = a = ordered[0]
    for b in ordered:
        if b.se_bps_hz > a.se_bps_hz:
            if b.snr_qef_db < a.snr_qef_db:
                raise DomainError(
                    f"catalog not monotone: {b.name} offers more throughput than {a.name} "
                    f"at a lower SNR requirement"
                )
            best = b
        picks.append(best)
        a = b
    thresholds = list(map(_SNR, ordered))
    # ordered[0] has the lowest requirement; only a tie needs the catalog order
    tied = len(ordered) > 1 and thresholds[1] == thresholds[0]
    floor = min(entries, key=_SNR) if tied else ordered[0]
    return entries, thresholds, picks, floor


def validate_catalog(catalog) -> tuple[ModCod, ...]:
    """Check a MODCOD catalog: non-empty, and no entry may offer a higher
    spectral efficiency than another at a lower SNR requirement.

    The rule holds for every pair, so the answer does not depend on the
    order of the entries.
    """
    return _ladder(catalog)[0]


# Reference catalog for a theoretical DVB-class modem, checked once here.
_TABLE_LADDER = _ladder((
    ModCod("APSK 1/2", 0.4, -2.0),
    ModCod("CPSK 1/4", 0.5, 0.0),
    ModCod("CPSK 1/2", 0.6, 1.0),
    ModCod("CPSK 3/4", 0.65, 2.0),
    ModCod("DPSK 1/4", 0.75, 3.0),
    ModCod("DPSK 1/2", 0.9, 4.0),
    ModCod("DPSK 3/4", 1.05, 6.0),
    ModCod("DPSK 5/6", 1.25, 7.0),
    ModCod("DPSK 7/8", 1.5, 9.0),
))
MODCOD_TABLE: tuple[ModCod, ...] = _TABLE_LADDER[0]


def select_modcod(snr_db: float, catalog=MODCOD_TABLE) -> tuple[ModCod, float]:
    """Pick the highest-rate scheme the SNR supports.

    Returns the chosen entry and the margin (dB) above its requirement.
    An SNR exactly at a requirement meets it. Ties on spectral efficiency
    resolve toward the lower SNR requirement, then to catalog order.
    Raises NoFeasibleModcodError when the SNR is below every entry.
    """
    require("snr", snr_db, "must be finite dB")
    _, thresholds, picks, floor = _TABLE_LADDER if catalog is MODCOD_TABLE else _ladder(catalog)
    k = bisect_right(thresholds, snr_db)
    if not k:
        raise NoFeasibleModcodError(
            f"snr {snr_db:g} dB is below the catalog floor "
            f"({floor.name} needs {floor.snr_qef_db:g} dB)",
            floor=floor,
        )
    best = picks[k - 1]
    return best, snr_db - best.snr_qef_db


def modcod_catalog_csv(catalog=MODCOD_TABLE) -> str:
    rows = [(m.name, f"{m.se_bps_hz:g}", f"{m.snr_qef_db:g}") for m in catalog]
    return dump_csv([("name", "se_bps_hz", "snr_qef_db"), *rows])


def load_modcod_catalog(source) -> tuple[ModCod, ...]:
    """Load a MODCOD catalog from CSV text or a file path.

    Expected columns: name, se_bps_hz, snr_qef_db. The catalog is validated
    before being returned; a missing file raises NotFoundError.
    """
    import csv
    import io

    text, path = read_document(source, "MODCOD catalog")
    where = f"{path}: " if path else ""  # a file's refusals name it, and a bad row its line
    reader = csv.DictReader(io.StringIO(text))
    required = {"name", "se_bps_hz", "snr_qef_db"}
    if reader.fieldnames is None or not required.issubset(reader.fieldnames):
        raise ParseError(f"{where}MODCOD CSV must have columns {sorted(required)}, got {reader.fieldnames}")
    entries = []
    for row in reader:
        try:
            entries.append(ModCod(row["name"], float(row["se_bps_hz"]), float(row["snr_qef_db"])))
        except (TypeError, ValueError) as exc:
            if isinstance(exc, DomainError):
                raise
            line = reader.line_num  # the row's last line, as a quoted field may span lines
            at = f" (line {line})" if path else ""
            raise ParseError(f"{where}bad MODCOD row: {row}{at}", line=line) from exc
    return validate_catalog(entries)


def multibeam_capacity(
    se_bps_hz: float, bandwidth_hz: float, polarizations: int = 1, beams: int = 1, colors: int = 1,
    guard_fraction: float = 0.0,
) -> float:
    """Total satellite throughput in bps across all beams and polarizations of
    a multi-beam payload, from the spectral efficiency, the per-color
    bandwidth, the frequency colors and the guard-band overhead.

    R = se * B * (N_pol * N_beams / N_colors) * (1 - guard).
    """
    require_count("polarizations", polarizations, "must be 1 or 2", top=2)
    require_count("beams", beams)
    require_count("colors", colors)
    require("guard fraction", guard_fraction, "must lie in [0, 1]")
    require("spectral efficiency", se_bps_hz, "must be >= 0")
    require("bandwidth", bandwidth_hz, "must be > 0 Hz")
    try:
        share = polarizations * beams / colors
    except OverflowError:  # a beam count past the float range
        share = math.inf
    return require_no_overflow(
        se_bps_hz * bandwidth_hz * share * (1.0 - guard_fraction),
        "spectral efficiency {} bps/Hz, bandwidth {} Hz and {} beams are too large for a multi-beam capacity",
        se_bps_hz, bandwidth_hz, beams,
    )


# Empirical cost-per-Gb/s power law for high-throughput satellites.
COST_COEFFICIENT = 167.3
COST_EXPONENT = -0.886


def satellite_cost_per_gbps(r_tot_gbps: float) -> float:
    """Empirical cost per Gb/s of capacity; drops as a power law with total
    throughput, which is what makes very-high-throughput payloads pay off."""
    return COST_COEFFICIENT * require("total rate", r_tot_gbps, "must be > 0 Gb/s") ** COST_EXPONENT


def tcp_throughput_bound(mss_bytes: float, rtt_s: float, loss_probability: float, c_constant: float = 1.0) -> float:
    """Classic loss-bounded upper bound on TCP throughput in bps:
    (MSS*8/RTT) * C/sqrt(p_loss). A C outside the typical 1-1.5 warns."""
    require("MSS", mss_bytes, "must be > 0 bytes")
    require("RTT", rtt_s, "must be > 0 s")
    require("loss probability", loss_probability, "must lie in (0, 1]; the bound diverges at 0 (supply a loss floor)")
    require("C", c_constant, "must lie in (0, 2]")
    if not 1.0 <= c_constant <= 1.5:
        warnings.warn(f"C={c_constant:g} is outside the typical 1-1.5 range", stacklevel=2)
    return require_no_overflow(
        (mss_bytes * 8.0 / rtt_s) * c_constant / math.sqrt(loss_probability),
        "MSS {} bytes over RTT {} s is too large for a TCP throughput bound", mss_bytes, rtt_s,
    )
