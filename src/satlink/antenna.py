"""Phased-array radiation math.

Linear equally-spaced arrays get a full pattern treatment (array factor,
numeric half-power beamwidth, sidelobe search); planar rectangular arrays are
characterized by their maximum directivity N*pi and the symmetric-beam
HPBW approximation, which is how the reference catalog below is generated.
All arrays are untapered (uniformly weighted).

Only the pattern cut needs numpy, which `pattern_csv`, `_pattern_cut` and
`_normalized_af_vec` import when they run. The sidelobe search, both
beamwidths, directivity and array selection are pure Python, and nothing
here needs scipy.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from .errors import DomainError, NoSidelobeError
from .quantities import _show, db_from_linear, require, require_count, require_no_overflow

LINEAR = "linear"
PLANAR = "planar"

# Coefficient of the directivity ~ beam-solid-angle approximation
# D = 32400 / (hpbw_az_deg * hpbw_el_deg).
HPBW_APPROX_COEFFICIENT = 32400.0


@dataclass(frozen=True)
class ArraySpec:
    """A phased-array configuration: topology, element count and spacing
    (in wavelengths)."""

    topology: str
    elements: int
    rows: int | None = None
    cols: int | None = None
    spacing_wavelengths: float = 0.5

    def __post_init__(self):
        if self.topology not in (LINEAR, PLANAR):
            raise DomainError(f"topology must be '{LINEAR}' or '{PLANAR}', got {_show(self.topology)}")
        require_count("element count", self.elements)
        require_count("element count", self.elements, "must lie within the float range", top=sys.float_info.max)
        if self.topology == PLANAR:
            if self.rows is None or self.cols is None:
                raise DomainError("planar arrays need rows and cols")
            require_count("rows", self.rows)
            require_count("cols", self.cols)
            if self.rows * self.cols != self.elements:
                raise DomainError(f"rows*cols ({_show(self.rows)}x{_show(self.cols)}) "
                                  f"must equal element count {_show(self.elements)}")
        require("spacing", self.spacing_wavelengths, "must be > 0 wavelengths")

    @classmethod
    def linear(cls, n: int, spacing_wavelengths: float = 0.5) -> "ArraySpec":
        return cls(LINEAR, n, spacing_wavelengths=spacing_wavelengths)

    @classmethod
    def planar(cls, rows: int, cols: int, spacing_wavelengths: float = 0.5) -> "ArraySpec":
        return cls(PLANAR, rows * cols, rows=rows, cols=cols, spacing_wavelengths=spacing_wavelengths)

    @property
    def label(self) -> str:
        if self.topology == LINEAR:
            return "isotropic" if self.elements == 1 else f"linear-{self.elements}"
        return f"planar-{self.rows}x{self.cols}"


def _check_af(n, psi_rad) -> None:
    require_count("element count", n)
    require("psi", psi_rad, "must be finite")
    try:
        n_psi = n * psi_rad
    except OverflowError:  # an N beyond the float range
        n_psi = math.inf
    require("N*psi", n_psi, "must be finite")


def array_factor_magnitude(n: int, psi_rad: float) -> float:
    """Un-normalized array-factor magnitude |sin(N*psi/2) / sin(psi/2)|.

    The removable singularity at psi = 0 (mod 2*pi) evaluates to N.
    """
    _check_af(n, psi_rad)
    den = math.sin(psi_rad / 2.0)
    if den == 0.0:
        return float(n)
    return abs(math.sin(n * psi_rad / 2.0) / den)


def normalized_array_factor(n: int, psi_rad: float) -> float:
    """Pattern amplitude |sin(N*psi/2) / (N*sin(psi/2))|, peak 1 at psi = 0."""
    _check_af(n, psi_rad)
    return _af(n, psi_rad)


def _af(n: int, psi: float) -> float:
    """normalized_array_factor without its checks, for the searches over an
    ArraySpec, whose element count is checked and whose psi is finite."""
    den = math.sin(psi / 2.0)
    if den == 0.0:
        return 1.0
    return min(1.0, abs(math.sin(n * psi / 2.0) / den) / n)


def _normalized_af_vec(n: int, psi: np.ndarray) -> np.ndarray:
    import numpy as np

    den = n * np.sin(psi / 2.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        vals = np.abs(np.where(den == 0.0, 1.0, np.sin(n * psi / 2.0) / den))
    return np.minimum(vals, 1.0)


def psi_from_incidence(spacing_wavelengths: float, theta_rad: float) -> float:
    """Inter-element phase for a plane wave at incidence angle theta to the
    array axis: psi = 2*pi*spacing*cos(theta)."""
    require("spacing", spacing_wavelengths, "must be > 0 wavelengths")
    require("theta", theta_rad, "must be finite")
    psi = 2.0 * math.pi * spacing_wavelengths * math.cos(theta_rad)
    return require_no_overflow(psi, "spacing {!r} wavelengths is too large for a phase psi", spacing_wavelengths)


def directivity(spec: ArraySpec) -> float:
    """Maximum directivity, linear: N for a linear array, N*pi for a planar one."""
    if spec.topology == LINEAR:
        return float(spec.elements)
    return require_no_overflow(
        spec.elements * math.pi, "element count {!r} is too large for a planar directivity", spec.elements
    )


def gain_from_directivity(directivity_linear: float, efficiency: float) -> float:
    """Realized linear gain: directivity scaled by the radiation efficiency."""
    require("directivity", directivity_linear, "must be > 0")
    require("efficiency", efficiency, "must lie in (0, 1]")
    return require("antenna gain", efficiency * directivity_linear, "must be finite and > 0")


def effective_aperture(wavelength_m: float, gain_linear: float) -> float:
    """Effective capture area in m^2: wavelength^2 * gain / (4*pi)."""
    require("wavelength", wavelength_m, "must be > 0 m")
    require("gain", gain_linear, "must be > 0")
    try:
        area = wavelength_m**2 * gain_linear / (4.0 * math.pi)
    except OverflowError:  # above about 1.3e154 m
        raise DomainError(f"wavelength {wavelength_m!r} m is too large for an effective aperture") from None
    return require_no_overflow(
        area, "wavelength {!r} m and gain {!r} are too large for an effective aperture", wavelength_m, gain_linear
    )


def hpbw_from_directivity(directivity_linear: float) -> float:
    """Half-power beamwidth in degrees under the symmetric-beam approximation
    D = 32400 / hpbw^2, i.e. hpbw = sqrt(32400 / D)."""
    hpbw = math.sqrt(HPBW_APPROX_COEFFICIENT / require("directivity", directivity_linear, "must be > 0"))
    return require_no_overflow(hpbw, "directivity {!r} is too small for a beamwidth", directivity_linear)


_HPBW_TOL_RAD = 1e-9  # bisection stops when the bracket on theta is this narrow


def hpbw_numeric(spec: ArraySpec) -> float:
    """Broadside half-power beamwidth (degrees) of a linear array, located by
    bisection on |f(psi(theta))|^2 = 0.5 around the main lobe.

    Only linear topologies have a pattern model here; planar arrays use
    hpbw_from_directivity.
    """
    if spec.topology != LINEAR:
        raise DomainError("numeric beamwidth is defined for linear arrays only")
    n = spec.elements
    if n < 2:
        raise DomainError("a single element forms no beam")
    sp = spec.spacing_wavelengths
    # each psi below is this times cos(theta) in (0, 1], so finite when this is
    two_pi_sp = require("psi", 2.0 * math.pi * sp, "must be finite")

    def power(theta: float) -> float:
        a = _af(n, two_pi_sp * math.cos(theta))
        return a * a

    # theta of the first pattern null (psi = 2*pi/N), if visible
    cos_null = 1.0 / (n * sp)
    lo = math.acos(cos_null) if cos_null < 1.0 else 0.0
    hi = math.pi / 2.0
    if power(lo) >= 0.5:
        raise DomainError(
            f"main lobe never drops to half power over the visible range "
            f"(N={n}, spacing={sp} wavelengths)"
        )
    # power rises monotonically from the first null to the broadside peak
    while hi - lo > _HPBW_TOL_RAD:
        mid = 0.5 * (lo + hi)
        if power(mid) < 0.5:
            lo = mid
        else:
            hi = mid
    theta_half = 0.5 * (lo + hi)
    return math.degrees(2.0 * (math.pi / 2.0 - theta_half))


_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0  # 1/phi, the golden-section step


def sidelobe_level(spec: ArraySpec) -> float:
    """Peak pattern amplitude outside the main lobe of a linear array.

    The largest sidelobe of an untapered linear array is its first one, the
    single peak of |AF| between the nulls at psi = 2*pi/N and 4*pi/N; a
    golden-section search over that bracket finds it. Returns the amplitude
    ratio (1.0 = main-lobe peak).
    """
    if spec.topology != LINEAR:
        raise DomainError("sidelobe scan is defined for linear arrays only")
    n = spec.elements
    if n < 3:
        raise NoSidelobeError(f"an N={n} array has no sidelobe between its null and the grating lobe")
    a, b = 2.0 * math.pi / n, 4.0 * math.pi / n
    # The bracket shrinks as 1/N, so the tolerance must too beyond N = 1000.
    # It stays 1,000 or more float spacings of the (always normal) bracket for
    # every N, so each step shrinks the bracket and the loop ends, even where
    # `tol` itself is subnormal (N > 4.5e298).
    tol = min(1e-12, 1e-9 / n)
    c, d = b - _INV_PHI * (b - a), a + _INV_PHI * (b - a)
    fc, fd = _af(n, c), _af(n, d)
    while b - a > tol:
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - _INV_PHI * (b - a)
            fc = _af(n, c)
        else:
            a, c, fc = c, d, fd
            d = a + _INV_PHI * (b - a)
            fd = _af(n, d)
    return max(fc, fd)


def amplitude_db_field(amplitude: float) -> float:
    """Amplitude ratio in dB under the field convention, 20*log10."""
    return 20.0 * math.log10(require("amplitude", amplitude, "must be > 0"))


def amplitude_db_power(amplitude: float) -> float:
    """Amplitude ratio through 10*log10.

    Not the field convention, but some published sidelobe figures quote
    exactly this of the amplitude ratio; exposed so both readings are
    available, neither endorsed.
    """
    return 10.0 * math.log10(require("amplitude", amplitude, "must be > 0"))


# The most rows a pattern cut may have: one per millidegree, 100 times finer
# than the default resolution. A finer cut is refused before anything is
# allocated.
MAX_PATTERN_ROWS = 180_001
_RESOLUTION = ("must lie in (0, 90] degrees", f"must be >= {180.0 / (MAX_PATTERN_ROWS - 1)} degrees")


def _pattern_cut(spec: ArraySpec, resolution_deg: float):
    """Columns (theta_rad, psi_rad, amplitude, power_db) of a linear array's
    pattern cut for theta in [0, 180] degrees, as arrays."""
    import numpy as np

    if spec.topology != LINEAR:
        raise DomainError("pattern cuts are defined for linear arrays only")
    steps = int(round(180.0 / require("resolution", resolution_deg, _RESOLUTION)))
    spacing = spec.spacing_wavelengths
    two_pi_sp = require_no_overflow(
        2.0 * math.pi * spacing, "spacing {!r} wavelengths is too large for a pattern cut", spacing
    )
    require_no_overflow(  # N*psi at endfire
        spec.elements * two_pi_sp,
        "element count {!r} and spacing {!r} wavelengths are too large for a pattern cut", spec.elements, spacing,
    )
    thetas = np.linspace(0.0, math.pi, steps + 1)
    psis = two_pi_sp * np.cos(thetas)
    amps = _normalized_af_vec(spec.elements, psis)
    with np.errstate(divide="ignore"):
        power_db = 20.0 * np.log10(amps)
    return thetas, psis, amps, power_db


_PATTERN_HEADER = "theta_deg,psi_rad,amplitude,power_db\n"
_PATTERN_ROW = "%.4f,%.9g,%.9g,%.6g\n"  # '%.6g' renders an exact null as -inf


def pattern_csv(spec: ArraySpec, resolution_deg: float = 0.1) -> str:
    """Pattern cut as CSV (theta_deg, psi_rad, amplitude, power_db)."""
    import numpy as np

    thetas, psis, amps, power_db = _pattern_cut(spec, resolution_deg)
    # one format operation over the row-major flattening of the four columns
    cells = np.column_stack((np.degrees(thetas), psis, amps, power_db)).ravel().tolist()
    return _PATTERN_HEADER + (_PATTERN_ROW * len(thetas)) % tuple(cells)


# Reference catalog of untapered array configurations.
ARRAY_CATALOG: tuple[ArraySpec, ...] = (
    ArraySpec.linear(1),
    ArraySpec.linear(3),
    ArraySpec.linear(7),
    ArraySpec.linear(11),
    ArraySpec.planar(4, 4),
    ArraySpec.planar(8, 8),
    ArraySpec.planar(16, 16),
    ArraySpec.planar(32, 32),
)

_EDGE_DROP_DB = 10.0 * math.log10(2.0)  # half power at the cell border


def select_array(
    required_hpbw_deg: float, catalog=ARRAY_CATALOG
) -> tuple[ArraySpec, float, float]:
    """Choose the catalog array whose approximate HPBW is nearest the target.

    Returns (spec, peak gain dBi, edge gain dBi); the edge of the illuminated
    cell sits at the half-power contour, 3 dB below the peak. Isotropic
    radiators (single elements) have no beam and are skipped.
    """
    require("required beamwidth", required_hpbw_deg, "must be > 0 degrees")
    candidates = [s for s in catalog if not (s.topology == LINEAR and s.elements == 1)]
    if not candidates:
        raise DomainError("array catalog has no directive entries")
    best = min(
        candidates,
        key=lambda s: abs(hpbw_from_directivity(directivity(s)) - required_hpbw_deg),
    )
    peak_dbi = db_from_linear(directivity(best))
    return best, peak_dbi, peak_dbi - _EDGE_DROP_DB


# A star import without `__all__` would also bind the names this module
# imports (`math`, `dataclass`, `require`, ...).
__all__ = [
    "LINEAR", "PLANAR", "HPBW_APPROX_COEFFICIENT", "ArraySpec", "array_factor_magnitude",
    "normalized_array_factor", "psi_from_incidence", "directivity", "gain_from_directivity",
    "effective_aperture", "hpbw_from_directivity", "hpbw_numeric", "amplitude_db_field",
    "amplitude_db_power", "ARRAY_CATALOG", "select_array", "MAX_PATTERN_ROWS", "pattern_csv",
    "sidelobe_level",
]
