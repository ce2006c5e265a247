"""Phased-array radiation math.

Linear equally-spaced arrays get a full pattern treatment (array factor,
numeric half-power beamwidth, sidelobe search); planar rectangular arrays are
characterized by their maximum directivity N*pi and the symmetric-beam
HPBW approximation, which is how the reference catalog below is generated.
All arrays are untapered (uniformly weighted).

Only the pattern cut and the sidelobe search need numpy, and neither needs
scipy. They live in `satlink._pattern`, whose names (`_PATTERN_NAMES` below)
load through this module on first access, so array selection, directivity
and the beamwidths load no numpy.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from .errors import DomainError
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


# The names defined in `_pattern`, the one antenna module that needs numpy.
# `_pattern_cut` is the pattern cut as arrays, finer than its CSV.
_PATTERN_NAMES = ("MAX_PATTERN_ROWS", "_pattern_cut", "pattern_csv", "sidelobe_level")

# A star import copies only names already in the module globals unless
# `__all__` lists them, so the public pattern names are listed here too.
__all__ = [
    "LINEAR", "PLANAR", "HPBW_APPROX_COEFFICIENT", "ArraySpec", "array_factor_magnitude",
    "normalized_array_factor", "psi_from_incidence", "directivity", "gain_from_directivity",
    "effective_aperture", "hpbw_from_directivity", "hpbw_numeric", "amplitude_db_field",
    "amplitude_db_power", "ARRAY_CATALOG", "select_array", "MAX_PATTERN_ROWS", "pattern_csv",
    "sidelobe_level",
]


def __getattr__(name):
    if name not in _PATTERN_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # an import statement, unlike importlib.import_module, shows in `python -X importtime`
    from . import _pattern

    value = globals()[name] = getattr(_pattern, name)
    return value


def __dir__():
    return sorted({*globals(), *_PATTERN_NAMES})
