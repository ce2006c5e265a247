"""The pattern cut and the sidelobe search of a linear array: the only parts
of satlink that need numpy. Neither needs scipy.

Every caller, the CLI included, reaches these names through
`satlink.antenna`, which loads this module on their first access, so the
rest of the antenna layer loads neither library.
"""

from __future__ import annotations

import math

import numpy as np

from .antenna import LINEAR, ArraySpec, _af
from .errors import DomainError, NoSidelobeError
from .quantities import require, require_no_overflow


def _normalized_af_vec(n: int, psi: np.ndarray) -> np.ndarray:
    den = n * np.sin(psi / 2.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        vals = np.abs(np.where(den == 0.0, 1.0, np.sin(n * psi / 2.0) / den))
    return np.minimum(vals, 1.0)


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


# The most rows a pattern cut may have: one per millidegree, 100 times finer
# than the default resolution. A finer cut is refused before anything is
# allocated.
MAX_PATTERN_ROWS = 180_001
_RESOLUTION = ("must lie in (0, 90] degrees", f"must be >= {180.0 / (MAX_PATTERN_ROWS - 1)} degrees")


def _pattern_cut(spec: ArraySpec, resolution_deg: float):
    """Columns (theta_rad, psi_rad, amplitude, power_db) of a linear array's
    pattern cut for theta in [0, 180] degrees, as arrays."""
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
    thetas, psis, amps, power_db = _pattern_cut(spec, resolution_deg)
    # one format operation over the row-major flattening of the four columns
    cells = np.column_stack((np.degrees(thetas), psis, amps, power_db)).ravel().tolist()
    return _PATTERN_HEADER + (_PATTERN_ROW * len(thetas)) % tuple(cells)
