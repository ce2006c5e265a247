"""Orbit-to-ground geometry: slant range, footprints, coverage, beam cells."""

from __future__ import annotations

import math

from .quantities import DEFAULT_CONSTANTS, PhysicalConstants, require, require_no_overflow


def slant_range_exact(
    altitude_km: float,
    elevation_rad: float,
    constants: PhysicalConstants = DEFAULT_CONSTANTS,
) -> float:
    """Line-of-sight distance (km) from ground to spacecraft.

    Law-of-cosines solution on the spherical Earth, with q = h^2 + 2*Re*h:
        d = -Re*sin(a) + sqrt(Re^2*sin(a)^2 + q) = q / (sqrt(Re^2*sin(a)^2 + q) + Re*sin(a)),
    computed in the second form, which keeps the digits of a tiny altitude.
    It collapses to the altitude at zenith (a = 90 deg) and to the horizon
    radical at a = 0.
    """
    require("altitude", altitude_km, "must be > 0 km")
    require("elevation", elevation_rad, "must lie in [0, pi/2] rad")
    re = constants.earth_radius_km
    s = math.sin(elevation_rad)
    q = altitude_km * (altitude_km + 2.0 * re)
    denominator = require_no_overflow(
        math.sqrt(re * re * s * s + q) + re * s,
        "altitude {} km and Earth radius {} km are too large for a slant range", altitude_km, re,
    )
    return q / denominator if q else 0.0  # q underflows to 0 only when h and Re both do


def slant_range_altitude_approx(altitude_km: float, elevation_rad: float) -> float:
    """Altitude-only slant-range estimate d = sqrt(h^2 + (h*tan(a))^2) = h/cos(a).

    Classical quick estimate for MEO/GEO links where d is close to the orbit
    altitude. Note that it grows with elevation, which is geometrically
    inverted relative to the exact formula; it is kept verbatim for
    compatibility with the worked examples that use it at small angles.
    """
    require("altitude", altitude_km, "must be > 0 km")
    require("elevation", elevation_rad, "must lie in [0, pi/2) rad")
    t = math.tan(elevation_rad)
    return require_no_overflow(
        altitude_km * math.sqrt(1.0 + t * t),
        "altitude {} km at elevation {} rad is too large for a slant range", altitude_km, elevation_rad,
    )


def footprint_diameter(
    sats_per_orbit: float, constants: PhysicalConstants = DEFAULT_CONSTANTS
) -> float:
    """Per-satellite footprint diameter (km): Earth perimeter split across one orbit."""
    return constants.earth_perimeter_km / require("satellites per orbit", sats_per_orbit, "must be >= 1")


def footprint_area(diameter_km: float) -> float:
    """Disk area (km^2) of a footprint diameter."""
    require("diameter", diameter_km, "must be > 0 km")
    try:
        square = (diameter_km / 2.0) ** 2
    except OverflowError:  # above about 2.7e154 km
        square = math.inf
    return require_no_overflow(math.pi * square, "diameter {} km is too large for a footprint area", diameter_km)


def earth_coverage_fraction(
    sats: float, area_per_sat_km2: float, constants: PhysicalConstants = DEFAULT_CONSTANTS
) -> float:
    """Fraction of the Earth surface covered by `sats` disjoint footprints.

    Overlap and polar geometry are deliberately ignored; this is the flat
    first-order estimate, capped at 1. A fraction that underflows to 0 is refused.
    """
    require("satellite count", sats, "must be >= 1")
    require("area", area_per_sat_km2, "must be > 0 km^2")
    fraction = min(1.0, sats * area_per_sat_km2 / constants.earth_surface_km2)
    return require("coverage fraction", fraction, "must lie in (0, 1]")


def cell_radius_from_split(parent_radius_km: float, n_beams: float) -> float:
    """Radius of each cell when a coverage disk is split across n equal beams.

    Area-conserving: n * area(child) == area(parent).
    """
    require("parent radius", parent_radius_km, "must be > 0 km")
    require("beam count", n_beams, "must be >= 1")
    return parent_radius_km / math.sqrt(n_beams)


def required_hpbw(cell_radius_km: float, altitude_km: float) -> float:
    """Half-power beamwidth (radians) needed to illuminate a cell from altitude.

    Full opening angle of the cone subtending the cell: 2*atan(R/h).
    """
    require("cell radius", cell_radius_km, "must be >= 0 km")
    require("altitude", altitude_km, "must be > 0 km")
    return 2.0 * math.atan(cell_radius_km / altitude_km)
