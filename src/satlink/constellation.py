"""Catalog of public LEO mega-constellation shells with footprint statistics."""

from __future__ import annotations


from .errors import NotFoundError
from .geometry import earth_coverage_fraction, footprint_area, footprint_diameter
from .quantities import DEFAULT_CONSTANTS, PhysicalConstants, _show, record, require, require_count


@record
class Shell:
    """One constellation shell: a set of orbits sharing altitude/inclination."""

    constellation: str
    shell_id: str
    altitude_km: float
    orbits: int
    sats_per_orbit: int
    inclination_deg: float

    def __post_init__(self):
        require("altitude", self.altitude_km, "must be > 0 km")
        require_count("orbit count", self.orbits, "must be >= 1")
        require_count("satellites per orbit", self.sats_per_orbit, "must be >= 1")
        require("inclination", self.inclination_deg, "must lie in (0, 180] degrees")

    @property
    def total_satellites(self) -> int:
        return self.orbits * self.sats_per_orbit


SHELLS: tuple[Shell, ...] = (
    Shell("Starlink", "S1", 550.0, 72, 22, 53.0),
    Shell("Starlink", "S2", 1110.0, 32, 50, 53.8),
    Shell("Starlink", "S3", 1130.0, 8, 50, 74.0),
    Shell("Starlink", "S4", 1275.0, 5, 75, 81.0),
    Shell("Starlink", "S5", 1325.0, 6, 75, 70.0),
    Shell("Kuiper", "K1", 630.0, 34, 34, 51.9),
    Shell("Kuiper", "K2", 610.0, 36, 36, 42.0),
    Shell("Kuiper", "K3", 590.0, 28, 28, 33.0),
    Shell("Telesat", "T1", 1015.0, 27, 13, 98.98),
    Shell("Telesat", "T2", 1325.0, 40, 33, 50.88),
)


def list_shells() -> tuple[Shell, ...]:
    return SHELLS


def get_shell(shell_id: str) -> Shell:
    for s in SHELLS:
        if s.shell_id == shell_id:
            return s
    ids = [s.shell_id for s in SHELLS]
    raise NotFoundError(f"unknown shell {_show(shell_id)}; valid ids: {', '.join(ids)}", valid_ids=ids)


@record
class ShellStats:
    """Footprint and coverage figures for one shell.

    `orbit_coverage_fraction` follows the single-orbit estimate (one orbit's
    satellites against the whole Earth surface); `shell_coverage_fraction`
    extrapolates the same per-satellite footprint to every orbit of the
    shell and is capped at 1 - an optimistic upper bound, not a model.
    """

    shell_id: str
    footprint_diameter_km: float
    footprint_area_km2: float
    orbit_coverage_fraction: float
    shell_coverage_fraction: float
    total_satellites: int


def shell_stats(shell_id: str, constants: PhysicalConstants = DEFAULT_CONSTANTS) -> ShellStats:
    """Per-satellite footprint and coverage statistics for a catalog shell."""
    shell = get_shell(shell_id)
    diameter = footprint_diameter(shell.sats_per_orbit, constants)
    area = footprint_area(diameter)
    one_orbit = earth_coverage_fraction(shell.sats_per_orbit, area, constants)
    whole_shell = earth_coverage_fraction(shell.total_satellites, area, constants)
    return ShellStats(
        shell_id=shell.shell_id,
        footprint_diameter_km=diameter,
        footprint_area_km2=area,
        orbit_coverage_fraction=one_orbit,
        shell_coverage_fraction=whole_shell,
        total_satellites=shell.total_satellites,
    )
