"""Golden values of the linear-array searches, and an independent reference.

`golden/antenna.json` holds `repr(hpbw_numeric(...))`, or the error type and
message, for N = 2..299 at six spacings, and `sidelobe_level(...)` for
N = 3..512, as computed by a reference commit. The beamwidth must match
exactly; the sidelobe level within 1e-15, since its search may land on a
neighbouring float of the same peak.

`python tests/test_antenna_golden.py` rewrites the file from the code it
imports. Run it only at a commit whose behaviour is the reference.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import pytest

from satlink import antenna
from satlink.errors import SatlinkError

GOLDEN = Path(__file__).parent / "golden" / "antenna.json"

HPBW_ELEMENTS = range(2, 300)
HPBW_SPACINGS = (0.1, 0.25, 0.5, 0.7, 1.0, 1.5)
SIDELOBE_ELEMENTS = range(3, 513)


def hpbw_outcome(n: int, spacing: float) -> list[str]:
    """["ok", repr of the beamwidth] or [exception type, message]."""
    try:
        return ["ok", repr(antenna.hpbw_numeric(antenna.ArraySpec.linear(n, spacing)))]
    except SatlinkError as exc:
        return [type(exc).__name__, str(exc)]


def first_sidelobe_reference(n: int) -> float:
    """|AF| at the first sidelobe peak, by bisection on the sign of the
    derivative of sin(n*x/2) / sin(x/2) between the nulls 2*pi/n and 4*pi/n.

    The sign is that of n*cos(n*x/2)*sin(x/2) - sin(n*x/2)*cos(x/2): negative
    after the first null, positive before the second.
    """
    def slope(x: float) -> float:
        return n * math.cos(n * x / 2) * math.sin(x / 2) - math.sin(n * x / 2) * math.cos(x / 2)

    lo, hi = 2 * math.pi / n, 4 * math.pi / n
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        if slope(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    x = 0.5 * (lo + hi)
    return abs(math.sin(n * x / 2) / (n * math.sin(x / 2)))


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


def test_hpbw_numeric_corpus(golden):
    expected = golden["hpbw_numeric"]
    assert len(expected) == len(HPBW_ELEMENTS) * len(HPBW_SPACINGS)
    diffs = [
        (key, want, got)
        for key, want in expected.items()
        if (got := hpbw_outcome(int(key.split(",")[0]), float(key.split(",")[1]))) != want
    ]
    assert not diffs, "\n".join(f"{key}: want {want}, got {got}" for key, want, got in diffs[:10])


def test_sidelobe_level_corpus(golden):
    expected = golden["sidelobe_level"]
    assert len(expected) == len(SIDELOBE_ELEMENTS)
    diffs = [
        (n, want, got)
        for n, want in zip(SIDELOBE_ELEMENTS, expected)
        if abs((got := antenna.sidelobe_level(antenna.ArraySpec.linear(n))) - want) > 1e-15
    ]
    assert not diffs, "\n".join(f"N={n}: want {want!r}, got {got!r}" for n, want, got in diffs[:10])


def test_sidelobe_level_matches_derivative_bisection():
    diffs = [
        (n, want, got)
        for n in SIDELOBE_ELEMENTS
        if abs((got := antenna.sidelobe_level(antenna.ArraySpec.linear(n)))
               - (want := first_sidelobe_reference(n))) > 1e-12
    ]
    assert not diffs, "\n".join(f"N={n}: reference {want!r}, got {got!r}" for n, want, got in diffs[:10])


@pytest.mark.parametrize("n", [10**k for k in range(4, 11)])
def test_sidelobe_level_matches_derivative_bisection_for_large_arrays(n):
    got = antenna.sidelobe_level(antenna.ArraySpec.linear(n))
    assert abs(got - first_sidelobe_reference(n)) <= 1e-15


def _capture() -> None:
    """Write golden/antenna.json from the imported satlink."""
    hpbw = [
        f"  {json.dumps(f'{n},{spacing!r}')}: {json.dumps(hpbw_outcome(n, spacing))}"
        for n in HPBW_ELEMENTS for spacing in HPBW_SPACINGS
    ]
    sidelobe = [f"  {antenna.sidelobe_level(antenna.ArraySpec.linear(n))!r}" for n in SIDELOBE_ELEMENTS]
    GOLDEN.write_text(
        '{\n"hpbw_numeric": {\n' + ",\n".join(hpbw) + '\n},\n"sidelobe_level": [\n' + ",\n".join(sidelobe) + "\n]\n}\n"
    )


if __name__ == "__main__":
    _capture()
