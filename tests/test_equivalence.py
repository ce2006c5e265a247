"""The fast forms of two hot spots against the plain forms they stand for.

`capacity.select_modcod` bisects a ladder built once per catalog; here it is
compared with a brute-force scan of the catalog (the selection rule written
out directly). `linkbudget._ledger` sums the dB ledger into an SNR; here its
record is compared, in every dataclass behaviour and as a document, with the
one the public `LinkBudgetResult(...)` constructor builds from that sum
written out.
"""

from __future__ import annotations

import dataclasses
import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from satlink import capacity as cap
from satlink import linkbudget as lb
from satlink.errors import DomainError, NoFeasibleModcodError
from satlink.quantities import DEFAULT_CONSTANTS, PhysicalConstants, linear_from_db, record_doc

# --- MODCOD selection ----------------------------------------------------------------


def reference_select(snr_db: float, entries) -> tuple[cap.ModCod, float]:
    """The selection rule as a scan over the whole catalog."""
    eligible = [m for m in entries if m.snr_qef_db <= snr_db]
    if not eligible:
        floor = min(entries, key=lambda m: m.snr_qef_db)
        raise NoFeasibleModcodError(
            f"snr {snr_db:g} dB is below the catalog floor "
            f"({floor.name} needs {floor.snr_qef_db:g} dB)",
            floor=floor,
        )
    best = max(eligible, key=lambda m: (m.se_bps_hz, -m.snr_qef_db))
    return best, snr_db - best.snr_qef_db


def is_monotone(entries) -> bool:
    """No entry offers a higher spectral efficiency at a lower SNR requirement."""
    return not any(b.se_bps_hz > a.se_bps_hz and b.snr_qef_db < a.snr_qef_db for a in entries for b in entries)


# A coarse grid, so that catalogs tie on requirement and on efficiency.
SNR_GRID = [x / 2 for x in range(-6, 21)]
SHARES = [0.3, 0.5, 0.7, 0.9]
NAMES = ["A", "B", "C"]


def _shannon_se(snr_db: float) -> float:
    return math.log2(1.0 + linear_from_db(snr_db))


@st.composite
def valid_catalogs(draw):
    """Monotone catalogs in a random order, with ties on SE, on SNR and on both,
    and with entries that are equal (same name and figures) but distinct objects."""
    rows = draw(st.lists(st.tuples(st.sampled_from(SNR_GRID), st.sampled_from(SHARES), st.sampled_from(NAMES)),
                         min_size=1, max_size=8))
    rows.sort(key=lambda row: row[0])
    entries, top = [], 0.0
    for snr, share, name in rows:
        # a running maximum keeps SE non-decreasing with the requirement and
        # below the Shannon bound, which only grows with the requirement
        se = top = max(top, share * _shannon_se(snr))
        entries.append(cap.ModCod(name, se, snr))
    if draw(st.booleans()):
        twin = draw(st.sampled_from(entries))
        entries.append(cap.ModCod(twin.name, twin.se_bps_hz, twin.snr_qef_db))
    return draw(st.permutations(entries))


@st.composite
def any_catalogs(draw):
    """Catalogs that may break the monotonicity rule."""
    rows = draw(st.lists(st.tuples(st.sampled_from(SNR_GRID), st.sampled_from(SHARES)), min_size=1, max_size=6))
    return [cap.ModCod(f"m{i}", share * _shannon_se(snr), snr) for i, (snr, share) in enumerate(rows)]


def probe_snrs(entries) -> list[float]:
    """Each requirement, the float just below it, and values off both ends."""
    snrs = []
    for m in entries:
        snrs += [m.snr_qef_db, math.nextafter(m.snr_qef_db, -math.inf), m.snr_qef_db + 0.25]
    low = min(m.snr_qef_db for m in entries)
    return [*snrs, low - 1.0, -1e300, 1e300]


def outcome(select, snr_db, entries):
    """(pick, margin, None) or (None, floor, message), with objects kept for identity checks."""
    try:
        pick, margin = select(snr_db, entries)
    except NoFeasibleModcodError as exc:
        return None, exc.floor, str(exc)
    return pick, margin, None


def assert_same(got, want):
    assert got[0] is want[0] and got[1] is not None
    if want[0] is None:  # the floor is the same object and the message the same text
        assert got[1] is want[1] and got[2] == want[2]
    else:
        assert got[1] == want[1]


@given(valid_catalogs())
def test_select_matches_the_scan_on_user_catalogs(entries):
    for snr in probe_snrs(entries):
        assert_same(outcome(cap.select_modcod, snr, entries), outcome(reference_select, snr, entries))


def test_select_matches_the_scan_on_the_reference_table():
    table = cap.MODCOD_TABLE
    for snr in probe_snrs(table) + [x / 100 for x in range(-500, 1500)]:
        assert_same(outcome(cap.select_modcod, snr, table), outcome(reference_select, snr, table))


def test_ties_resolve_to_the_lower_requirement_then_catalog_order():
    first, twin = cap.ModCod("first", 0.5, 1.0), cap.ModCod("first", 0.5, 1.0)
    hungry = cap.ModCod("hungry", 0.5, 2.0)
    for entries in ([hungry, first, twin], [first, hungry, twin], [first, twin, hungry]):
        assert cap.select_modcod(5.0, entries)[0] is first
    with pytest.raises(NoFeasibleModcodError) as err:
        cap.select_modcod(0.5, [hungry, twin, first])
    assert err.value.floor is twin


def test_floor_tie_on_requirement_names_the_first_in_catalog_order():
    low, high = cap.ModCod("low", 0.3, 1.0), cap.ModCod("high", 0.6, 1.0)
    for entries in ([low, high], [high, low]):
        with pytest.raises(NoFeasibleModcodError) as err:
            cap.select_modcod(0.0, entries)
        assert err.value.floor is entries[0]
        assert str(err.value) == f"snr 0 dB is below the catalog floor ({entries[0].name} needs 1 dB)"
        assert cap.select_modcod(1.0, entries)[0] is high


@given(any_catalogs(), st.randoms(use_true_random=False))
def test_validation_is_the_pairwise_rule_in_any_order(entries, rng):
    shuffled = list(entries)
    rng.shuffle(shuffled)
    for order in (entries, shuffled, entries[::-1]):
        if is_monotone(entries):
            assert cap.validate_catalog(order) == tuple(order)
        else:
            with pytest.raises(DomainError, match="catalog not monotone"):
                cap.validate_catalog(order)


def test_validation_does_not_depend_on_input_order():
    a1, a2, b = cap.ModCod("A1", 0.5, 5.0), cap.ModCod("A2", 0.5, 1.0), cap.ModCod("B", 0.8, 3.0)
    message = "catalog not monotone: B offers more throughput than A1 at a lower SNR requirement"
    for entries in ([a1, a2, b], [a2, a1, b]):
        with pytest.raises(DomainError) as err:
            cap.validate_catalog(entries)
        assert str(err.value) == message


# --- the link-budget record --------------------------------------------------------------

FINITE = st.floats(-1e3, 1e3)
LOSS = st.floats(0.0, 1e3)
WATTS = st.none() | st.floats(1e-30, 1e3)
CODATA = PhysicalConstants(c_m_per_s=299792458.0, boltzmann_j_per_k=1.380649e-23)
CONSTANTS = st.sampled_from([DEFAULT_CONSTANTS, CODATA])


@given(FINITE, FINITE, LOSS, LOSS, LOSS, LOSS, FINITE, CONSTANTS, WATTS, WATTS)
def test_ledger_builds_the_public_record(eirp, gt, fspl, atm, ad, margin, bw, constants, rx_w, n_w):
    got = lb._ledger(eirp, gt, fspl, atm, ad, margin, bw, constants, rx_w, n_w)
    k_db = constants.boltzmann_dbw_per_k_hz
    snr = eirp + gt - fspl - atm - ad - margin - bw - k_db
    want = lb.LinkBudgetResult(eirp, gt, fspl, atm, ad, margin, bw, k_db, snr, rx_w, n_w)
    assert type(got) is lb.LinkBudgetResult
    assert got == want and hash(got) == hash(want) and repr(got) == repr(want)
    assert vars(got) == vars(want) and list(vars(got)) == list(vars(want))
    assert dataclasses.asdict(got) == dataclasses.asdict(want)
    assert dataclasses.replace(got, snr_db=1.0) == dataclasses.replace(want, snr_db=1.0)
    assert record_doc(got) == record_doc(want)
    with pytest.raises(dataclasses.FrozenInstanceError):
        got.snr_db = 0.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        del got.eirp_dbw


def test_both_public_paths_return_the_public_record():
    bare = lb.snr_db(40.0, 1.0, 160.0, bw_dbhz=60.0)
    assert bare == lb.LinkBudgetResult(*(getattr(bare, f.name) for f in dataclasses.fields(bare)))
    assert bare.received_power_w is None and bare.noise_power_w is None
    full = lb.link_budget(lb.Transmitter(10.0, 13.0), lb.Receiver(0.0, nf_db=7.0), 1e6, 2e9, 1e6)
    assert full == lb.LinkBudgetResult(*(getattr(full, f.name) for f in dataclasses.fields(full)))
    assert full.received_power_w > 0 and full.noise_power_w > 0
