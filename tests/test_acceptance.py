"""Acceptance gate: the golden worked examples and property suites, each
criterion printed as one PASS/FAIL line (run with `pytest -s` to see them).
"""

import math

import numpy as np

from satlink import antenna as ant
from satlink import capacity as cap
from satlink import constellation as con
from satlink import geometry as geo
from satlink import linkbudget as lb
from satlink import scenario as sc
from satlink.quantities import db_from_linear, linear_from_db


def _report(num: int, title: str, failures: list[str]) -> None:
    status = "FAIL" if failures else "PASS"
    detail = f"  [{'; '.join(failures)}]" if failures else ""
    print(f"[acceptance] criterion {num:02d} {status}: {title}{detail}")
    assert not failures, f"criterion {num}: {failures}"


def _check(failures: list[str], ok: bool, message: str) -> None:
    if not ok:
        failures.append(message)


def _within(value: float, target: float, tol: float) -> bool:
    return abs(value - target) <= tol


def _within_rel(value: float, target: float, rel: float) -> bool:
    return abs(value - target) <= rel * abs(target)


def test_criterion_01_tcp_bound():
    failures = []
    fast = cap.tcp_throughput_bound(1500, 0.2, 1e-9, 1.0)
    _check(failures, _within_rel(fast, 1.9e9, 0.01), f"200 ms case: {fast:.4g}")
    _check(failures, _within_rel(fast, 1.897e9, 0.001), f"200 ms exact: {fast:.6g}")
    slow = cap.tcp_throughput_bound(1500, 0.4, 1e-9, 1.0)
    _check(failures, _within_rel(slow, 950e6, 0.01), f"400 ms case: {slow:.4g}")
    lossy = cap.tcp_throughput_bound(1500, 0.4, 1e-6, 1.0)
    _check(failures, _within_rel(lossy, 30e6, 0.01), f"1e-6 loss case: {lossy:.4g}")
    _report(1, "TCP throughput bound reproduces the three worked rates", failures)


def test_criterion_02_link_budget_chain():
    failures = []
    approx_range = geo.slant_range_altitude_approx(21_000.0, 0.021)
    _check(failures, _within(approx_range, 21_003.0, 2.0), f"slant approx: {approx_range:.1f} km")

    friis = lb.friis_received_power(26.6, 19.95, 1.0, 0.15, 2.1e7)
    _check(failures, _within_rel(friis, 1.71e-16, 0.01), f"received power: {friis:.3e} W")

    path = lb.fspl(2.1e7, 2e9)
    _check(failures, _within(path, 184.9, 0.05), f"path loss: {path:.3f} dB")

    rounded = lb.snr_db(27.4, -30.0, 184.9, 9.6, 0.0, 0.0, 30.0).snr_db
    _check(failures, _within(rounded, 1.5, 0.01), f"ledger with rounded components: {rounded:.4f} dB")

    eirp = db_from_linear(26.6) + 13.0
    g_t = lb.g_over_t(0.0, lb.Receiver(gain_dbi=0.0, nf_db=7.0).noise_temperature_k)
    exact = lb.snr_db(eirp, g_t, path, 9.6, 0.0, 0.0, 30.0).snr_db
    _check(failures, _within(exact, 0.68, 0.05), f"unrounded chain: {exact:.4f} dB")
    _report(2, "MEO S-band link budget chain (slant, received power, FSPL, SNR)", failures)


def test_criterion_03_shannon_and_modcod():
    failures = []
    rate = cap.shannon_capacity(1e3, 1.41)
    _check(failures, _within_rel(rate, 1.27e3, 0.01), f"capacity: {rate:.4g} bps")

    chosen, margin = cap.select_modcod(1.41)
    _check(failures, chosen.name == "CPSK 1/2", f"selected {chosen.name}")
    _check(failures, _within(margin, 0.41, 1e-9), f"margin: {margin!r}")
    bitrate = cap.effective_bitrate(chosen.se_bps_hz, 1e3)
    _check(failures, _within(bitrate, 600.0, 1e-9), f"bitrate: {bitrate!r}")
    _report(3, "Shannon capacity plus MODCOD selection at 1.41 dB", failures)


def test_criterion_04_first_shell_footprint():
    failures = []
    stats = con.shell_stats("S1")
    _check(failures, _within(stats.footprint_diameter_km, 1821.6, 0.1),
           f"diameter: {stats.footprint_diameter_km:.2f} km")
    _check(failures, _within_rel(stats.footprint_area_km2, 2.6e6, 0.01),
           f"area: {stats.footprint_area_km2:.4g} km^2")
    _check(failures, _within(stats.orbit_coverage_fraction, 0.11, 0.005),
           f"coverage: {stats.orbit_coverage_fraction:.4f}")
    _report(4, "Starlink S1 footprint diameter, area and 11% coverage", failures)


def test_criterion_05_multibeam_capacity():
    failures = []
    total = cap.multibeam_capacity(
        se_bps_hz=2.0, bandwidth_hz=1.5e9, polarizations=2, beams=60, colors=7, guard_fraction=0.1
    )
    product = 2.0 * 1.5e9 * (2 * 60 / 7) * 0.9
    _check(failures, total == product, f"product mismatch: {total!r} vs {product!r}")
    _check(failures, round(total / 1e9, 2) == 46.29, f"rounded: {total / 1e9:.4f}")
    _check(failures, f"{total / 1e9:.2g}" == "46", f"2-digit form: {total / 1e9:.2g}")
    _report(5, "Multi-beam Ku payload totals 46.29 Gb/s (46 at 2 digits)", failures)


def test_criterion_06_sinr_combination():
    failures = []
    combined = lb.combine_snr_sir(8.0, 4.0)
    _check(failures, _within(combined, 2.67, 0.01), f"combined: {combined:.4f}")
    _check(failures, _within(db_from_linear(combined), 4.26, 0.02),
           f"in dB: {db_from_linear(combined):.4f}")
    rng = np.random.default_rng(1234)
    for snr in 10.0 ** rng.uniform(-2, 4, size=100):
        if lb.combine_snr_sir(snr, math.inf) != snr:
            failures.append(f"interference-free limit broken at snr={snr!r}")
            break
    _report(6, "SNR/SIR combination and interference-free limit", failures)


def test_criterion_07_beam_selection():
    failures = []
    hpbw_deg = math.degrees(geo.required_hpbw(50.0, 500.0))
    _check(failures, _within(hpbw_deg, 11.4, 0.05), f"required hpbw: {hpbw_deg:.4f} deg")
    spec, peak, edge = ant.select_array(hpbw_deg)
    _check(failures, spec.label == "planar-8x8", f"selected {spec.label}")
    _check(failures, _within(edge, 20.0, 0.05), f"edge gain: {edge:.4f} dBi")
    _report(7, "Cell illumination picks the 8x8 planar array with 20 dBi edge gain", failures)


def test_criterion_08_modcod_table_validation():
    failures = []
    _check(failures, len(cap.MODCOD_TABLE) == 9, f"{len(cap.MODCOD_TABLE)} rows")
    for m in cap.MODCOD_TABLE:
        bound = cap.max_spectral_efficiency(linear_from_db(m.snr_qef_db))
        _check(failures, m.se_bps_hz < bound, f"{m.name} beats the Shannon bound")
        chosen, margin = cap.select_modcod(m.snr_qef_db)
        _check(failures, chosen == m and margin == 0.0,
               f"threshold selection failed for {m.name}")
    _report(8, "All 9 MODCOD rows are Shannon-dominant and threshold-selectable", failures)


def test_criterion_09_array_catalog_regression():
    failures = []
    expectations = [
        (ant.ArraySpec.linear(1), 0.0, None),
        (ant.ArraySpec.linear(3), 4.7, 104.0),
        (ant.ArraySpec.linear(7), 8.4, 68.0),
        (ant.ArraySpec.linear(11), 10.4, 54.0),
        (ant.ArraySpec.planar(4, 4), 17.0, 25.0),
        (ant.ArraySpec.planar(8, 8), 23.0, 12.7),
        (ant.ArraySpec.planar(16, 16), 29.0, 6.4),
        (ant.ArraySpec.planar(32, 32), 35.0, 3.2),
    ]
    _check(failures, len(ant.ARRAY_CATALOG) == len(expectations),
           f"catalog has {len(ant.ARRAY_CATALOG)} rows")
    for spec, dbi, hpbw in expectations:
        d = ant.directivity(spec)
        _check(failures, _within(db_from_linear(d), dbi, 0.1), f"{spec.label}: {db_from_linear(d):.3f} dBi vs {dbi}")
        if hpbw is not None:
            w = ant.hpbw_from_directivity(d)
            _check(failures, _within(w, hpbw, 0.5), f"{spec.label}: {w:.3f} deg vs {hpbw}")
    _report(9, "All 8 catalog arrays reproduce directivity (0.1 dB) and HPBW (0.5 deg)", failures)


def test_criterion_10_terminal_figures_of_merit():
    failures = []
    handset = lb.Receiver(gain_dbi=0.0, nf_db=7.0).g_over_t_dbk
    _check(failures, _within(handset, -30.66, 0.01), f"handset: {handset:.4f}")
    _check(failures, _within(handset, -30.0, 0.7), f"handset vs quoted -30: {handset:.4f}")
    vsat = lb.Receiver(gain_dbi=12.0, nf_db=5.0).g_over_t_dbk
    _check(failures, _within(vsat, -15.97, 0.01), f"vsat: {vsat:.4f}")
    _check(failures, _within(vsat, -16.0, 0.05), f"vsat vs quoted -16: {vsat:.4f}")
    iot = lb.Receiver(gain_dbi=0.0, noise_temp_k=290.0).g_over_t_dbk
    _check(failures, _within(iot, -24.62, 0.01), f"iot: {iot:.4f}")
    _check(failures, _within(iot, -24.6, 0.05), f"iot vs quoted -24.6: {iot:.4f}")
    _report(10, "Terminal G/T figures (handset, VSAT, IoT)", failures)


def test_criterion_11_sidelobe_scan():
    failures = []
    ten = ant.sidelobe_level(ant.ArraySpec.linear(10))
    _check(failures, _within(ten, 0.22, 0.01), f"N=10: {ten:.4f}")
    three = ant.sidelobe_level(ant.ArraySpec.linear(3))
    _check(failures, _within(three, 1.0 / 3.0, 0.002), f"N=3: {three:.5f}")
    _check(failures, _within(three, 0.35, 0.02), f"N=3 vs quoted 0.35: {three:.5f}")
    levels = [ant.sidelobe_level(ant.ArraySpec.linear(n)) for n in range(3, 11)]
    _check(failures, all(a > b for a, b in zip(levels, levels[1:])),
           f"not strictly decreasing: {[f'{l:.4f}' for l in levels]}")
    _report(11, "Sidelobe levels (N=3 and N=10) and monotone decrease", failures)


def test_criterion_12_project_fixtures():
    failures = []
    fixtures = sc.builtin_fixtures()
    _check(failures, len(fixtures) == 8, f"{len(fixtures)} fixtures")

    thales = sc.run_scenario(sc.fixture("thales"))
    dl = thales.finding("bitrate_bps", "dl")
    _check(failures, dl.status == sc.CONSISTENT and _within_rel(dl.computed, 13.5e6, 1e-12),
           f"thales downlink: {dl.computed!r}")
    ul = thales.finding("bitrate_bps", "ul")
    _check(failures, ul.status == sc.CONSISTENT and _within_rel(ul.computed, 360e3, 1e-12),
           f"thales uplink: {ul.computed!r}")

    cell = sc.run_scenario(sc.fixture("intelsat-haps")).finding("cell_radius_km")
    _check(failures, cell.computed == 12.5, f"cell radius: {cell.computed!r}")

    for s in fixtures:
        for case in s.cases:
            if case.sinr_db is None or case.se_bps_hz is None:
                continue
            bound = cap.max_spectral_efficiency(linear_from_db(case.sinr_db))
            _check(failures, case.se_bps_hz <= bound + 1e-9,
                   f"{s.name}/{case.label}: SE {case.se_bps_hz} above bound {bound:.3f}")

    inmarsat = sc.run_scenario(sc.fixture("inmarsat-geo-iot")).finding("bitrate_bps", "dl")
    _check(failures, inmarsat.status == sc.INCONSISTENT, "narrowband mismatch not flagged")
    _check(failures, _within_rel(inmarsat.computed, 134e3, 1e-9) and _within_rel(inmarsat.reported, 112e3, 1e-9),
           f"narrowband figures: {inmarsat.computed!r} vs {inmarsat.reported!r}")
    _report(12, "All 8 project fixtures load, check out and flag the known mismatch", failures)


def test_criterion_13_property_suites():
    failures = []
    rng = np.random.default_rng(99)

    # dB round trip over 1e5 log-uniform points in [1e-20, 1e20]
    x = 10.0 ** rng.uniform(-20, 20, size=100_000)
    worst = max(abs(linear_from_db(db_from_linear(v)) - v) / v for v in x.tolist())
    _check(failures, worst <= 1e-12, f"dB round trip worst rel error {worst:.2e}")

    # spectral-efficiency inverse identity on 1e4 points in [1e-6, 1e4]
    snrs = 10.0 ** rng.uniform(-6, 4, size=10_000)
    for s in snrs[:: max(1, len(snrs) // 10_000)]:
        round_trip = cap.required_snr(cap.max_spectral_efficiency(float(s)))
        if not _within_rel(round_trip, float(s), 1e-12):
            failures.append(f"SE inverse broke at snr={s!r}")
            break

    # additive dB ledger equals the watts path for 1e3 loss-free budgets
    worst_gap = 0.0
    for _ in range(1_000):
        p_t = 10.0 ** rng.uniform(-1, 3)
        g_t = rng.uniform(0, 40)
        g_r = rng.uniform(0, 40)
        t_k = rng.uniform(50, 2000)
        bw = 10.0 ** rng.uniform(3, 8)
        d = 10.0 ** rng.uniform(4, 7.6)
        f = 10.0 ** rng.uniform(8.5, 10.5)
        tx = lb.Transmitter(power_w=p_t, gain_dbi=g_t)
        rx = lb.Receiver(gain_dbi=g_r, noise_temp_k=t_k)
        result = lb.link_budget(tx, rx, d, f, bw)
        watts_db = db_from_linear(result.received_power_w / result.noise_power_w)
        worst_gap = max(worst_gap, abs(watts_db - result.snr_db))
    _check(failures, worst_gap <= 1e-6, f"dB-vs-watts gap {worst_gap:.2e} dB")

    # normalized pattern bounded by 1 with the un-normalized peak equal to N
    psis = np.linspace(-4 * math.pi, 4 * math.pi, 4001)
    for n in range(1, 65):
        values = [ant.normalized_array_factor(n, float(p)) for p in psis]
        _check(failures, max(values) <= 1.0, f"pattern exceeded 1 at N={n}")
        _check(failures, ant.array_factor_magnitude(n, 0.0) == float(n), f"peak != N at N={n}")
        if failures:
            break

    # zenith slant range equals the altitude for 1e3 random altitudes
    for h in rng.uniform(1.0, 50_000.0, size=1_000):
        if not _within_rel(geo.slant_range_exact(float(h), math.pi / 2), float(h), 1e-9):
            failures.append(f"zenith identity broke at h={h!r}")
            break

    _report(13, "Bulk property suites (round trips, ledger equivalence, patterns, zenith)", failures)
