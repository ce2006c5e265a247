"""Documents of hand-built records, key for key and in order.

The CLI and golden corpora reach these records only through the bundled
fixtures and flags; this pins the shapes they do not reach: a null label,
empty and non-empty `missing`, each noise form of a terminal and a ledger
with and without its watts fields.
"""

from __future__ import annotations

from satlink import linkbudget as lb
from satlink import scenario as sc
from satlink.quantities import record_doc


def items(doc: dict) -> list:
    return list(doc.items())


def test_link_case_docs():
    assert items(record_doc(sc.LinkCase("dl", label=None))) == [("direction", "dl"), ("label", None)]
    assert items(record_doc(sc.LinkCase("ul"))) == [("direction", "ul"), ("label", "nominal")]
    case = sc.LinkCase("ul", "edge", sinr_db=0.0, se_bps_hz=1.5, bitrate_mbps=2.0, bw_mhz=5.0)
    assert items(record_doc(case)) == [
        ("direction", "ul"), ("label", "edge"), ("sinr_db", 0.0), ("se_bps_hz", 1.5), ("bitrate_mbps", 2.0),
        ("bw_mhz", 5.0),
    ]
    assert items(record_doc(sc.LinkCase("dl", "x", bw_mhz=3.0))) == [
        ("direction", "dl"), ("label", "x"), ("bw_mhz", 3.0),
    ]


def test_finding_docs():
    bare = sc.Finding("slant_range_km", sc.COMPUTED, computed=600.0)
    assert items(bare.to_doc()) == [("quantity", "slant_range_km"), ("status", "computed"), ("computed", 600.0)]
    missing = sc.Finding("bitrate_bps", sc.NOT_COMPUTABLE, direction="ul", label="edge", reported=1e6,
                         missing=("se_bps_hz", "bw_mhz"))
    doc = missing.to_doc()
    assert items(doc) == [
        ("quantity", "bitrate_bps"), ("status", "not_computable"), ("direction", "ul"), ("label", "edge"),
        ("reported", 1e6), ("missing", ["se_bps_hz", "bw_mhz"]),
    ]
    assert type(doc["missing"]) is list
    full = sc.Finding("band", sc.INCONSISTENT, direction="dl", label=None, computed="S", reported="L", delta=0.0)
    assert items(full.to_doc()) == [
        ("quantity", "band"), ("status", "inconsistent"), ("direction", "dl"), ("computed", "S"), ("reported", "L"),
        ("delta", 0.0),
    ]
    assert sc.Finding.from_doc(missing.to_doc()) == missing


def test_terminal_profile_docs():
    by_figure = sc.TerminalProfile("t", 1.0, nf_db=0.0)
    assert items(record_doc(by_figure)) == [("name", "t"), ("gain_dbi", 1.0), ("nf_db", 0.0)]
    by_temperature = sc.TerminalProfile("u", -2.0, noise_temp_k=300.0, eirp_dbm=0.0)
    assert items(record_doc(by_temperature)) == [
        ("name", "u"), ("gain_dbi", -2.0), ("noise_temp_k", 300.0), ("eirp_dbm", 0.0),
    ]
    assert items(record_doc(sc.TERMINALS["vsat"])) == [("name", "vsat"), ("gain_dbi", 12.0), ("nf_db", 5.0),
                                                    ("eirp_dbm", 45.0)]


LEDGER_KEYS = [
    "eirp_dbw", "g_over_t_dbk", "fspl_db", "atm_loss_db", "ad_loss_db", "margin_db", "bw_dbhz",
    "boltzmann_dbw_per_k_hz", "snr_db",
]


def test_link_budget_result_docs():
    values = [float(i) for i in range(9)]
    assert items(record_doc(lb.LinkBudgetResult(*values))) == list(zip(LEDGER_KEYS, values))
    watts = record_doc(lb.LinkBudgetResult(*values, received_power_w=1e-12, noise_power_w=0.0))
    assert items(watts) == [*zip(LEDGER_KEYS, values), ("received_power_w", 1e-12), ("noise_power_w", 0.0)]
    # only the watts field that is set is written
    half = record_doc(lb.LinkBudgetResult(*values, noise_power_w=2e-14))
    assert items(half) == [*zip(LEDGER_KEYS, values), ("noise_power_w", 2e-14)]

    ledger = record_doc(lb.snr_db(27.4, -30.0, 184.9, 9.6, 0.0, 0.0, 30.0))
    assert list(ledger) == LEDGER_KEYS
    tx, rx = lb.Transmitter(power_w=2.0, gain_dbi=12.0), lb.Receiver(gain_dbi=0.0, nf_db=7.0)
    full = record_doc(lb.link_budget(tx, rx, 5.5e5, 11.7e9, 1e6))
    assert list(full) == [*LEDGER_KEYS, "received_power_w", "noise_power_w"]
    assert all(type(v) is float for v in full.values())


def test_scenario_docs():
    minimal = sc.load_scenario({"name": "m", "orbit": "GEO"})
    assert items(sc.scenario_to_doc(minimal)) == [("name", "m"), ("orbit", "GEO")]

    terminal = sc.TerminalProfile("t", 1.0, noise_temp_k=300.0)
    cases = (sc.LinkCase("dl", sinr_db=5.5), sc.LinkCase("ul", "edge", bw_mhz=0.5))
    full = sc.Scenario(
        "f", "LEO", description="every part", altitude_km=600.0, elevation_deg=30.0, band="S", freq_dl_ghz=2.0,
        freq_ul_ghz=2.1, bw_dl_mhz=10.0, bw_ul_mhz=0.36, terminal=terminal, reuse=3, margin_db=4.0, beams=16,
        footprint_radius_km=50.0, cases=cases, annotations=("a", "b"),
    )
    doc = sc.scenario_to_doc(full)
    assert items(doc) == [
        ("name", "f"), ("orbit", "LEO"), ("description", "every part"), ("altitude_km", 600.0),
        ("elevation_deg", 30.0), ("band", "S"), ("freq_dl_ghz", 2.0), ("freq_ul_ghz", 2.1), ("bw_dl_mhz", 10.0),
        ("bw_ul_mhz", 0.36), ("reuse", 3), ("margin_db", 4.0), ("beams", 16), ("footprint_radius_km", 50.0),
        ("terminal", {"name": "t", "gain_dbi": 1.0, "noise_temp_k": 300.0}),
        ("cases", [{"direction": "dl", "label": "nominal", "sinr_db": 5.5},
                   {"direction": "ul", "label": "edge", "bw_mhz": 0.5}]),
        ("annotations", ["a", "b"]),
    ]
    assert [type(doc[key]) for key in ("terminal", "cases", "annotations")] == [dict, list, list]
    assert items(doc["terminal"]) == items(record_doc(terminal))
    assert sc.load_scenario(doc) == full
    report = sc.run_scenario(full).to_doc()
    assert list(report) == ["scenario", "slant_range_km", "findings"]
    assert report["scenario"] == doc
