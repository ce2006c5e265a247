"""Seeded mutations of the library's document inputs.

Three kinds of input are mutated: the bundled scenario documents (as dict
sources), MODCOD CSV texts and `PhysicalConstants.from_mapping` overrides.
Each mutation sets a value to a hostile one (huge ints among them), deletes
a key or adds an unknown one. Whatever the input, only a SatlinkError may
escape the loaders, the scenario run and the report's JSON round trip.

Every draw comes from a fixed seed, so a run gives the same inputs each time.
"""

from __future__ import annotations

import copy
import dataclasses
import json
import random

import pytest

from satlink import capacity, quantities, scenario
from satlink.errors import NotFoundError, ParseError, SatlinkError

SEED = 26
MUTANTS = 1500  # per kind and chunk: about 1.5 s for the whole file

HOSTILE = (
    None, True, False, 0, -1, 1, 2, 3, 0.0, -0.0, 0.5, 5e-324, -5e-324, 1e-300, 1e308, -1e308,
    float("nan"), float("inf"), float("-inf"), 2**63, 10**308, 10**400, -10**400, 10**5000,
    "", "x", "LEO", "dl", "1e400", "nan", [], {}, [1], {"a": 1}, ["x"], [{}],
)
# The same values as a CSV cell holds them: text.
HOSTILE_CELLS = (
    "", " ", "x", "0", "-0", "1", "-1", "0.5", "5e-324", "1e308", "-1e308", "1e400", "-1e400", "nan", "inf",
    "-inf", "NaN", "1_0", "0x10", "1" + "0" * 400, "-1" + "0" * 400, "1" + "0" * 5000, '"', ",", "\x00", "é",
)


def _slots(node):
    """Every (container, key) pair of a JSON-like document, depth first."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield node, key
        yield from _slots(child)


def _mutate(rng: random.Random, doc: dict) -> dict:
    doc = copy.deepcopy(doc)
    for _ in range(rng.randint(1, 3)):
        container, key = rng.choice(list(_slots(doc)))
        op = rng.random()
        if op < 0.7:
            container[key] = rng.choice(HOSTILE)
        elif op < 0.85 and isinstance(container, dict):
            del container[key]
        elif isinstance(container, dict):
            container[rng.choice(("beams", "reuse", "cases", "terminal", "zz"))] = rng.choice(HOSTILE)
    return doc


def _only_satlink_errors(call, *args):
    """`call(*args)`, or None when it refuses the input with a SatlinkError."""
    try:
        return call(*args)
    except SatlinkError:
        return None


@pytest.mark.parametrize("chunk", range(2))
def test_mutated_scenario_documents_end_in_satlink_errors(chunk):
    rng = random.Random(f"{SEED}:scenario:{chunk}")
    docs = scenario._FIXTURE_DOCS
    assert len(docs) == 8
    loaded = ran = 0
    for _ in range(MUTANTS):
        doc = _mutate(rng, rng.choice(docs))
        s = _only_satlink_errors(scenario.load_scenario, doc)
        if s is None:
            continue
        loaded += 1
        repr(s)
        scenario.scenario_to_doc(s)
        report = _only_satlink_errors(scenario.run_scenario, s)
        if report is None:
            continue
        ran += 1
        text = report.to_json()
        scenario.ScenarioReport.from_json(text)
    # the mutations reach the run and the round trip, not only the loader
    assert loaded > MUTANTS // 20 and ran > MUTANTS // 20, (loaded, ran)


def _mutate_csv(rng: random.Random, rows: list[list[str]]) -> str:
    rows = [list(row) for row in rows]
    for _ in range(rng.randint(1, 3)):
        op = rng.random()
        row = rng.choice(rows[1:]) if len(rows) > 1 else rows[0]
        if op < 0.75:
            row[rng.randrange(len(row))] = rng.choice(HOSTILE_CELLS)
        elif op < 0.85:
            row.append(rng.choice(HOSTILE_CELLS))
        elif op < 0.95 and len(rows) > 1:
            rows.remove(row)
        else:
            rows[0][rng.randrange(3)] = rng.choice(("name", "se_bps_hz", "snr_qef_db", "zz", ""))
    return "\n".join(",".join(row) for row in rows) + "\n"


@pytest.mark.parametrize("chunk", range(2))
def test_mutated_modcod_catalogs_end_in_satlink_errors(chunk):
    rng = random.Random(f"{SEED}:modcod:{chunk}")
    rows = [line.split(",") for line in capacity.modcod_catalog_csv().splitlines()]
    loaded = 0
    for _ in range(MUTANTS):
        catalog = _only_satlink_errors(capacity.load_modcod_catalog, _mutate_csv(rng, rows))
        if catalog is None:
            continue
        loaded += 1
        for snr in (rng.uniform(-5.0, 25.0), rng.choice(HOSTILE)):
            _only_satlink_errors(capacity.select_modcod, snr, catalog)
    assert loaded > MUTANTS // 20, loaded


@pytest.mark.parametrize("chunk", range(2))
def test_mutated_constant_overrides_end_in_satlink_errors(chunk):
    rng = random.Random(f"{SEED}:constants:{chunk}")
    names = [f.name for f in dataclasses.fields(quantities.PhysicalConstants)]
    defaults = dataclasses.asdict(quantities.DEFAULT_CONSTANTS)
    built = 0
    for _ in range(MUTANTS):
        overrides = {name: defaults[name] for name in rng.sample(names, rng.randint(0, len(names)))}
        for _ in range(rng.randint(1, 2)):
            overrides[rng.choice([*names, "zz", 10**5000])] = rng.choice(HOSTILE)
        source = overrides if rng.random() < 0.9 else rng.choice(HOSTILE)
        if _only_satlink_errors(quantities.PhysicalConstants.from_mapping, source) is not None:
            built += 1
    assert built > MUTANTS // 20, built


# A report document's finding or slant range of the wrong type -> the ParseError it raises.
REPORT_FAULTS = [
    ("missing", "ab", r"finding 'band': missing must be a list of strings, got 'ab'"),
    ("missing", ["a", 1], r"finding 'band': missing must be a list of strings, got \['a', 1\]"),
    ("missing", {"a": 1}, r"finding 'band': missing must be a list of strings, got \{'a': 1\}"),
    ("computed", [1], r"finding 'band': computed must be a number, a string or null, got \[1\]"),
    ("computed", {}, r"finding 'band': computed must be a number, a string or null, got \{\}"),
    ("reported", True, r"finding 'band': reported must be a number, a string or null, got True"),
    ("delta", "0.5", r"finding 'band': delta must be a number or null, got '0.5'"),
    ("delta", [0.5], r"finding 'band': delta must be a number or null, got \[0.5\]"),
    ("quantity", ["band"], r"finding \['band'\]: quantity must be a string, got \['band'\]"),
    ("status", None, r"finding 'band': status must be a string, got None"),
    ("direction", 1, r"finding 'band': direction must be a string or null, got 1"),
    ("label", [], r"finding 'band': label must be a string or null, got \[\]"),
    ("slant_range_km", [1.0], r"slant_range_km must be a number or null, got \[1.0\]"),
    ("slant_range_km", "600", r"slant_range_km must be a number or null, got '600'"),
]


@pytest.mark.parametrize(("key", "value", "message"), REPORT_FAULTS, ids=lambda v: str(v)[:20])
def test_a_mistyped_report_value_is_refused_by_name(key, value, message):
    doc = scenario.run_scenario(scenario.fixture("thales")).to_doc()
    band = next(f for f in doc["findings"] if f["quantity"] == "band")
    (doc if key == "slant_range_km" else band)[key] = value
    with pytest.raises(ParseError, match="^report document: " + message + "$"):
        scenario.ScenarioReport.from_doc(doc)


@pytest.mark.parametrize("where", ["report", "finding"])
def test_an_unknown_report_key_is_refused_by_name(where):
    """A report and each of its findings refuse a key of no field, as every other document does."""
    doc = scenario.run_scenario(scenario.fixture("thales")).to_doc()
    band = next(f for f in doc["findings"] if f["quantity"] == "band")
    (doc if where == "report" else band).update(zeta=1, extra=None)
    message = rf"^report document: unknown {where} keys: \['extra', 'zeta'\]$"
    with pytest.raises(ParseError, match=message):
        scenario.ScenarioReport.from_json(json.dumps(doc))
    if where == "finding":
        with pytest.raises(ParseError, match=message):
            scenario.Finding.from_doc(band)


@pytest.mark.parametrize("chunk", range(2))
def test_every_report_document_read_is_a_hashable_report(chunk):
    """A mutated report document is refused with a SatlinkError, or its report
    hashes, writes its JSON and survives a second round trip."""
    rng = random.Random(f"{SEED}:report:{chunk}")
    docs = [scenario.run_scenario(s).to_doc() for s in scenario.builtin_fixtures()]
    read = 0
    for _ in range(MUTANTS):
        report = _only_satlink_errors(scenario.ScenarioReport.from_doc, _mutate(rng, rng.choice(docs)))
        if report is None:
            continue
        read += 1
        hash(report)
        report.to_json()
        assert scenario.ScenarioReport.from_doc(report.to_doc()) == report
    assert read > MUTANTS // 20, read


@pytest.mark.parametrize(("doc", "message"), [
    ({}, r"missing key 'quantity'"),
    ({"quantity": "band"}, r"missing key 'status'"),
    ([], r"wrong shape \(a finding must be a mapping, got list\)"),
    ("band", r"wrong shape \(a finding must be a mapping, got str\)"),
    (None, r"wrong shape \(a finding must be a mapping, got NoneType\)"),
], ids=["empty", "no-status", "list", "str", "null"])
def test_a_finding_document_of_another_shape_is_refused_by_the_finding(doc, message):
    with pytest.raises(ParseError, match="^report document: " + message + "$"):
        scenario.Finding.from_doc(doc)


def test_a_report_scenario_is_refused_as_the_loader_refuses_it():
    """An unknown terminal preset is a NotFoundError, not a "missing key" ParseError."""
    doc = {"scenario": {"name": "x", "orbit": "LEO", "terminal": "nope"}}
    with pytest.raises(NotFoundError, match="^unknown terminal 'nope'"):
        scenario.ScenarioReport.from_doc(doc)
