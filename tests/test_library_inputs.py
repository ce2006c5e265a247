"""Library callers that pass a mapping key or a document source of an odd type.

JSON keys are always strings and the CLI passes only paths, but a library
caller may pass a mapping with any hashable key, and any object as a
document source. Each such input ends in a SatlinkError, never in a raw
TypeError or ValueError.
"""

from __future__ import annotations

from types import MappingProxyType

import pytest

from satlink import capacity, quantities, scenario
from satlink.errors import ParseError, ValidationError


@pytest.mark.parametrize("read, field, message", [
    (lambda: scenario.load_scenario({"name": "x", "orbit": "LEO", 1: 1}), "1", "unknown scenario keys: [1]"),
    (lambda: quantities.PhysicalConstants.from_mapping({1: 1.0, "z": 2}), "1", "unknown constant keys: [1, 'z']"),
    (lambda: quantities.PhysicalConstants.from_mapping({"z": 2, (1, 2): 1.0, None: 0}),
     "(1, 2)", "unknown constant keys: [(1, 2), None, 'z']"),
    (lambda: scenario.load_scenario({"name": "x", "orbit": "LEO", "cases": [{"direction": "dl", 2.5: 1}]}),
     "cases[0].2.5", "unknown case keys: [2.5]"),
    (lambda: quantities.PhysicalConstants.from_mapping({10**5000: 1.0, "a": 2}),
     "a", "unknown constant keys: ['a', an integer of 5001 digits]"),
])
def test_a_key_that_is_not_a_string_is_shown(read, field, message):
    with pytest.raises(ValidationError) as caught:
        read()
    assert (caught.value.field, str(caught.value)) == (field, message)


@pytest.mark.parametrize("source, kind", [
    pytest.param(10**5000, "int", id="long-int"), (12, "int"), (b"{}", "bytes"), (None, "NoneType"),
    (["name,se_bps_hz,snr_qef_db"], "list"),
])
@pytest.mark.parametrize("load", [scenario.load_scenario, capacity.load_modcod_catalog])
def test_a_source_that_is_neither_a_path_nor_a_str_is_refused(load, source, kind):
    with pytest.raises(ParseError, match=rf"^a document must be a Path or a str, got {kind}$"):
        load(source)


def test_a_str_source_is_still_a_path_or_the_text(tmp_path):
    path = tmp_path / "catalog.csv"
    path.write_text(capacity.modcod_catalog_csv())
    assert capacity.load_modcod_catalog(str(path)) == capacity.load_modcod_catalog(path)
    assert capacity.load_modcod_catalog(path.read_text()) == capacity.load_modcod_catalog(path)


@pytest.mark.parametrize("overrides, kind", [
    (None, "NoneType"), (1.5, "float"), pytest.param(10**5000, "int", id="long-int"), ("c_m_per_s", "str"),
    ([("c_m_per_s", 3e8)], "list"),
])
def test_constant_overrides_that_are_no_mapping_are_refused(overrides, kind):
    with pytest.raises(ParseError, match=rf"^constant overrides must be a mapping, got {kind}$"):
        quantities.PhysicalConstants.from_mapping(overrides)


def test_constant_overrides_may_be_any_mapping():
    constants = quantities.PhysicalConstants.from_mapping(MappingProxyType({"c_m_per_s": 3e8}))
    assert constants.c_m_per_s == 3e8
