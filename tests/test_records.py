"""Every satlink record is a frozen dataclass declared with `quantities.record`.

Its __init__ fills the instance dict in one update instead of the
dataclass's one object.__setattr__ per field. Everything else a frozen
dataclass gives holds as before: the constructor's signature, `vars()` in
field order (which `record_doc` reads), frozen fields, equality and hash,
and a `replace` that runs `__post_init__` again. `record_doc` writes each
record as plain values: no record and no tuple is left in its document.
"""

from __future__ import annotations

import ast
import dataclasses
import functools
import importlib
import inspect
import math
import pkgutil
from pathlib import Path

import pytest

import satlink
from satlink import antenna, capacity, constellation, linkbudget, quantities, scenario
from satlink.errors import SatlinkError

PACKAGE = Path(satlink.__file__).parent
MODULES = [importlib.import_module(f"satlink.{m.name}") for m in pkgutil.iter_modules(satlink.__path__)]
RECORDS = sorted(
    (
        obj for module in MODULES for obj in vars(module).values()
        if isinstance(obj, type) and dataclasses.is_dataclass(obj) and obj.__module__ == module.__name__
    ),
    key=lambda cls: cls.__qualname__,
)

THALES = scenario.fixture("thales")
# one instance of each record, and for a record with a __post_init__ one field value it refuses
SAMPLES = {
    quantities.PhysicalConstants: (quantities.PhysicalConstants(), {"c_m_per_s": -1.0}),
    quantities.BandAllocation: (quantities.BAND_CATALOG[1], {"direction": "sideways"}),
    antenna.ArraySpec: (antenna.ArraySpec("planar", 16, 4, 4), {"rows": 2}),
    capacity.ModCod: (capacity.ModCod("QPSK 1/2", 1.0, 1.0), {"se_bps_hz": 9.0}),
    constellation.Shell: (constellation.SHELLS[0], {"inclination_deg": 0.0}),
    constellation.ShellStats: (constellation.shell_stats("S1"), None),
    linkbudget.Transmitter: (linkbudget.Transmitter(2.0, 13.0), {"power_w": 0.0}),
    linkbudget.Receiver: (linkbudget.Receiver(0.0, nf_db=7.0), {"noise_temp_k": 290.0}),
    linkbudget.LinkBudgetResult: (linkbudget.snr_db(40.0, -20.0, 160.0), None),
    scenario.TerminalProfile: (scenario.TERMINALS["vsat"], {"gain_dbi": math.nan}),
    scenario.LinkCase: (scenario.LinkCase("dl", sinr_db=3.0), {"direction": "sideways"}),
    scenario.Scenario: (THALES, None),
    scenario.Finding: (scenario.Finding("band", scenario.CONSISTENT, computed="S", reported="S"), None),
    scenario.ScenarioReport: (scenario.run_scenario(THALES), None),
}


def by_name(cls) -> str:
    return cls.__qualname__


def plain_dataclass(cls):
    """A dataclass(frozen=True), with the dataclass's own __init__, of the
    fields, types and defaults of `cls`."""
    namespace = {"__annotations__": dict(cls.__annotations__), "__module__": cls.__module__}
    namespace.update((f.name, f.default) for f in dataclasses.fields(cls) if f.default is not dataclasses.MISSING)
    return dataclasses.dataclass(frozen=True)(type(cls.__name__, (), namespace))


@pytest.mark.parametrize("cls", RECORDS, ids=by_name)
def test_the_constructor_has_the_dataclass_signature(cls):
    assert inspect.signature(cls) == inspect.signature(plain_dataclass(cls))
    init = cls.__init__
    assert (init.__qualname__, init.__module__) == (f"{cls.__qualname__}.__init__", cls.__module__)


@pytest.mark.parametrize("cls", RECORDS, ids=by_name)
def test_the_instance_dict_holds_the_fields_in_order(cls):
    sample = SAMPLES[cls][0]
    names = [f.name for f in dataclasses.fields(cls)]
    values = [getattr(sample, name) for name in names]
    for built in (cls(*values), cls(**dict(zip(names, values)))):
        assert list(vars(built)) == names
        assert built == sample and hash(built) == hash(sample)


@pytest.mark.parametrize("cls", RECORDS, ids=by_name)
def test_fields_are_frozen(cls):
    sample = SAMPLES[cls][0]
    for f in dataclasses.fields(cls):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(sample, f.name, getattr(sample, f.name))
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(sample, f.name)


@pytest.mark.parametrize("cls", RECORDS, ids=by_name)
def test_replace_runs_the_checks_again(cls):
    sample, refused = SAMPLES[cls]
    assert dataclasses.replace(sample) == sample
    assert (refused is None) == (not hasattr(cls, "__post_init__"))
    if refused is not None:
        with pytest.raises(SatlinkError):
            dataclasses.replace(sample, **refused)


def _tree(value):
    """`value` and every value inside it, through dicts and lists."""
    yield value
    for child in value.values() if isinstance(value, dict) else value if isinstance(value, list) else ():
        yield from _tree(child)


def test_record_doc_writes_plain_values_only():
    for sample, _ in SAMPLES.values():
        doc = quantities.record_doc(sample)
        assert not [v for v in _tree(doc) if dataclasses.is_dataclass(v) or isinstance(v, tuple)], type(sample)
    s = SAMPLES[scenario.Scenario][0]
    assert scenario.load_scenario(scenario.scenario_to_doc(s)) == s


def _dataclass_names(tree: ast.AST):
    """Each node of `tree` that names `dataclass` or `make_dataclass`: a name,
    an attribute or an imported name."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            yield from (alias for alias in node.names if alias.name in ("dataclass", "make_dataclass"))
        elif getattr(node, "id", getattr(node, "attr", None)) in ("dataclass", "make_dataclass"):
            yield node


def test_only_quantities_record_applies_dataclass():
    declared = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        allowed = range(0)
        if path.name == "quantities.py":
            record = next(n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "record")
            allowed = range(record.lineno, record.end_lineno + 1)
        for node in _dataclass_names(tree):
            # the one import `record` needs sits at the top of quantities.py
            assert node.lineno in allowed or (isinstance(node, ast.alias) and path.name == "quantities.py"), (
                f"{path.name}:{node.lineno} applies dataclass outside quantities.record"
            )
        declared += [
            node.name for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
            if any(isinstance(d, ast.Name) and d.id == "record" for d in node.decorator_list)
        ]
    assert sorted(declared) == [cls.__qualname__ for cls in RECORDS]


def test_record_doc_writes_exactly_the_set_fields():
    """A field is written unless it holds its default of None or (); a
    cached_property, which stores its value in the instance dict, is not."""
    read = 0
    for cls, (sample, _) in SAMPLES.items():
        fields = dataclasses.fields(cls)
        instance = cls(**{f.name: getattr(sample, f.name) for f in fields})
        written = [f.name for f in fields if not (f.default in (None, ()) and getattr(instance, f.name) is f.default)]
        assert list(quantities.record_doc(instance)) == written, cls
        for name, attribute in vars(cls).items():
            if isinstance(attribute, functools.cached_property):
                getattr(instance, name)
                read += 1
                assert list(quantities.record_doc(instance)) == written, (cls, name)
    assert read >= 1
