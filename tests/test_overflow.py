"""One overflow refusal: no formula returns inf or nan from finite inputs.

Every public formula of the numeric modules is called with every pair of
values from a set of extremes, at every pair of its number arguments (the
others at their default, or 1.0). Each call must return finite numbers or
raise a SatlinkError. A result that passes float max is refused by
`quantities.require_no_overflow`, the one place a "... is too large for ..."
refusal is raised; an AST scan of `src/satlink` pins that.
"""

from __future__ import annotations

import ast
import inspect
import itertools
import math
import warnings
from pathlib import Path

import pytest

import satlink
from satlink import antenna, capacity, geometry, linkbudget, quantities
from satlink.errors import SatlinkError

EXTREMES = (1e308, 1.7e308, 1e300, 1e200, 1.55e154, 1e154, 3000.0, 10.0, 1.0, 1e-300, 5e-324, 0.0, -1.0)
NUMBER = {"float", "int"}


def _formulas():
    """(formula, names of its number parameters) for each public function of
    the numeric modules whose parameters without a default are all numbers."""
    for module in (quantities, geometry, linkbudget, capacity, antenna):
        for name, f in vars(module).items():
            if name.startswith("_") or not inspect.isfunction(f) or f.__module__ != module.__name__:
                continue
            params = inspect.signature(f).parameters.values()
            numbers = [p.name for p in params if p.annotation in NUMBER]
            if numbers and all(p.name in numbers for p in params if p.default is p.empty):
                yield pytest.param(f, numbers, id=f"{module.__name__.rpartition('.')[2]}.{name}")


FORMULAS = list(_formulas())


def _numbers(result):
    """Every number in a result: itself, or those of a tuple or record."""
    if isinstance(result, (tuple, list)):
        for item in result:
            yield from _numbers(item)
    elif type(result) in quantities._RECORDS:
        yield from _numbers(list(quantities.record_doc(result).values()))
    elif isinstance(result, (int, float)) and not isinstance(result, bool):
        yield result


def test_the_sweep_covers_each_kind_of_formula():
    names = {param.id for param in FORMULAS}
    assert {"quantities.noise_temperature_from_nf", "geometry.footprint_area", "linkbudget.snr_db",
            "linkbudget.friis_received_power", "capacity.shannon_capacity", "antenna.effective_aperture"} <= names
    assert len(FORMULAS) >= 30


@pytest.mark.parametrize("formula, numbers", FORMULAS)
def test_every_pair_of_extremes_gives_a_finite_result_or_a_refusal(formula, numbers):
    defaults = {
        name: 1.0 if p.default is p.empty else p.default
        for name, p in inspect.signature(formula).parameters.items() if name in numbers
    }
    found = []
    for at in itertools.combinations(numbers, 2) if len(numbers) > 1 else [tuple(numbers)]:
        for values in itertools.product(EXTREMES, repeat=len(at)):
            kwargs = {**defaults, **dict(zip(at, values))}
            try:
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore")  # tcp_throughput_bound warns of an unusual C
                    result = formula(**kwargs)
            except SatlinkError:
                continue
            except Exception as exc:
                found.append((kwargs, f"{type(exc).__name__}: {exc}"))
                continue
            if not all(map(math.isfinite, _numbers(result))):
                found.append((kwargs, result))
    assert not found, found


def test_a_shannon_capacity_past_float_max_is_refused():
    message = r"^bandwidth 1e\+308 Hz at SNR 1e\+300 is too large for a Shannon capacity$"
    with pytest.raises(SatlinkError, match=message):
        capacity.shannon_capacity(1e308, 1e300)


def test_an_snr_ledger_past_float_max_is_refused():
    message = r"^EIRP 1e\+308 dBW, G/T 1e\+308 dB/K, losses 0.0, 0.0, 0.0 and 0.0 dB .* too large for an SNR ledger$"
    with pytest.raises(SatlinkError, match=message):
        linkbudget.snr_db(1e308, 1e308, 0.0)


# --- the one place a "too large" refusal is raised ------------------------------

PACKAGE = Path(satlink.__file__).parent
# the one handler that raises its own refusal: it also refuses a distance squared to 0
OWN_REFUSAL = {("linkbudget.py", "_friis")}


def _overflow_handlers(tree: ast.AST):
    """(function name, handler) for each `except` clause that catches OverflowError."""
    for function in ast.walk(tree):
        if isinstance(function, ast.FunctionDef):
            for node in ast.walk(function):
                if isinstance(node, ast.ExceptHandler) and node.type is not None:
                    caught = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
                    if any(isinstance(c, ast.Name) and c.id == "OverflowError" for c in caught):
                        yield function.name, node


def test_no_overflow_handler_raises_its_own_refusal():
    handlers = []
    for path in sorted(PACKAGE.glob("*.py")):
        for function, handler in _overflow_handlers(ast.parse(path.read_text(encoding="utf-8"))):
            handlers.append((path.name, function))
            raises = any(isinstance(node, ast.Raise) for node in ast.walk(handler))
            assert raises == ((path.name, function) in OWN_REFUSAL), (path.name, function, handler.lineno)
    assert OWN_REFUSAL <= set(handlers) and len(handlers) >= 7


def test_every_too_large_message_is_a_require_no_overflow_template():
    """A "too large for" text in code is the template of a require_no_overflow
    call, which renders each of its `{}` fields by _show (so none is `{!r}`)."""
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        allowed = {
            id(node.args[1]) for node in ast.walk(tree)
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "require_no_overflow"
        }
        for scope in ast.walk(tree):
            if isinstance(scope, (ast.Module, ast.FunctionDef, ast.ClassDef)) and ast.get_docstring(scope):
                allowed.add(id(scope.body[0].value))
            if isinstance(scope, ast.FunctionDef) and (path.name, scope.name) in OWN_REFUSAL:
                allowed |= {id(node) for node in ast.walk(scope)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Constant) and isinstance(node.value, str) and " too large for " in node.value:
                assert id(node) in allowed and "{!r}" not in node.value, (path.name, node.lineno)


def test_quantities_has_no_message_wrapper_class():
    assert not hasattr(quantities, "_Shown")
    tree = ast.parse((PACKAGE / "quantities.py").read_text(encoding="utf-8"))
    assert "_Shown" not in {node.name for node in ast.walk(tree) if isinstance(node, ast.ClassDef)}
