"""dB/linear algebra, physical constants and the ITU satellite band chart.

Everything downstream (geometry, link budgets, capacity, antennas) builds on
this module. Internal computation is always in SI linear units; decibels
appear only at construction and display boundaries.
"""

from __future__ import annotations

import math
import os
import re
import sys
from _json import encode_basestring_ascii as _json_str  # json's C escaper, without the json package
from collections.abc import Mapping
from functools import cached_property
from pathlib import Path

from .errors import DomainError, NotFoundError, OutOfBandError, ParseError, ValidationError

_LN10 = math.log(10.0)
_MAX = sys.float_info.max
_RANGE = re.compile(r"(>=?) (\S+)|in ([\[(])(\S+), (\S+?)([\])])")
_BOUNDS: dict = {}  # rule -> (lo, hi), filled on first use


def require(name: str, value, rule, field: str | None = None):
    """Return `value` if it satisfies `rule`, else raise DomainError (or
    ValidationError naming `field`) reading "<name> <rule>, got <value!r>".

    A rule is the phrase of that message, and its range is read from the
    phrase: "> a", ">= a" and intervals such as "in [0, pi/2)" admit only
    finite values, "finite" excludes nan and +-inf, and "positive" excludes
    values <= 0 (but admits +inf unless the phrase also says "finite"). A
    tuple of phrases is checked in order; the first one the value fails
    names the fault. A value that is not a real number fails every rule.
    """
    try:
        lo, hi = _BOUNDS[rule]
    except KeyError:
        lo, hi = _BOUNDS[rule] = _bounds(rule)
    try:
        if lo <= value <= hi:  # False for nan
            return value
    except TypeError:
        pass
    if not isinstance(rule, str):
        for phrase in rule:
            require(name, value, phrase, field)
    message = f"{name} {rule}, got {_show(value)}"
    raise DomainError(message) if field is None else ValidationError(field, message)


def require_count(name: str, value, rule: str = "must be an integer >= 1", field: str | None = None, top=math.inf):
    """Return `value` if it is an int from 1 to `top`, else raise DomainError (or
    ValidationError naming `field`) reading "<name> <rule>, got <value!r>". A
    bool is not a count."""
    if isinstance(value, int) and not isinstance(value, bool) and 1 <= value <= top:
        return value
    message = f"{name} {rule}, got {_show(value)}"
    raise DomainError(message) if field is None else ValidationError(field, message)


def require_no_overflow(value: float, template: str, *args) -> float:
    """Return `value`, a result computed from finite inputs, if it is finite.
    Otherwise an intermediate passed float max: raise DomainError reading
    `template.format(*args)`, a message built only then, in which a `{!r}`
    field renders its argument through `_show`."""
    if math.isfinite(value):
        return value
    raise DomainError(template.format(*map(_Shown, args)))


def _show(value) -> str:
    """How a refusal shows a value: its repr, or for an int too long for one
    (over sys.get_int_max_str_digits() digits) its number of digits, or for
    any other value whose repr fails (a list holding such an int) its type."""
    try:
        return repr(value)
    except Exception:  # a repr may raise anything, and the refusal must still be made
        if not isinstance(value, int):
            return f"an unprintable {type(value).__name__}"
        n = abs(value)
        digits = int(math.log10(n)) + 1
        digits += (n >= 10**digits) - (n < 10 ** (digits - 1))  # log10 may round across a power of ten
        return f"{'a negative' if value < 0 else 'an'} integer of {digits} digits"


class _Shown:
    """A message argument: `{!r}` renders it through `_show`, `{}` as str.format would."""

    __slots__ = ("value",)

    def __init__(self, value):
        self.value = value

    def __repr__(self) -> str:
        return _show(self.value)

    def __format__(self, spec: str) -> str:
        return format(self.value, spec)


def _bounds(rule) -> tuple[float, float]:
    """The closed float range (lo, hi) that a rule states."""
    if not isinstance(rule, str):
        los, his = zip(*map(_bounds, rule))
        return max(los), min(his)
    lo, hi = (-_MAX, _MAX) if "finite" in rule else (-math.inf, math.inf)
    if "positive" in rule:
        lo = math.ulp(0.0)
    m = _RANGE.search(rule)
    if m and m[1]:
        a = _number(m[2])
        lo, hi = (a if m[1] == ">=" else math.nextafter(a, math.inf)), _MAX
    elif m:
        lo = _number(m[4]) if m[3] == "[" else math.nextafter(_number(m[4]), math.inf)
        hi = _number(m[5]) if m[6] == "]" else math.nextafter(_number(m[5]), -math.inf)
    elif (lo, hi) == (-math.inf, math.inf):
        raise ValueError(f"rule {rule!r} states no range")
    return lo, hi


def _number(text: str) -> float:
    return math.pi / 2 if text == "pi/2" else float(text)


def db_from_linear(x: float) -> float:
    """Convert a positive linear ratio to decibels (10*log10)."""
    return 10.0 * math.log10(require("dB conversion", x, "needs a finite positive ratio"))


def linear_from_db(x: float) -> float:
    """Convert decibels to a linear ratio (10**(x/10))."""
    require("dB value", x, "must be finite")
    try:
        return 10.0 ** (x / 10.0)
    except OverflowError:  # above about 3083 dB
        raise DomainError(f"dB value {x!r} is too large for a linear ratio") from None


# the range kinds of document values; a value beyond +-float max is not finite
_KINDS = {
    "finite": "must be finite",
    "positive": ("must be finite", "must be > 0"),
    "nonnegative": ("must be finite", "must be >= 0"),
    "elevation": ("must be finite", "must lie in [0, 90] degrees"),
}


def require_number(key: str, value, kind: str) -> float:
    """`value` as a float if it is a number (not a bool) of the range `kind`
    names in _KINDS, else raise ValidationError naming `key`."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValidationError(key, f"{key} must be a number, got {_show(value)}")
    return float(require(key, value, _KINDS[kind], key))


def record(cls):
    """Declare `cls` a record, the one way satlink declares one: a frozen
    class of the fields its annotations name, in order, each default being
    the value the class body gives it.

    One generated source, compiled with one exec, gives the class what
    dataclass(frozen=True) would: __init__ fills the instance dict in one
    update, in field order, and then calls __post_init__ if the class has
    one; __repr__, __eq__ and __hash__ read the field tuple as Python
    3.11's dataclass does; assigning or deleting a field raises
    dataclasses.FrozenInstanceError; __match_args__ holds the field names.
    The same source writes the class's document for record_doc.

    `dataclasses` is not imported for this. The dataclass view
    (__dataclass_fields__ and __dataclass_params__, which
    dataclasses.fields, replace, asdict and is_dataclass read) is built at
    its first read, by applying dataclass(frozen=True) to a class of the
    same annotations and defaults. So `dataclasses` loads only when a caller
    uses that view or assigns a frozen field.
    """
    annotations = cls.__annotations__
    names = tuple(annotations)
    defaults = {name: vars(cls)[name] for name in names if name in vars(cls)}
    # a function exec makes takes its __module__ from the namespace's __name__
    namespace = {"__name__": cls.__module__, "nested": _doc_value, **{f"_{n}": v for n, v in defaults.items()}}
    exec(_record_source(cls, names, defaults), namespace)  # the defaults are evaluated in this namespace
    for method in ("__init__", "__repr__", "__eq__", "__hash__", "__setattr__", "__delattr__"):
        namespace[method].__qualname__ = f"{cls.__qualname__}.{method}"
        setattr(cls, method, namespace[method])
    cls.__init__.__annotations__ = {**annotations, "return": None}
    cls.__match_args__ = names

    def dataclass_view():
        from dataclasses import dataclass  # loaded at the view's first read, not by `import satlink`

        shadow = dataclass(frozen=True)(type(cls.__name__, (), {
            **defaults, "__annotations__": annotations, "__module__": cls.__module__, "__qualname__": cls.__qualname__,
        }))
        cls.__dataclass_fields__, cls.__dataclass_params__ = shadow.__dataclass_fields__, shadow.__dataclass_params__

    cls.__dataclass_fields__ = _OnFirstRead("__dataclass_fields__", dataclass_view)
    cls.__dataclass_params__ = _OnFirstRead("__dataclass_params__", dataclass_view)
    _RECORDS[cls] = namespace["_doc"]
    return cls


# A field annotated with only these names holds a plain value, which its document copies.
_PLAIN = {"float", "int", "str", "bool", "None"}


def _record_source(cls, names: tuple, defaults: dict) -> str:
    """The source of a record's methods and of its document writer `_doc`, in
    which a field whose default is None or () is left out while it holds that
    default (CPython has one empty tuple), a field annotated with plain types
    only is copied, and any other field takes the nested path."""
    own, other = (", ".join(f"{who}.{name}" for name in names) + "," for who in ("self", "other"))
    params = ", ".join(f"{name}=_{name}" if name in defaults else name for name in names)
    init = f"self.__dict__.update({', '.join(f'{name}={name}' for name in names)})"
    if hasattr(cls, "__post_init__"):
        init += "; self.__post_init__()"
    shown = ", ".join(f"{name}={{self.{name}!r}}" for name in names)
    doc = ""
    for name in names:
        annotation = cls.__annotations__[name]
        plain = isinstance(annotation, str) and {part.strip() for part in annotation.split("|")} <= _PLAIN
        value = "v" if plain else "nested(v)"
        if name in defaults and defaults[name] in (None, ()):
            doc += f"\n    if (v := self.{name}) is not _{name}: doc[{name!r}] = {value}"
        else:
            doc += f"\n    v = self.{name}; doc[{name!r}] = {value}"
    return f"""\
def __init__(self, {params}):
    {init}
def __repr__(self):
    return f"{{self.__class__.__qualname__}}({shown})"
def __eq__(self, other):
    if other.__class__ is self.__class__:
        return ({own}) == ({other})
    return NotImplemented
def __hash__(self):
    return hash(({own}))
def __setattr__(self, name, value):
    from dataclasses import FrozenInstanceError
    raise FrozenInstanceError(f"cannot assign to field {{name!r}}")
def __delattr__(self, name):
    from dataclasses import FrozenInstanceError
    raise FrozenInstanceError(f"cannot delete field {{name!r}}")
def _doc(self):
    doc = {{}}{doc}
    return doc
"""


class _OnFirstRead:
    """A class attribute that `build()` replaces, with its value, on its first read."""

    __slots__ = ("name", "build")

    def __init__(self, name: str, build):
        self.name, self.build = name, build

    def __get__(self, instance, owner):
        self.build()
        return getattr(owner, self.name)


# Every class `record` declares -> its generated document writer.
_RECORDS: dict = {}


def record_doc(record) -> dict:
    """A record as a document, written by the writer `record` generated for
    its class: its fields in declaration order, each read by name. A field
    whose default is None or () is left out while it holds that default. A
    record in a field is written as its document, and a tuple as a list,
    its records as documents and its tuples as lists."""
    return _RECORDS[type(record)](record)


def _doc_value(value):
    """A field value as a document value: a record as its document, a tuple as
    a list of document values, and anything else as it is."""
    if type(value) is tuple:
        return [_doc_value(v) if type(v) is tuple or type(v) in _RECORDS else v for v in value]
    writer = _RECORDS.get(type(value))
    return value if writer is None else writer(value)


@record
class PhysicalConstants:
    """Physical and Earth constants used throughout the toolkit.

    The speed of light defaults to the round engineering value 3.0e8 m/s so
    wavelengths and path losses match classical hand calculations; override
    with the CODATA value when exactness matters.
    """

    c_m_per_s: float = 3.0e8
    boltzmann_j_per_k: float = 1.380649e-23
    earth_radius_km: float = 6371.0
    earth_perimeter_km: float = 40075.0
    earth_surface_km2: float = 510.1e6
    t_ref_k: float = 290.0

    def __post_init__(self):
        for name in self.__match_args__:
            require(f"constant {name}", getattr(self, name), "must be finite and > 0", name)

    @cached_property  # in the instance __dict__, not a field: eq, hash and repr ignore it
    def boltzmann_dbw_per_k_hz(self) -> float:
        return db_from_linear(self.boltzmann_j_per_k)

    @classmethod
    def from_mapping(cls, overrides) -> "PhysicalConstants":
        if not isinstance(overrides, Mapping):
            raise ParseError(f"constant overrides must be a mapping, got {type(overrides).__name__}")
        check_keys(overrides, set(cls.__match_args__), "constant")
        return cls(**{k: require_number(k, v, "finite") for k, v in overrides.items()})

    @classmethod
    def from_file(cls, path) -> "PhysicalConstants":
        return cls.from_mapping(read_object(path, "constants"))


def check_keys(doc: dict, allowed: set, what: str, prefix: str = "") -> None:
    """Raise ValidationError when `doc` has a key outside `allowed`. Its field
    is `prefix` + the first unknown key, and its message names `what` and
    lists every unknown key, sorted. A key that is not a string (a mapping
    may hold any) is named, and sorted, by the text `_show` gives it."""
    if doc.keys() <= allowed:  # a subset test, without building a set
        return
    texts = {key: key if isinstance(key, str) else _show(key) for key in doc.keys() - allowed}
    unknown = sorted(texts, key=texts.get)
    raise ValidationError(prefix + texts[unknown[0]], f"unknown {what} keys: [{', '.join(map(_show, unknown))}]")


def _read_file(path, what: str) -> str:
    """The text of the input file at `path`, the one place satlink opens one. A
    missing file raises NotFoundError "<what> file '<path>' not found", and one
    that is not UTF-8 a ParseError naming it."""
    if not os.path.exists(path):  # False for a name too long to exist; a directory or an unreadable file fails below
        raise NotFoundError(f"{what} file {str(path)!r} not found")
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None


def read_object(path, what: str) -> dict:
    """The JSON object in the file at `path`. A document of another type raises
    ParseError "<path>: <what> must be a JSON object"."""
    doc = parse_json(_read_file(path, what), path)
    if not isinstance(doc, dict):
        raise ParseError(f"{path}: {what} must be a JSON object")
    return doc


def parse_json(text: str, name):
    """The JSON document in `text`. Any failure raises ParseError "<name>:
    <reason>"; a syntax error ends in " (line l, column c)" and carries both."""
    import json  # loaded by the first document read, not by `import satlink`

    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{name}: {exc.msg} (line {exc.lineno}, column {exc.colno})", exc.lineno, exc.colno) from exc
    except (ValueError, RecursionError) as exc:  # an integer past the digit limit, or deep nesting
        raise ParseError(f"{name}: {str(exc).partition(';')[0]}") from None


_NONFINITE_JSON = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def dump_json(obj) -> str:
    """`json.dumps(obj, indent=2)`, byte for byte.

    json writes an indented document through its pure-Python encoder; this
    builds the same text directly, with json's C string escaper. Dict keys
    must be strings.
    """
    return _dump_indented(obj, "\n")


def _dump_indented(obj, newline: str) -> str:
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        inner = newline + "  "
        items = []
        for key, value in obj.items():
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            if isinstance(value, str):
                text = _json_str(value)
            elif isinstance(value, float):
                text = _NONFINITE_JSON.get(text := float.__repr__(value), text)
            else:
                text = _dump_indented(value, inner)
            items.append(f"{_json_str(key)}: {text}")
        return f"{{{inner}{(',' + inner).join(items)}{newline}}}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        inner = newline + "  "
        return f"[{inner}{(',' + inner).join([_dump_indented(v, inner) for v in obj])}{newline}]"
    if isinstance(obj, str):
        return _json_str(obj)
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, int):
        return int.__repr__(obj)
    if isinstance(obj, float):
        return _NONFINITE_JSON.get(text := float.__repr__(obj), text)
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def dump_csv(rows) -> str:
    """Rows of cells as CSV text, quoted as the csv module quotes."""
    import csv
    import io

    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows(rows)
    return out.getvalue()


def read_document(source, what: str) -> tuple[str, str | None]:
    """The text of a document given as a Path, a file path string or the
    text itself, and the path of the file it was read from (None for text).

    A string is read as a path only when it names an existing file; one that
    holds a newline, or is too long to be a file name, is the text. A source
    of any other type (bytes, a number) raises ParseError naming its type.
    """
    if not isinstance(source, (Path, str)):
        raise ParseError(f"a document must be a Path or a str, got {type(source).__name__}")
    try:
        is_file = isinstance(source, Path) or ("\n" not in source and Path(source).is_file())
    except OSError:  # e.g. ENAMETOOLONG
        is_file = False
    return (_read_file(source, what), str(source)) if is_file else (source, None)


DEFAULT_CONSTANTS = PhysicalConstants()


def noise_temperature_from_nf(nf_db: float, t_ref_k: float = DEFAULT_CONSTANTS.t_ref_k) -> float:
    """Noise temperature in K implied by a noise figure: T = Tref*(10^(NF/10) - 1)."""
    require("noise figure", nf_db, "must be >= 0 dB")
    require("reference temperature", t_ref_k, "must be > 0 K")
    try:
        return t_ref_k * math.expm1(nf_db / 10.0 * _LN10)
    except OverflowError:  # above about 3083 dB
        raise DomainError(f"noise figure {nf_db!r} dB is too large for a noise temperature") from None


def noise_figure_from_temperature(t_k: float, t_ref_k: float = DEFAULT_CONSTANTS.t_ref_k) -> float:
    """Inverse of noise_temperature_from_nf: NF = 10*log10(1 + T/Tref)."""
    require("noise temperature", t_k, "must be >= 0 K")
    require("reference temperature", t_ref_k, "must be > 0 K")
    return require_no_overflow(
        10.0 * math.log1p(t_k / t_ref_k) / _LN10,
        "noise temperature {!r} K over reference {!r} K is too large for a noise figure", t_k, t_ref_k,
    )


def wavelength(freq_hz: float, constants: PhysicalConstants = DEFAULT_CONSTANTS) -> float:
    """Free-space wavelength in meters for a carrier frequency in Hz."""
    c = constants.c_m_per_s
    lam = require_no_overflow(
        c / require("frequency", freq_hz, "must be finite and > 0 Hz"),
        "speed of light {!r} m/s over frequency {!r} Hz is too large for a wavelength", c, freq_hz,
    )
    if lam == 0.0:  # the quotient underflows
        raise DomainError(f"speed of light {c!r} m/s over frequency {freq_hz!r} Hz is too small for a wavelength")
    return lam


# --- ITU band allocations -------------------------------------------------

DOWNLINK = "downlink"
UPLINK = "uplink"
GEO = "geo"
NON_GEO = "non-geo"
ANY_ORBIT = "any"

_DIRECTIONS = (DOWNLINK, UPLINK)
_ORBITS = (GEO, NON_GEO, ANY_ORBIT)


@record
class BandAllocation:
    """One band/direction row of the ITU satellite allocation chart.

    `orbit` qualifies rows that differ between geostationary and
    non-geostationary service; unqualified rows use "any".
    """

    band: str
    orbit: str
    direction: str
    intervals_mhz: tuple[tuple[float, float], ...]

    def __post_init__(self):
        if self.direction not in _DIRECTIONS:
            raise ValidationError("direction", f"direction must be one of {_DIRECTIONS}, got {_show(self.direction)}")
        if self.orbit not in _ORBITS:
            raise ValidationError("orbit", f"orbit must be one of {_ORBITS}, got {_show(self.orbit)}")
        if not self.intervals_mhz:
            raise ValidationError("intervals_mhz", "allocation needs at least one interval")
        for lo, hi in self.intervals_mhz:
            if not (lo < hi):
                raise ValidationError(
                    "intervals_mhz", f"interval bounds must satisfy low < high, got ({_show(lo)}, {_show(hi)})"
                )
        ordered = sorted(self.intervals_mhz)
        for (alo, ahi), (blo, bhi) in zip(ordered, ordered[1:]):
            if blo < ahi:
                raise ValidationError(
                    "intervals_mhz", f"intervals overlap: ({_show(alo)}, {_show(ahi)}) and ({_show(blo)}, {_show(bhi)})"
                )


BAND_CATALOG: tuple[BandAllocation, ...] = (
    BandAllocation("L", GEO, DOWNLINK, ((1518.0, 1559.0),)),
    BandAllocation("L", GEO, UPLINK, ((1626.5, 1660.5), (1668.0, 1675.0))),
    BandAllocation("L", NON_GEO, DOWNLINK, ((1613.8, 1626.5),)),
    BandAllocation("L", NON_GEO, UPLINK, ((1610.0, 1626.5),)),
    BandAllocation("S", ANY_ORBIT, DOWNLINK, ((2160.0, 2200.0), (2483.5, 2500.0))),
    BandAllocation("S", ANY_ORBIT, UPLINK, ((1980.0, 2025.0),)),
    BandAllocation("C", ANY_ORBIT, DOWNLINK, ((3400.0, 4200.0), (4500.0, 4800.0))),
    BandAllocation("C", ANY_ORBIT, UPLINK, ((5725.0, 7025.0),)),
    BandAllocation("Ku", ANY_ORBIT, DOWNLINK, ((10700.0, 12750.0),)),
    BandAllocation("Ku", ANY_ORBIT, UPLINK, ((12750.0, 13250.0), (13750.0, 14500.0))),
    BandAllocation("Ka", GEO, DOWNLINK, ((17300.0, 20200.0),)),
    BandAllocation("Ka", GEO, UPLINK, ((27000.0, 30000.0),)),
    BandAllocation("Ka", NON_GEO, DOWNLINK, ((17700.0, 20200.0),)),
    BandAllocation("Ka", NON_GEO, UPLINK, ((27000.0, 29100.0), (29500.0, 30000.0))),
    BandAllocation(
        "Q/V", ANY_ORBIT, DOWNLINK,
        ((37500.0, 42500.0), (47500.0, 47900.0), (48200.0, 48540.0), (49440.0, 50200.0)),
    ),
    BandAllocation("Q/V", ANY_ORBIT, UPLINK, ((42500.0, 43500.0), (47200.0, 50200.0), (50400.0, 51400.0))),
)


def _check_query(freq_hz: float, direction: str, orbit: str) -> float:
    require("frequency", freq_hz, "must be finite and > 0 Hz")
    if direction not in _DIRECTIONS:
        raise DomainError(f"direction must be one of {_DIRECTIONS}, got {_show(direction)}")
    if orbit not in _ORBITS:
        raise DomainError(f"orbit must be one of {_ORBITS}, got {_show(orbit)}")
    return freq_hz / 1e6


# The (low_MHz, high_MHz, allocation) rows of each (direction, orbit) query, in catalog
# order, so the first row containing a frequency is its first matching allocation.
_BAND_ROWS = {
    (d, o): tuple(
        (lo, hi, a) for a in BAND_CATALOG if a.direction == d and (o == ANY_ORBIT or a.orbit in (ANY_ORBIT, o))
        for lo, hi in a.intervals_mhz
    )
    for d in _DIRECTIONS
    for o in _ORBITS
}


def matching_allocations(freq_hz: float, direction: str, orbit: str = ANY_ORBIT) -> list[BandAllocation]:
    """All catalog rows containing the frequency for the direction/orbit."""
    freq_mhz = _check_query(freq_hz, direction, orbit)
    # no bundled allocation has two intervals that touch, so none is listed twice
    return [a for lo, hi, a in _BAND_ROWS[direction, orbit] if lo <= freq_mhz <= hi]


def band_lookup(freq_hz: float, direction: str, orbit: str = ANY_ORBIT) -> str:
    """Resolve a frequency to its ITU satellite band name.

    Raises OutOfBandError (naming the nearest allocation) when no interval
    for the given direction/orbit contains the frequency.
    """
    freq_mhz = _check_query(freq_hz, direction, orbit)
    rows = _BAND_ROWS[direction, orbit]
    for lo, hi, allocation in rows:
        if lo <= freq_mhz <= hi:
            return allocation.band
    # the first row at the least distance belongs to the first allocation at that distance
    nearest = min(rows, key=lambda r: min(abs(freq_mhz - r[0]), abs(freq_mhz - r[1])))[2]
    raise OutOfBandError(
        f"{freq_mhz:g} MHz ({direction}, orbit={orbit}) is outside every allocation; "
        f"nearest is {nearest.band} band ({nearest.orbit}) at {nearest.intervals_mhz} MHz",
        nearest=nearest,
    )


def band_catalog_csv() -> str:
    """The allocation chart as CSV, one row per interval."""
    rows = [(a.band, a.orbit, a.direction, f"{lo:g}", f"{hi:g}") for a in BAND_CATALOG for lo, hi in a.intervals_mhz]
    return dump_csv([("band", "orbit", "direction", "low_MHz", "high_MHz"), *rows])
