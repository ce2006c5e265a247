"""Data model, ingestion and consistency pipeline for NTN project scenarios.

A scenario is a structured JSON document with unit-suffixed keys describing
one satellite/HAP connectivity project: orbit, band, bandwidths, terminal
class and the SINR / spectral-efficiency / bitrate figures its operator
reports. Running a scenario derives everything the inputs permit (slant
range, Shannon bound, bitrate from SE x BW, beam cell size, band-chart
check) and flags each reported figure as consistent, inconsistent or not
computable - absent inputs are never defaulted.

Scenario records keep the document's units verbatim (km, GHz, MHz, Mb/s);
conversion to SI happens only inside the computations.
"""

from __future__ import annotations

import math
import sys

from .errors import NotFoundError, OutOfBandError, ParseError, ValidationError
from .capacity import effective_bitrate, max_spectral_efficiency
from .geometry import cell_radius_from_split, slant_range_exact
from .quantities import (
    ANY_ORBIT,
    DEFAULT_CONSTANTS,
    DOWNLINK,
    GEO,
    NON_GEO,
    UPLINK,
    PhysicalConstants,
    _show,
    band_lookup,
    check_keys,
    dump_json,
    linear_from_db,
    parse_json,
    read_document,
    record,
    record_doc,
    require,
    require_count,
    require_no_overflow,
    require_number,
)

DL = "dl"
UL = "ul"

CONSISTENT = "consistent"
INCONSISTENT = "inconsistent"
NOT_COMPUTABLE = "not_computable"
COMPUTED = "computed"  # derived value with no reported counterpart to check

# relative tolerance on bitrate figures, which are typically reported with
# two significant digits
BITRATE_TOLERANCE = 0.05
SE_BOUND_SLACK = 1e-9


@record
class TerminalProfile:
    """A ground terminal class: antenna gain, noise (figure or temperature,
    exactly one) and transmit EIRP."""

    name: str
    gain_dbi: float
    nf_db: float | None = None
    noise_temp_k: float | None = None
    eirp_dbm: float | None = None

    def __post_init__(self):
        require("terminal gain", self.gain_dbi, "must be finite dBi", "gain_dbi")
        if (self.nf_db is None) == (self.noise_temp_k is None):
            raise ValidationError(
                "nf_db/noise_temp_k", "terminal needs exactly one of noise figure or noise temperature"
            )
        if self.nf_db is not None:
            require("terminal noise figure", self.nf_db, "must be >= 0 dB", "nf_db")
        if self.noise_temp_k is not None:
            require("terminal noise temperature", self.noise_temp_k, "must be > 0 K", "noise_temp_k")


# Reference terminal classes. The handset class defaults to the lower of its
# two quoted noise figures; fixtures override it where a project states 9 dB.
TERMINALS: dict[str, TerminalProfile] = {
    "class3-ue": TerminalProfile("class3-ue", gain_dbi=0.0, nf_db=7.0, eirp_dbm=23.0),
    # 2 W through the same 12 dBi aperture
    "vsat": TerminalProfile("vsat", gain_dbi=12.0, nf_db=5.0, eirp_dbm=45.0),
    "iot": TerminalProfile("iot", gain_dbi=0.0, noise_temp_k=290.0, eirp_dbm=23.0),
}


def terminal_profile(spec) -> TerminalProfile:
    """Resolve a terminal from a preset name or a (possibly partial) mapping."""
    if isinstance(spec, str):
        if spec not in TERMINALS:
            raise NotFoundError(
                f"unknown terminal {spec!r}; presets: {', '.join(sorted(TERMINALS))}",
                valid_ids=sorted(TERMINALS),
            )
        return TERMINALS[spec]
    if isinstance(spec, dict):
        doc = dict(spec)
        name = doc.pop("name", None)
        if not isinstance(name, str) or not name:
            raise ValidationError("terminal.name", "terminal mapping needs a name")
        base = TERMINALS.get(name)
        merged = record_doc(base) if base is not None else {}
        merged.pop("name", None)
        # an override of one noise representation displaces the other
        if "nf_db" in doc:
            merged.pop("noise_temp_k", None)
        if "noise_temp_k" in doc:
            merged.pop("nf_db", None)
        merged.update(doc)
        check_keys(merged, {"gain_dbi", "nf_db", "noise_temp_k", "eirp_dbm"}, "terminal", "terminal.")
        if "gain_dbi" not in merged:
            raise ValidationError("terminal.gain_dbi", "terminal mapping needs gain_dbi")
        values = {k: require_number(f"terminal.{k}", v, "finite") for k, v in merged.items()}
        return _at("terminal.", TerminalProfile, name, **values)
    raise ValidationError("terminal", f"terminal must be a preset name or mapping, got {type(spec).__name__}")


@record
class LinkCase:
    """One reported operating point of a link direction."""

    direction: str
    label: str = "nominal"
    sinr_db: float | None = None
    se_bps_hz: float | None = None
    bitrate_mbps: float | None = None
    bw_mhz: float | None = None  # overrides the scenario-level bandwidth

    def __post_init__(self):
        if self.direction not in (DL, UL):
            raise ValidationError("direction", f"case direction must be '{DL}' or '{UL}', got {_show(self.direction)}")


@record
class Scenario:
    """One NTN project, mirroring its source document field by field.

    Absent figures stay None; they are reported as not-computable findings
    rather than silently defaulted.
    """

    name: str
    orbit: str
    description: str | None = None
    altitude_km: float | None = None
    elevation_deg: float | None = None
    band: str | None = None
    freq_dl_ghz: float | None = None
    freq_ul_ghz: float | None = None
    bw_dl_mhz: float | None = None
    bw_ul_mhz: float | None = None
    reuse: int | None = None
    margin_db: float | None = None
    beams: int | None = None
    footprint_radius_km: float | None = None
    terminal: TerminalProfile | None = None
    cases: tuple[LinkCase, ...] = ()
    annotations: tuple[str, ...] = ()

    def bw_mhz_for(self, case: LinkCase) -> float | None:
        if case.bw_mhz is not None:
            return case.bw_mhz
        return self.bw_dl_mhz if case.direction == DL else self.bw_ul_mhz


_NUMBER_OR_NULL = frozenset({int, float, type(None)})  # a bool is no number
# each key of a finding document, in field order -> what its value must be, and the types that hold it
_FINDING_VALUES = {
    "quantity": ("a string", frozenset({str})),
    "status": ("a string", frozenset({str})),
    "direction": ("a string or null", frozenset({str, type(None)})),
    "label": ("a string or null", frozenset({str, type(None)})),
    "computed": ("a number, a string or null", _NUMBER_OR_NULL | {str}),
    "reported": ("a number, a string or null", _NUMBER_OR_NULL | {str}),
    "delta": ("a number or null", _NUMBER_OR_NULL),
    "missing": ("a list of strings", frozenset({list})),
}


@record
class Finding:
    """Verdict for one derivable quantity of a scenario."""

    quantity: str
    status: str
    direction: str | None = None
    label: str | None = None
    computed: float | str | None = None
    reported: float | str | None = None
    delta: float | None = None
    missing: tuple[str, ...] = ()

    to_doc = record_doc

    @classmethod
    def from_doc(cls, doc: dict) -> "Finding":
        """The finding a `to_doc` mapping describes, unknown keys ignored. Another
        shape, a missing "quantity" or "status", or a value of another type than
        its field holds raises ParseError, so every finding read is hashable."""
        if not isinstance(doc, dict):
            raise ParseError(f"report document: wrong shape (a finding must be a mapping, got {type(doc).__name__})")
        values = []
        for key, (what, types) in _FINDING_VALUES.items():
            value = doc.get(key, [] if key == "missing" else None)
            if type(value) not in types or key == "missing" and {*map(type, value)} - {str}:
                if key not in doc:
                    raise ParseError(f"report document: missing key {key!r}")
                name = _show(doc["quantity"])
                raise ParseError(f"report document: finding {name}: {key} must be {what}, got {_show(value)}")
            values.append(value)
        values[-1] = tuple(values[-1])
        return cls(*values)


# --- document loading ------------------------------------------------------

_SCALAR_FIELDS: dict[str, str] = {  # key -> the kind of number it holds
    "altitude_km": "positive",
    "elevation_deg": "elevation",
    "freq_dl_ghz": "positive",
    "freq_ul_ghz": "positive",
    "bw_dl_mhz": "positive",
    "bw_ul_mhz": "positive",
    "sinr_dl_db": "finite",
    "sinr_ul_db": "finite",
    "se_dl_bps_hz": "positive",
    "se_ul_bps_hz": "positive",
    "bitrate_dl_mbps": "positive",
    "bitrate_ul_mbps": "positive",
    "margin_db": "nonnegative",
    "footprint_radius_km": "positive",
}

_COUNT_FIELDS = ("reuse", "beams")

_TOP_LEVEL_KEYS = (
    {"name", "orbit", "description", "band", "terminal", "annotations", "cases"}
    | set(_SCALAR_FIELDS)
    | set(_COUNT_FIELDS)
)

# case key -> (LinkCase field, scale to the field's unit, kind); a later key
# of the same field wins
_CASE_NUMBERS: dict[str, tuple[str, float, str]] = {
    "sinr_db": ("sinr_db", 1.0, "finite"),
    "se_bps_hz": ("se_bps_hz", 1.0, "positive"),
    "bitrate_mbps": ("bitrate_mbps", 1.0, "positive"),
    "bw_mhz": ("bw_mhz", 1.0, "positive"),
    "bitrate_bps": ("bitrate_mbps", 1e-6, "positive"),
    "bw_hz": ("bw_mhz", 1e-6, "positive"),
}

_CASE_KEYS = {"direction", "label", *_CASE_NUMBERS}
# each scaled case key -> (its unit, its field's unit)
_CASE_UNITS = {"bitrate_bps": ("b/s", "Mb/s"), "bw_hz": ("Hz", "MHz")}


def _parse_case(doc: dict, index: int) -> LinkCase:
    if not isinstance(doc, dict):
        raise ValidationError(f"cases[{index}]", "each case must be a mapping")
    check_keys(doc, _CASE_KEYS, "case", f"cases[{index}].")
    if "direction" not in doc:
        raise ValidationError(f"cases[{index}].direction", "case needs a direction")
    label = doc.get("label", "nominal")
    if not isinstance(label, str):
        raise ValidationError(f"cases[{index}].label", "case label must be a string")
    kwargs: dict = {"direction": doc["direction"], "label": label}
    for key, (target, scale, kind) in _CASE_NUMBERS.items():
        if key in doc:
            field = f"cases[{index}].{key}"
            value = require_number(field, doc[key], kind)
            kwargs[target] = value * scale
            if kwargs[target] == 0 != value:  # a positive figure too small for its field's unit
                unit, field_unit = _CASE_UNITS[key]
                raise ValidationError(field, f"{field} must fit a float in {field_unit}, got {value!r} {unit}")
    return _at(f"cases[{index}].", LinkCase, **kwargs)


def _at(place: str, cls, *args, **kwargs):
    """`cls(*args, **kwargs)`, a record of a document; a ValidationError it raises
    names its field at `place` in the document ("terminal.nf_db")."""
    try:
        return cls(*args, **kwargs)
    except ValidationError as exc:
        raise ValidationError(place + exc.field, str(exc)) from None


def _scenario_from_doc(doc: dict) -> Scenario:
    if not isinstance(doc, dict):
        raise ParseError("scenario document must be a JSON object")
    check_keys(doc, _TOP_LEVEL_KEYS, "scenario")
    for required in ("name", "orbit"):
        if not isinstance(doc.get(required), str) or not doc.get(required):
            raise ValidationError(required, f"scenario needs a non-empty '{required}'")

    values: dict = {"name": doc["name"], "orbit": doc["orbit"], "description": doc.get("description")}
    if values["description"] is not None and not isinstance(values["description"], str):
        raise ValidationError("description", "description must be a string")
    band = doc.get("band")
    if band is not None and not isinstance(band, str):
        raise ValidationError("band", "band must be a string")
    values["band"] = band

    for key, kind in _SCALAR_FIELDS.items():
        if key in doc:
            values[key] = require_number(key, doc[key], kind)
    for key in _COUNT_FIELDS:
        if key in doc:
            values[key] = require_count(key, doc[key], field=key)
            require_count(key, doc[key], "must lie within the float range", key, top=sys.float_info.max)

    if "terminal" in doc and doc["terminal"] is not None:
        values["terminal"] = terminal_profile(doc["terminal"])

    annotations = doc.get("annotations", [])
    if not isinstance(annotations, list) or not all(isinstance(a, str) for a in annotations):
        raise ValidationError("annotations", "annotations must be a list of strings")
    values["annotations"] = tuple(annotations)

    cases: list[LinkCase] = []
    for direction in (DL, UL):
        point = {}
        for short, key in (
            ("sinr_db", f"sinr_{direction}_db"),
            ("se_bps_hz", f"se_{direction}_bps_hz"),
            ("bitrate_mbps", f"bitrate_{direction}_mbps"),
        ):
            if key in values:
                point[short] = values.pop(key)
        if point:
            cases.append(LinkCase(direction=direction, **point))
    raw_cases = doc.get("cases", [])
    if not isinstance(raw_cases, list):
        raise ValidationError("cases", "cases must be a list")
    cases.extend(_parse_case(c, i) for i, c in enumerate(raw_cases))
    values["cases"] = tuple(cases)
    return Scenario(**values)


def load_scenario(source) -> Scenario:
    """Load and validate a scenario from a mapping, JSON text or a file path.

    Malformed JSON raises ParseError naming the file (or "scenario document") and
    the location, as does a file holding another JSON type; invariant
    violations raise ValidationError naming the field.
    """
    if isinstance(source, dict):
        return _scenario_from_doc(source)
    text, path = read_document(source, "scenario")
    doc = parse_json(text, path or "scenario document")
    if path and not isinstance(doc, dict):
        raise ParseError(f"{path}: scenario must be a JSON object")
    return _scenario_from_doc(doc)


def scenario_to_doc(s: Scenario) -> dict:
    """Canonical document form; load_scenario(scenario_to_doc(s)) == s."""
    return record_doc(s)


# --- the consistency pipeline ----------------------------------------------

_ORBIT_CLASS_TO_CHART = {"GEO": GEO, "LEO": NON_GEO, "MEO": NON_GEO}


def _grade(quantity, direction, label, names, inputs, compute, reported=None, grade=None) -> Finding:
    """The one grading rule: the finding for `quantity` from `inputs`, named by
    `names`. If any input is None it is not computable, `missing` naming each
    such input in order. Else `compute(*inputs)` is `computed` when nothing was
    reported, and otherwise graded by the status and delta `grade` returns."""
    if None in inputs:
        missing = tuple([name for name, value in zip(names, inputs) if value is None])
        return Finding(quantity, NOT_COMPUTABLE, direction, label, None, reported, None, missing)
    computed = compute(*inputs)
    if reported is None:
        return Finding(quantity, COMPUTED, direction, label, computed)
    status, delta = grade(computed, reported)
    return Finding(quantity, status, direction, label, computed, reported, delta)


def _band(freq_ghz: float, chart_direction: str, chart_orbit: str) -> str:
    """The chart's band at a frequency in GHz, or "out-of-band (<band> nearest)"."""
    freq_hz = require_no_overflow(freq_ghz * 1e9, "frequency {} GHz is too large for a frequency in Hz", freq_ghz)
    try:
        return band_lookup(freq_hz, chart_direction, chart_orbit)
    except OutOfBandError as exc:
        return f"out-of-band ({exc.nearest.band} nearest)"


def _band_match(band: str, declared: str) -> tuple[str, None]:
    """Consistent when the band is one of the declared "/"-separated bands; an
    out-of-band result never is."""
    match = not band.startswith("out-of-band") and band in [b.strip() for b in declared.split("/")]
    return (CONSISTENT if match else INCONSISTENT), None


def _shannon_bound(sinr_db: float) -> float:
    return max_spectral_efficiency(linear_from_db(sinr_db))


def _se_excess(bound: float, se_bps_hz: float) -> tuple[str, float]:
    """A reported spectral efficiency above the Shannon bound is inconsistent."""
    excess = se_bps_hz - bound
    return (INCONSISTENT if excess > SE_BOUND_SLACK else CONSISTENT), excess


def _bitrate_bps(se_bps_hz: float, bw_mhz: float) -> float:
    bw_hz = require_no_overflow(bw_mhz * 1e6, "bandwidth {} MHz is too large for a bandwidth in Hz", bw_mhz)
    return effective_bitrate(se_bps_hz, bw_hz)


def _relative_error(bitrate: float, reported: float) -> tuple[str, float]:
    rel = require_no_overflow(
        abs(bitrate - reported) / reported,
        "bitrate {} b/s against reported bitrate {} b/s is too large for a relative error", bitrate, reported,
    )
    return (CONSISTENT if rel <= BITRATE_TOLERANCE else INCONSISTENT), rel


@record
class ScenarioReport:
    """Echo of a scenario plus every derived quantity and its verdict."""

    scenario: Scenario
    slant_range_km: float | None = None
    findings: tuple[Finding, ...] = ()

    to_doc = record_doc

    def to_json(self) -> str:
        return dump_json(self.to_doc())

    @classmethod
    def from_doc(cls, doc: dict) -> "ScenarioReport":
        """The report a `to_doc` mapping describes; another shape raises ParseError
        "report document: …", and its scenario is refused as load_scenario refuses it."""
        if not isinstance(doc, dict):
            raise ParseError(f"report document: wrong shape (a report must be a mapping, got {type(doc).__name__})")
        if "scenario" not in doc:
            raise ParseError("report document: missing key 'scenario'")
        scenario, findings = _scenario_from_doc(doc["scenario"]), doc.get("findings", [])
        if not isinstance(findings, list):
            raise ParseError(f"report document: wrong shape (findings must be a list, got {type(findings).__name__})")
        findings, slant_range_km = tuple(map(Finding.from_doc, findings)), doc.get("slant_range_km")
        if type(slant_range_km) not in _NUMBER_OR_NULL:
            raise ParseError(f"report document: slant_range_km must be a number or null, got {_show(slant_range_km)}")
        return cls(scenario, slant_range_km, findings)

    @classmethod
    def from_json(cls, text: str) -> "ScenarioReport":
        return cls.from_doc(parse_json(text, "report document"))

    def finding(self, quantity: str, direction: str | None = None, label: str | None = None) -> Finding:
        for f in self.findings:
            if f.quantity == quantity and (direction is None or f.direction == direction) and (
                label is None or f.label == label
            ):
                return f
        raise NotFoundError(f"no finding for {quantity!r} (direction={direction}, label={label})")


def run_scenario(s: Scenario, constants: PhysicalConstants = DEFAULT_CONSTANTS) -> ScenarioReport:
    """Derive everything the scenario's inputs permit and grade consistency.

    Missing inputs produce not-computable findings listing what was absent;
    they never become failures or fabricated defaults. `constants` gives the
    Earth radius of the slant range.
    """

    def slant_range_km(altitude_km: float, elevation_deg: float) -> float:
        return slant_range_exact(altitude_km, math.radians(elevation_deg), constants)

    names, inputs = ("altitude_km", "elevation_deg"), (s.altitude_km, s.elevation_deg)
    slant = _grade("slant_range_km", None, None, names, inputs, slant_range_km)
    findings = [slant]
    for direction, chart_direction, freq_ghz in ((DL, DOWNLINK, s.freq_dl_ghz), (UL, UPLINK, s.freq_ul_ghz)):
        if freq_ghz is not None:  # a band finding only for a given frequency
            names = ("freq_ghz", "chart_direction", "chart_orbit")
            inputs = (freq_ghz, chart_direction, _ORBIT_CLASS_TO_CHART.get(s.orbit.upper(), ANY_ORBIT))
            findings.append(_grade("band", direction, None, names, inputs, _band, s.band, _band_match))
    if s.beams is not None or s.footprint_radius_km is not None:
        names, inputs = ("footprint_radius_km", "beams"), (s.footprint_radius_km, s.beams)
        findings.append(_grade("cell_radius_km", None, None, names, inputs, cell_radius_from_split))

    for case in s.cases:
        d, l, se, reported = case.direction, case.label, case.se_bps_hz, case.bitrate_mbps
        findings.append(_grade("se_vs_shannon", d, l, ("sinr_db",), (case.sinr_db,), _shannon_bound, se, _se_excess))
        names, inputs = ("se_bps_hz", "bw_mhz"), (se, s.bw_mhz_for(case))
        if reported is not None:
            reported = require_no_overflow(
                reported * 1e6, "reported bitrate {} Mb/s is too large for a bitrate in b/s", reported
            )
        findings.append(_grade("bitrate_bps", d, l, names, inputs, _bitrate_bps, reported, _relative_error))

    return ScenarioReport(scenario=s, slant_range_km=slant.computed, findings=tuple(findings))


# --- built-in project fixtures ----------------------------------------------
# Field values follow each project's published parameter list; where the
# summary table of the same source disagrees, the subsection values win and
# the divergence is kept as an annotation.

_FIXTURE_DOCS: tuple[dict, ...] = (
    {
        "name": "thales",
        "description": "Thales Alenia Space LEO constellation for land-mobile users",
        "orbit": "LEO",
        "altitude_km": 600.0,
        "elevation_deg": 30.0,
        "reuse": 3,
        "band": "S",
        "freq_dl_ghz": 2.0,
        "freq_ul_ghz": 2.0,
        "bw_dl_mhz": 10.0,
        "bw_ul_mhz": 0.36,
        "sinr_dl_db": 5.5,
        "sinr_ul_db": 2.5,
        "se_dl_bps_hz": 1.35,
        "se_ul_bps_hz": 1.0,
        "bitrate_dl_mbps": 13.5,
        "bitrate_ul_mbps": 0.36,
        "terminal": "class3-ue",
        "annotations": [
            "satellite EIRP density 34 dBW/MHz, satellite G/T 1.1 dB/K",
            "pedestrian users (3 km/h) in North America",
            "declared 2 GHz downlink sits outside the ITU S-band downlink "
            "allocations (2160-2200 / 2483.5-2500 MHz); reported honestly by the band check",
        ],
    },
    {
        "name": "intelsat-haps",
        "description": "Intelsat HAP coverage of deep rural Nigeria",
        "orbit": "HAP",
        "altitude_km": 20.0,
        "band": "S",
        "freq_dl_ghz": 1.8,
        "freq_ul_ghz": 1.8,
        "bw_dl_mhz": 13.0,
        "bw_ul_mhz": 13.0,
        "margin_db": 4.0,
        "beams": 16,
        "footprint_radius_km": 50.0,
        "terminal": {"name": "class3-ue", "nf_db": 9.0},
        "cases": [
            {"direction": "dl", "label": "cell-center", "sinr_db": 21.0, "se_bps_hz": 5.555, "bitrate_mbps": 72.0},
            {"direction": "ul", "label": "cell-border-low", "sinr_db": 2.0, "se_bps_hz": 0.8, "bitrate_mbps": 10.0},
            {"direction": "ul", "label": "cell-border-high", "sinr_db": 7.9, "se_bps_hz": 1.4, "bitrate_mbps": 18.0},
        ],
        "annotations": [
            "nominal platform altitude 20 +/- 2 km",
            "4 dB link margin budgeted for rain fade",
            "summary table instead lists SINR 13 dB and SE 2.2/2.4 bps/Hz",
        ],
    },
    {
        "name": "inmarsat-geo-iot",
        "description": "Inmarsat GEO narrowband-IoT service in Algeria",
        "orbit": "GEO",
        "altitude_km": 38000.0,
        "band": "L",
        "freq_dl_ghz": 1.5,
        "freq_ul_ghz": 1.5,
        "bw_dl_mhz": 0.2,
        "bw_ul_mhz": 0.015,
        "se_dl_bps_hz": 0.67,
        "se_ul_bps_hz": 0.67,
        "bitrate_dl_mbps": 0.112,
        "bitrate_ul_mbps": 0.00933,
        "annotations": [
            "SINR not reported",
            "narrowband-IoT user terminals",
            "uplink figures imply a spectral efficiency of 0.622 bps/Hz, not the reported 0.67",
            "project quotes a 38,000 km GEO altitude; the geostationary altitude is 35,786 km",
            "summary table instead lists 200 kHz both ways and SE 0.6-1.33 bps/Hz",
        ],
    },
    {
        "name": "echostar-geo",
        "description": "EchoStar GEO land-mobile and rural broadband, Africa and America",
        "orbit": "GEO",
        "altitude_km": 38000.0,
        "band": "S",
        "freq_dl_ghz": 2.0,
        "freq_ul_ghz": 2.0,
        "reuse": 3,
        "cases": [
            {"direction": "dl", "label": "vsat", "sinr_db": 15.4, "se_bps_hz": 4.0},
            {"direction": "ul", "label": "vsat", "sinr_db": 11.0, "se_bps_hz": 2.5},
            {"direction": "dl", "label": "class3-ue", "sinr_db": 3.0, "se_bps_hz": 1.2},
            {"direction": "ul", "label": "class3-ue", "sinr_db": 0.7, "se_bps_hz": 1.0},
        ],
        "annotations": [
            "two terminal classes: VSAT and handheld Class 3 UE",
            "bandwidth and bitrate not reported",
            "project quotes a 38,000 km GEO altitude; the geostationary altitude is 35,786 km",
        ],
    },
    {
        "name": "oneweb-leo",
        "description": "OneWeb LEO broadband with terrestrial integration",
        "orbit": "LEO",
        "altitude_km": 1200.0,
        "band": "Ku",
        "freq_dl_ghz": 11.7,
        "freq_ul_ghz": 14.5,
        "margin_db": 2.0,
        "cases": [
            {"direction": "dl", "label": "best", "bitrate_mbps": 830.0},
            {"direction": "ul", "label": "best", "bitrate_mbps": 830.0},
            {"direction": "dl", "label": "worst", "bitrate_mbps": 140.0},
            {"direction": "ul", "label": "worst", "bitrate_mbps": 140.0},
        ],
        "annotations": [
            "2 dB margin for atmospheric loss",
            "flat-panel ground antennas, G/T 7 to 9 dB/K",
            "bitrate symmetrical: 830 Mb/s best case, 140 Mb/s worst case",
            "SINR, SE and bandwidth not reported; summary table misplaces the "
            "bitrate range in its SINR column and lists SE 4/1.2 bps/Hz",
        ],
    },
    {
        "name": "intelsat-geo-hts",
        "description": "Intelsat GEO high-throughput satellite for Mediterranean maritime broadband",
        "orbit": "GEO",
        "altitude_km": 38000.0,
        "band": "Ku",
        "terminal": "vsat",
        "cases": [
            {"direction": "dl", "label": "best", "se_bps_hz": 1.0},
            {"direction": "dl", "label": "worst", "se_bps_hz": 0.6},
            {"direction": "ul", "label": "best", "se_bps_hz": 1.6},
            {"direction": "ul", "label": "worst", "se_bps_hz": 1.6},
        ],
        "annotations": [
            "hundreds to thousands of beams",
            "worst case is the beam edge",
            "SINR, bandwidth and bitrate not reported; summary table SINR entry is garbled",
            "project quotes a 38,000 km GEO altitude; the geostationary altitude is 35,786 km",
        ],
    },
    {
        "name": "avanti-geo-hts",
        "description": "Avanti GEO high-throughput satellite for connected cars",
        "orbit": "GEO",
        "altitude_km": 38000.0,
        "band": "Ka",
        "sinr_dl_db": 2.3,
        "sinr_ul_db": 4.4,
        "se_dl_bps_hz": 0.9,
        "se_ul_bps_hz": 1.3,
        "annotations": [
            "car-mounted antenna with G/T 7.4 dB/K",
            "SINR under clear-sky conditions; SE figures are best case",
            "bandwidth and bitrate not reported",
            "project quotes a 38,000 km GEO altitude; the geostationary altitude is 35,786 km",
        ],
    },
    {
        "name": "hispasat-amazonas-3",
        "description": "Hispasat Amazonas 3 GEO rural and maritime connectivity",
        "orbit": "GEO",
        "altitude_km": 35786.0,
        "band": "Ka/Ku/C",
        "cases": [
            {"direction": "dl", "label": "best", "bitrate_mbps": 60.0},
            {"direction": "dl", "label": "worst", "bitrate_mbps": 30.0},
        ],
        "annotations": [
            "63 transponders: 9 user and 4 gateway in Ka, 33 in Ku, 19 in C",
            "transponder bandwidths of 54 MHz and 36 MHz",
            "reported bitrate 30-60 Mb/s; link direction unspecified, recorded as downlink",
        ],
    },
)


def builtin_fixtures() -> tuple[Scenario, ...]:
    """The bundled NTN project scenarios, validated through the loader."""
    return tuple(load_scenario(doc) for doc in _FIXTURE_DOCS)


def fixture(name: str) -> Scenario:
    for doc in _FIXTURE_DOCS:
        if doc["name"] == name:
            return load_scenario(doc)
    names = [doc["name"] for doc in _FIXTURE_DOCS]
    raise NotFoundError(f"unknown fixture {_show(name)}; available: {', '.join(names)}", valid_ids=names)
