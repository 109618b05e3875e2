"""Run configuration: JSON schema, defaults, loading, and hashing."""

from __future__ import annotations

import copy
import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path

from .errors import ConfigError, DomainError
from .geometry import BCKind, Profile, build_profile
from .radial.fem import MeshSpec

_MODEL_SCHEMA = {
    "type": "object",
    "properties": {
        "type": {"enum": ["spindle", "truncated_spindle", "cone", "annulus"]},
        "radius": {"type": "number", "exclusiveMinimum": 0},
        "cut": {"type": "number", "exclusiveMinimum": 0},
        "r_lo": {"type": "number", "exclusiveMinimum": 0},
        "r_hi": {"type": "number", "exclusiveMinimum": 0},
    },
    "required": ["type"],
    "additionalProperties": False,
}

SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "properties": {
        "n": {"type": "integer", "minimum": 2},
        "degrees": {"type": "array", "items": {"type": "integer", "minimum": 0}, "minItems": 1},
        "m1": _MODEL_SCHEMA,
        "m2": _MODEL_SCHEMA,
        "epsilons": {
            "type": "array",
            "items": {"type": "number", "exclusiveMinimum": 0},
            "minItems": 1,
        },
        "lam_max": {"type": "number", "exclusiveMinimum": 0},
        "k_track": {"type": "integer", "minimum": 1},
        "solver": {
            "type": "object",
            "properties": {
                "method": {"enum": ["fem", "secular", "both"]},
                "mesh_h": {"type": "number", "exclusiveMinimum": 0},
            },
            "additionalProperties": False,
        },
        "output": {
            "type": "object",
            "properties": {
                "format": {"enum": ["csv", "json"]},
                "directory": {"type": "string"},
                "svg": {"type": "boolean"},
            },
            "additionalProperties": False,
        },
        "mu_sq_max": {"type": "number", "exclusiveMinimum": 0},
    },
    "required": ["n", "m1", "m2"],
    "additionalProperties": False,
}


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


# Draft 2020-12 types: a bool is neither a number nor an integer, and 3.0 is an integer
_IS_TYPE = {
    "object": lambda v: isinstance(v, dict),
    "array": lambda v: isinstance(v, list),
    "string": lambda v: isinstance(v, str),
    "boolean": lambda v: isinstance(v, bool),
    "number": _is_number,
    "integer": lambda v: _is_number(v) and (isinstance(v, int) or v.is_integer()),
}


def _violation(schema: dict, value, path: str = "config") -> str | None:
    """The first way ``value`` breaks ``schema``, as "path: message", or None.

    Interprets exactly the keywords SCHEMA uses (type, enum, minimum,
    exclusiveMinimum, minItems, items, properties, required and
    additionalProperties: false) with Draft 2020-12 meaning, so on finite
    numbers it accepts what jsonschema's Draft202012Validator accepts.  It
    also rejects NaN and infinities: json reads them, and the bounds let
    them through (NaN <= 0 is false), but no field can use them.
    """
    if isinstance(value, float) and not math.isfinite(value):
        return f"{path}: {value!r} is not a finite number"
    kind = schema.get("type")
    if kind is not None and not _IS_TYPE[kind](value):
        return f"{path}: {value!r} is not of type {kind!r}"
    if "enum" in schema and value not in schema["enum"]:
        return f"{path}: {value!r} is not one of {schema['enum']!r}"
    if _is_number(value):
        if "minimum" in schema and value < schema["minimum"]:
            return f"{path}: {value!r} is less than the minimum of {schema['minimum']!r}"
        if "exclusiveMinimum" in schema and value <= schema["exclusiveMinimum"]:
            return f"{path}: {value!r} is less than or equal to the minimum of {schema['exclusiveMinimum']!r}"
    if isinstance(value, list):
        if len(value) < schema.get("minItems", 0):
            return f"{path}: {value!r} has fewer than {schema['minItems']} items"
        for i, item in enumerate(value):
            found = _violation(schema.get("items", {}), item, f"{path}[{i}]")
            if found:
                return found
    if isinstance(value, dict):
        props = schema.get("properties", {})
        for key in schema.get("required", ()):
            if key not in value:
                return f"{path}: {key!r} is a required property"
        if schema.get("additionalProperties") is False:
            extra = [key for key in value if key not in props]
            if extra:
                return f"{path}: additional properties are not allowed ({', '.join(map(repr, extra))})"
        for key, sub in props.items():
            if key in value:
                found = _violation(sub, value[key], f"{path}.{key}")
                if found:
                    return found
    return None


DEFAULTS = {
    "n": 2,
    "degrees": [0, 1],
    "m1": {"type": "spindle", "radius": 1.0},
    "m2": {"type": "truncated_spindle", "radius": 2.0, "cut": 1.0},
    "epsilons": [0.2, 0.1, 0.05, 0.025],
    "lam_max": 40.0,
    "k_track": 5,
    "solver": {"method": "fem", "mesh_h": 0.02},
    "output": {"format": "csv", "directory": "out", "svg": False},
    "mu_sq_max": 60.0,
}


@dataclass
class RunConfig:
    raw: dict

    @property
    def n(self) -> int:
        return int(self.raw["n"])

    @property
    def degrees(self) -> list[int]:
        return [int(p) for p in self.raw["degrees"]]

    @property
    def epsilons(self) -> list[float]:
        return [float(e) for e in self.raw["epsilons"]]

    @property
    def lam_max(self) -> float:
        return float(self.raw["lam_max"])

    @property
    def k_track(self) -> int:
        return int(self.raw["k_track"])

    @property
    def method(self) -> str:
        return self.raw["solver"]["method"]

    @property
    def mu_sq_max(self) -> float:
        return float(self.raw["mu_sq_max"])

    def m1(self) -> Profile:
        return build_profile(self.raw["m1"])

    def m2(self, bc: BCKind | None = None) -> Profile:
        prof = build_profile(self.raw["m2"])
        if bc is not None:
            if prof.start_radius == 0.0:
                raise DomainError(f"the {bc.name} condition needs m2 to start with a boundary, not at a tip")
            prof = Profile(prof.segments, bc, prof.end_bc)
        return prof

    def mesh(self) -> MeshSpec:
        return MeshSpec(h=float(self.raw["solver"]["mesh_h"]))

    @property
    def output(self) -> dict:
        return self.raw["output"]

    def hash(self) -> str:
        blob = json.dumps(self.raw, sort_keys=True, separators=(",", ":")).encode()
        return hashlib.sha256(blob).hexdigest()[:16]


def _merge(base: dict, override: dict) -> dict:
    """``base`` overlaid with ``override``, object by object; an object that
    names another model ``type`` replaces its base instead."""
    out = copy.deepcopy(base)
    for key, val in override.items():
        old = out.get(key)
        if isinstance(val, dict) and isinstance(old, dict) and val.get("type", old.get("type")) == old.get("type"):
            out[key] = _merge(out[key], val)
        else:
            out[key] = copy.deepcopy(val)
    return out


def load_config(path: str | Path | None = None, overrides: dict | None = None) -> RunConfig:
    """Defaults, optionally overlaid with a JSON file and explicit overrides."""
    data: dict = {}
    if path is not None:
        try:
            data = json.loads(Path(path).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        if not isinstance(data, dict):  # _merge overlays objects only
            raise ConfigError(_violation({"type": "object"}, data))
    merged = _merge(DEFAULTS, data)
    if overrides:
        merged = _merge(merged, overrides)
    error = _violation(SCHEMA, merged)
    if error is not None:
        raise ConfigError(error)
    eps = merged["epsilons"]
    if any(a <= b for a, b in zip(eps, eps[1:])):
        raise ConfigError("epsilons must be strictly decreasing")
    n = merged["n"]
    degrees = merged["degrees"]
    for i, p in enumerate(degrees):
        if p > n + 1:
            raise ConfigError(f"degree {p} exceeds the manifold dimension {n + 1}")
        if p in degrees[:i]:
            raise ConfigError(f"degree {p} is repeated")
    return RunConfig(raw=merged)
