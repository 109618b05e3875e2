"""Run configuration: JSON schema, defaults, loading, and hashing."""

from __future__ import annotations

import copy
import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

import jsonschema

from .errors import ConfigError
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
                "cross_rtol": {"type": "number", "exclusiveMinimum": 0},
                "cap_factor": {"type": "number", "minimum": 1},
            },
            "additionalProperties": False,
        },
        "mcgowan": {
            "type": "object",
            "properties": {
                "omega": {"type": "number", "exclusiveMinimum": 0},
                "c_rho": {"type": ["number", "null"], "exclusiveMinimum": 0},
            },
            "additionalProperties": False,
        },
        "checks": {
            "type": "object",
            "properties": {
                "taka_margin": {"type": "number", "exclusiveMinimum": 1},
                "final_rel_tol": {"type": "number", "exclusiveMinimum": 0},
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

DEFAULTS = {
    "n": 2,
    "degrees": [0, 1],
    "m1": {"type": "spindle", "radius": 1.0},
    "m2": {"type": "truncated_spindle", "radius": 2.0, "cut": 1.0},
    "epsilons": [0.2, 0.1, 0.05, 0.025],
    "lam_max": 40.0,
    "k_track": 5,
    "solver": {
        "method": "fem",
        "mesh_h": 0.02,
        "cross_rtol": 1e-6,
        "cap_factor": 1.0,
    },
    "mcgowan": {"omega": 1.0, "c_rho": None},
    "checks": {"taka_margin": 1.05, "final_rel_tol": 0.02},
    "output": {"format": "csv", "directory": "out", "svg": False},
    "mu_sq_max": 60.0,
}


@dataclass
class RunConfig:
    raw: dict

    @property
    def n(self) -> int:
        return self.raw["n"]

    @property
    def degrees(self) -> list[int]:
        return list(self.raw["degrees"])

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
            prof = Profile(prof.segments, bc, prof.end_bc)
        return prof

    def mesh(self) -> MeshSpec:
        return MeshSpec(h=float(self.raw["solver"]["mesh_h"]))

    @property
    def solver(self) -> dict:
        return self.raw["solver"]

    @property
    def mcgowan(self) -> dict:
        return self.raw["mcgowan"]

    @property
    def checks(self) -> dict:
        return self.raw["checks"]

    @property
    def output(self) -> dict:
        return self.raw["output"]

    def hash(self) -> str:
        blob = json.dumps(self.raw, sort_keys=True, separators=(",", ":")).encode()
        return hashlib.sha256(blob).hexdigest()[:16]


def _merge(base: dict, override: dict) -> dict:
    out = copy.deepcopy(base)
    for key, val in override.items():
        if isinstance(val, dict) and isinstance(out.get(key), dict):
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
    merged = _merge(DEFAULTS, data)
    if overrides:
        merged = _merge(merged, overrides)
    try:
        jsonschema.validate(merged, SCHEMA)
    except jsonschema.ValidationError as exc:
        raise ConfigError(f"config schema violation: {exc.message}") from exc
    eps = merged["epsilons"]
    if any(a <= b for a, b in zip(eps, eps[1:])):
        raise ConfigError("epsilons must be strictly decreasing")
    n = merged["n"]
    for p in merged["degrees"]:
        if p > n + 1:
            raise ConfigError(f"degree {p} exceeds the manifold dimension {n + 1}")
    return RunConfig(raw=merged)
