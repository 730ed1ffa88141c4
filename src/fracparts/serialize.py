"""File formats: system description JSON, outcome JSON, certificate JSON.

Certificates are written as canonical JSON (sorted keys, no whitespace) so
identical runs produce byte-identical files.
"""

from __future__ import annotations

import json
from fractions import Fraction
from pathlib import Path
from typing import Union

from .core import Epsilons, Poly, PolySystem, Real, SystemState, parse_scalar
from .reduction import TERMINAL_FOUND, Certificate, state_from_dict

PathLike = Union[str, Path]


class SystemFileError(ValueError):
    """System description file is malformed; message carries the field."""


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def _threshold(name: str, text) -> Fraction:
    """A tolerance or the horizon: a decimal or ``p/q``, never an approximant."""
    try:
        value = parse_scalar(str(text))
    except ValueError as exc:
        raise SystemFileError(f"field {name!r}: {exc}") from exc
    if not value.exact:
        raise SystemFileError(
            f"field {name!r}: {text!r} is irrational; tolerances and the horizon "
            "must be decimal or p/q")
    return value.value


def parse_system_dict(data: dict) -> SystemState:
    for key in ("d", "polys", "eps", "x"):
        if key not in data:
            raise SystemFileError(f"missing field {key!r}")
    d = data["d"]
    if type(d) is not int or d < 1:  # bool is an int subclass
        raise SystemFileError(f"field 'd': need a positive integer, got {d!r}")
    if not isinstance(data["polys"], list) or not data["polys"]:
        raise SystemFileError("field 'polys': need a nonempty list of coefficient lists")
    polys = []
    for idx, coeffs in enumerate(data["polys"]):
        if (not isinstance(coeffs, list) or len(coeffs) != d
                or not all(isinstance(c, str) for c in coeffs)):
            raise SystemFileError(
                f"field 'polys[{idx}]': need exactly d={d} coefficient strings")
        try:
            polys.append(Poly(tuple(parse_scalar(c) for c in coeffs)))
        except ValueError as exc:
            raise SystemFileError(f"field 'polys[{idx}]': {exc}") from exc
    if not isinstance(data["eps"], list) or len(data["eps"]) != len(polys):
        raise SystemFileError("field 'eps': need one tolerance per polynomial")
    eps = tuple(_threshold("eps", e) for e in data["eps"])
    try:
        eps = Epsilons(eps)
    except ValueError as exc:
        raise SystemFileError(f"field 'eps': {exc}") from exc
    x = _threshold("x", data["x"])
    if not x > 1:
        raise SystemFileError(f"field 'x': horizon must exceed 1, got {x}")
    return SystemState(PolySystem(tuple(polys)), eps, x)


def parse_system_file(path: PathLike) -> SystemState:
    """Load a system description: {"d", "polys", "eps", "x"} per the schema."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except json.JSONDecodeError as exc:
        raise SystemFileError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}") from exc
    if not isinstance(data, dict):
        raise SystemFileError(f"{path}: top level must be a JSON object")
    return parse_system_dict(data)


def _coeff_form(c: Real) -> str:
    return c.source if c.source is not None else str(c.value)


def emit_system(state: SystemState, path: PathLike):
    data = {
        "d": state.system.d,
        "polys": [[_coeff_form(c) for c in p.coeffs] for p in state.system.polys],
        "eps": [str(e) for e in state.eps.eps],
        "x": str(state.y),
    }
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(data, indent=2) + "\n")


def write_certificate(cert: Certificate, path: PathLike):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(canonical_json(cert.to_dict()))


def certificate_bytes(cert: Certificate) -> bytes:
    return canonical_json(cert.to_dict()).encode()


def _check_step_record(record) -> None:
    """A chain entry: {"gens": {"h_vecs", "a_vecs"}, "q0", "D2", "child_hit"}."""
    for key in ("h_vecs", "a_vecs"):
        rows = record["gens"][key]
        if not (isinstance(rows, list) and all(
                isinstance(row, list) and all(type(v) is int for v in row) for row in rows)):
            raise TypeError(f"'gens.{key}' must be a list of integer lists")
    for key in ("q0", "D2"):
        if type(record[key]) is not int:
            raise TypeError(f"{key!r} must be an integer")
    if not (record["child_hit"] is None or type(record["child_hit"]) is int):
        raise TypeError("'child_hit' must be an integer or null")


def load_certificate(path: PathLike) -> Certificate:
    """Read a certificate; a missing key or a value of the wrong type is a
    SystemFileError naming the section (root, chain, terminal) it is in."""
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise SystemFileError(f"{path}: top level must be a JSON object")
    for key in ("root", "chain", "terminal"):
        if key not in data:
            raise SystemFileError(f"{path}: missing field {key!r}")
    cert = Certificate.from_dict(data)
    section = "chain"
    try:
        for record in cert.chain:
            _check_step_record(record)
        section = "root"
        state_from_dict(cert.root)
        section = "terminal"
        if cert.terminal.get("kind") == TERMINAL_FOUND:
            if type(cert.terminal["n"]) is not int:
                raise TypeError("'n' must be an integer")
            for dv in cert.terminal["dists"]:
                Fraction(dv)
    except KeyError as exc:
        raise SystemFileError(f"{path}: field {section!r}: missing key {exc}") from exc
    except (TypeError, ValueError, AttributeError) as exc:
        raise SystemFileError(f"{path}: field {section!r}: {exc}") from exc
    return cert
