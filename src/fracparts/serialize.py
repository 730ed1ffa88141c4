"""File formats: system description JSON, outcome JSON, certificate JSON.

Certificates are written as canonical JSON (sorted keys, no whitespace) so
identical runs produce byte-identical files.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Union

from .core import Real, SystemState, parse_scalar, system_from_dict
from .reduction import Certificate, CertificateRecordError, read_certificate

PathLike = Union[str, Path]


class SystemFileError(ValueError):
    """System description file is malformed; message carries the field."""


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def parse_system_file(path: PathLike) -> SystemState:
    """Load a system description (`core.system_from_dict`), coefficients in the grammar."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except json.JSONDecodeError as exc:
        raise SystemFileError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}") from exc
    if not isinstance(data, dict):
        raise SystemFileError(f"{path}: top level must be a JSON object")
    try:
        return system_from_dict(data, lambda text, i, j: parse_scalar(text))
    except KeyError as exc:
        raise SystemFileError(f"missing field {exc}") from exc
    except ValueError as exc:
        raise SystemFileError(str(exc)) from exc


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


def load_certificate(path: PathLike) -> Certificate:
    """Read a certificate; a refused record is a SystemFileError naming its section."""
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise SystemFileError(f"{path}: top level must be a JSON object")
    for key in ("root", "chain", "terminal"):
        if key not in data:
            raise SystemFileError(f"{path}: missing field {key!r}")
    cert = Certificate.from_dict(data)
    try:
        read_certificate(cert)
    except CertificateRecordError as exc:
        raise SystemFileError(f"{path}: {exc}") from exc
    return cert
