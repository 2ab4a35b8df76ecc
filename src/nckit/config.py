"""Plain-text configuration files.

One INI-style file can carry up to two sections:

    [theta]            deformation profile, entries as polynomials in t
    t12 = t^2
    t23 = 1/2

    [planewave]        wave data for the electromagnetic ansatz
    omega = 3
    k = 1 2 2
    p = 1 2 0 1
    profile = cos      (or ascending coefficients in u: "0 0 1")

The module reads both sections (``load_config``) and writes them
(``theta_to_text``, ``planewave_items``).  Every section is optional;
unknown sections and keys are rejected so typos fail loudly instead of
silently falling back to defaults.  Section names and keys are
case-sensitive.  Values are read literally: ``%`` has no interpolation
meaning, and ``[DEFAULT]`` is an unknown section like any other.
"""

from __future__ import annotations

import configparser
import os
import re
import threading
from dataclasses import dataclass
from fractions import Fraction

from .expr import (GradingError, ParseError, SizeLimitError, evaluate,
                   parse_expression, poly_to_expr)
from .planewave import PlaneWaveSpec
from .poly import Poly
from .star import PAIRS, StarContext, ThetaProfile


class ConfigError(Exception):
    pass


_FLAT = StarContext(ThetaProfile.zero())


def _theta_entry(key: str, text: str) -> Poly:
    try:
        value = evaluate(parse_expression(text), _FLAT)
    except (ParseError, GradingError, SizeLimitError) as exc:
        raise ConfigError(f"[theta] {key}: {exc}") from None
    if not isinstance(value, Poly):
        raise ConfigError(f"[theta] {key} must be a scalar polynomial")
    if not value.uses_only(("t",)):
        raise ConfigError(f"[theta] {key} may only involve t")
    if not value.is_real_valued():
        raise ConfigError(f"[theta] {key} must be real-valued")
    return value


def _check_keys(section, known) -> None:
    for key in section:
        if key not in known:
            raise ConfigError(f"unknown key {key!r} in [{section.name}]")


_THETA_SLOTS = {f"t{i}{j}": (i, j) for i, j in PAIRS}


def theta_to_text(theta: ThetaProfile) -> dict[str, str]:
    """The [theta] keys and values that read back as theta."""
    return {f"t{i}{j}": poly_to_expr(p)
            for (i, j), p in theta.upper_entries().items()}


def _parse_theta(section) -> ThetaProfile:
    _check_keys(section, _THETA_SLOTS)
    return ThetaProfile({_THETA_SLOTS[key]: _theta_entry(key, text)
                         for key, text in section.items()})


# ASCII integers and fractions only: Fraction(str) also takes decimals,
# exponents (1e3000000 runs for seconds), underscores and non-ASCII digits
_RATIONAL = re.compile(r"[+-]?[0-9]+(/[0-9]+)?")


def _fraction(text: str, where: str) -> Fraction:
    text = text.strip()
    if _RATIONAL.fullmatch(text):
        try:
            return Fraction(text)
        except (ValueError, ZeroDivisionError):  # 1/0, or past int's digit limit
            pass
    raise ConfigError(f"{where}: not a rational: {text!r}")


def _fraction_list(text: str, count: int, where: str) -> tuple[Fraction, ...]:
    parts = text.split()
    if len(parts) != count:
        raise ConfigError(f"{where}: expected {count} entries, got {len(parts)}")
    return tuple(_fraction(p, where) for p in parts)


def planewave_items(spec: PlaneWaveSpec) -> list[tuple[str, str]]:
    """The [planewave] keys and values, in file order, that read back as
    spec."""
    profile = (spec.profile if isinstance(spec.profile, str)
               else " ".join(map(str, spec.profile)))
    return [("omega", str(spec.omega)), ("k", " ".join(map(str, spec.k))),
            ("p", " ".join(map(str, spec.p))), ("profile", profile)]


def _parse_planewave(section) -> PlaneWaveSpec:
    _check_keys(section, ("omega", "k", "p", "profile"))
    for key in ("omega", "k", "p"):
        if key not in section:
            raise ConfigError(f"[planewave] is missing {key!r}")
    omega = _fraction(section["omega"], "[planewave] omega")
    k = _fraction_list(section["k"], 3, "[planewave] k")
    p = _fraction_list(section["p"], 4, "[planewave] p")
    profile_text = section.get("profile", "cos").strip()
    if profile_text == "cos":
        profile = "cos"
    else:
        parts = profile_text.split()
        if not parts:
            raise ConfigError("[planewave] profile: expected 'cos' or at "
                              "least one coefficient")
        profile = tuple(_fraction(v, "[planewave] profile") for v in parts)
    return PlaneWaveSpec(omega, k, p, profile)


@dataclass(frozen=True)
class Config:
    theta: ThetaProfile | None = None
    planewave: PlaneWaveSpec | None = None


# one reader per process: a ConfigParser costs more to build than a small
# file to read.  No interpolation: % is left for the value parsers to
# reject; and no header line can name the default section, so [DEFAULT]
# is an ordinary, hence unknown, section
_READER = configparser.ConfigParser(interpolation=None, default_section="\n")
_READER.optionxform = str  # keys are case-sensitive: T12 is not t12
_READER_LOCK = threading.Lock()


def load_config(path) -> Config:
    if not os.path.exists(path):
        raise ConfigError(f"no such config file: {path}")
    with _READER_LOCK:
        cp = _READER
        try:
            with open(path, "r", encoding="utf-8") as fh:
                cp.read_file(fh)
            for name in cp.sections():
                if name not in ("theta", "planewave"):
                    raise ConfigError(f"unknown section [{name}]")
            theta = (_parse_theta(cp["theta"]) if cp.has_section("theta")
                     else None)
            wave = (_parse_planewave(cp["planewave"])
                    if cp.has_section("planewave") else None)
            return Config(theta, wave)
        except (configparser.Error, OSError) as exc:  # raised by the read
            raise ConfigError(f"{path}: {exc}") from None
        finally:
            for name in cp.sections():  # a failed read leaves some too
                cp.remove_section(name)


def load_theta(path) -> ThetaProfile:
    """Read just the deformation profile; absence means the flat profile."""
    cfg = load_config(path)
    return cfg.theta if cfg.theta is not None else ThetaProfile.zero()
