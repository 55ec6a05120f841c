"""System parameterization and unit discipline.

All absolute powers are stored in dBm and converted to linear mW before any
SINR or power-consumption arithmetic. Distances are in meters, rates in
bits/s/Hz, phases in radians. Path loss follows the d^(-epsilon) law.
"""
from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, fields
from enum import Enum
from typing import Sequence

import numpy as np

from .ris import MAX_PHASE_BITS

__all__ = [
    "ConfigError",
    "ConfigParseError",
    "ConfigValidationError",
    "RisMode",
    "SystemConfig",
    "dbm_to_linear",
    "path_loss",
    "harvested_power_coefficient",
    "load_config",
    "replace_config",
]


class ConfigError(ValueError):
    """Base class for configuration failures."""


class ConfigParseError(ConfigError):
    """Raised when a config document is malformed or has unknown keys."""


class ConfigValidationError(ConfigError):
    """Raised when a field violates an invariant. Carries the field name."""

    def __init__(self, field_name: str, message: str):
        super().__init__(f"{field_name}: {message}")
        self.field = field_name


class RisMode(str, Enum):
    ACTIVE = "active"
    PASSIVE = "passive"


def dbm_to_linear(x_dbm: float) -> float:
    """dBm -> mW: 10^(x/10)."""
    return 10.0 ** (x_dbm / 10.0)


def path_loss(d, epsilon: float):
    """Path-loss coefficient zeta = d^(-epsilon) for distance d > 0 (m)."""
    d = np.asarray(d, dtype=float)
    if (d <= 0).any():
        raise ValueError("distance must be positive")
    out = d ** (-float(epsilon))
    return float(out) if out.ndim == 0 else out


def harvested_power_coefficient(cfg: "SystemConfig", alpha: float, P_p_dbm: float | None = None) -> float:
    """Harvested-power coefficient eta*alpha*P_p/(1-alpha), in linear mW.

    Scales the transmit power of the energy-constrained device: it harvests
    for a fraction alpha of the interval and spends the energy over the
    remaining 1-alpha. P_p is cfg's hub power unless P_p_dbm is given.
    Returns a Python float, computed in Python floats, so that an overflow
    warns nothing; raises ConfigValidationError on P_p_dbm where it overflows.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    alpha = float(alpha)
    nu1 = cfg.eta * alpha * dbm_to_linear(cfg.P_p_dbm if P_p_dbm is None else P_p_dbm) / (1.0 - alpha)
    if not math.isfinite(nu1):
        raise ConfigValidationError(
            "P_p_dbm", f"nu1 = eta*alpha*P_p/(1-alpha) overflows at alpha={alpha}; it must be finite"
        )
    return nu1


def _finite_in_mw(x_dbm: float) -> bool:
    """True when x_dbm is finite and its linear value 10^(x/10) mW is finite and above 0."""
    try:
        return math.isfinite(x_dbm) and 0.0 < dbm_to_linear(x_dbm) < math.inf
    except OverflowError:
        return False


# Fields that must hold whole numbers, in the order they are validated.
_INT_KEYS = ("M", "b", "quadrature_points", "mc_samples")
_VECTOR_KEYS = ("rho", "d_h", "d_g")  # per-element fields, length-M tuples
# Powers in dBm, each finite with a finite, positive mW value, in the order they are validated.
_DBM_KEYS = ("P_p_dbm", "sigma_v2_dbm", "sigma_n2_dbm", "P1_dbm", "P2_dbm")


def _as_tuple(value, M: int, default: float, name: str) -> tuple[float, ...]:
    """Normalize a scalar / sequence / None to a length-M tuple of floats."""
    if value is None:
        return (float(default),) * M
    if isinstance(value, (int, float)):
        return (float(value),) * M
    vals = tuple(map(float, value))
    if len(vals) == 1:
        return vals * M
    if len(vals) != M:
        raise ConfigValidationError(name, f"expected length {M}, got {len(vals)}")
    return vals


class _cached:
    """functools.cached_property without the lock that Python 3.11's takes on every first read.

    The value goes to the instance's __dict__, where every later read finds it. Two threads
    reading a value first may both compute it; they get equal values.
    """

    def __init__(self, func):
        self.func, self.__doc__ = func, func.__doc__

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, obj, objtype=None):
        if obj is None:
            return self
        value = obj.__dict__[self.name] = self.func(obj)
        return value


@dataclass(frozen=True)
class SystemConfig:
    """Immutable parameter set for one link configuration.

    Scalars rho / d_h / d_g are broadcast to length-M tuples; per-element
    values may be given explicitly. Safe to share across threads.
    """

    P_p_dbm: float = 20.0        # power hub transmit power
    eta: float = 0.8             # rectenna RF->DC efficiency, (0, 1]
    alpha: float = 0.1           # time-switching factor, (0, 1)
    M: int = 36                  # number of RIS elements (0 = no RIS)
    rho: float | Sequence[float] | None = None   # per-element amplification
    rho_max: float = 6.0         # amplification ceiling
    b: int = 4                   # phase quantization bits
    d_p: float = 20.0            # hub -> device distance, m
    d_f: float = 30.0            # device -> receiver direct distance, m
    d_h: float | Sequence[float] | None = None   # device -> element m, m
    d_g: float | Sequence[float] | None = None   # element m -> receiver, m
    epsilon: float = 3.0         # path-loss exponent
    sigma_v2_dbm: float = -80.0  # RIS amplifier noise power
    sigma_n2_dbm: float = -80.0  # receiver static noise power
    r_v: float = 2.0             # target rate, bits/s/Hz
    P1_dbm: float = -10.0        # per-element switching-circuit power
    P2_dbm: float = -10.0        # per-element DC-bias power
    P_R_mw: float = 10.0         # RIS power-consumption ceiling, mW
    ris_mode: RisMode = RisMode.ACTIVE
    quadrature_points: int = 100
    mc_samples: int = 10**5

    def __post_init__(self):
        self._coerce(_FIELDS)
        self._check(_FIELDS)

    def _coerce(self, names):
        """Coerce the fields in `names` in place: text (a str), stripped and parsed in the order of `names` by the
        rule of --set, or a ConfigParseError; each rho / d_h / d_g not in `names` rebroadcast to a new M, if
        uniform; whole numbers; the mode; and rho / d_h / d_g broadcast to length M."""
        values = self.__dict__
        for name in names:
            if type(values[name]) is str:
                raw = values[name].strip()
                try:
                    values[name] = (raw if name == "ris_mode" else int(raw) if name in _INT_KEYS else
                                    tuple(map(float, raw.split(","))) if name in _VECTOR_KEYS else float(raw))
                except ValueError:
                    raise ConfigParseError(f"cannot parse value for {name!r}: {raw!r}") from None

        # only a new M can leave a vector not in `names` at another length than M
        resized = [n for n in _VECTOR_KEYS if n not in names and len(values[n]) != values["M"]] if "M" in names else ()
        for name in resized:
            if len(set(values[name])) > 1:
                raise ConfigValidationError(name, "cannot change M with a non-uniform per-element vector")
            values[name] = values[name][0] if values[name] else None

        for name in _INT_KEYS:
            v = values[name]
            if name in names and type(v) is not int:
                if not float(v).is_integer():
                    raise ConfigValidationError(name, f"must be an integer, got {v}")
                values[name] = int(v)

        mode = self.ris_mode
        if "ris_mode" in names and type(mode) is not RisMode:
            if not isinstance(mode, str):
                raise ConfigValidationError("ris_mode", f"must be 'active' or 'passive', got {mode!r}")
            try:
                values["ris_mode"] = RisMode(mode.lower())
            except ValueError:
                raise ConfigValidationError("ris_mode", f"must be 'active' or 'passive', got {mode!r}") from None

        if "M" in names and self.M < 0:
            raise ConfigValidationError("M", "must be >= 0")
        for name, default in (("rho", self.rho_max), ("d_h", 20.0), ("d_g", 20.0)):
            if name in names or name in resized:
                values[name] = _as_tuple(values[name], self.M, default, name)

    def _check(self, names):
        """Raise ConfigValidationError on the first field, in a fixed order, that breaks an invariant.

        Runs each check that reads a field in `names`: the others passed when the config these
        values come from was built. A per-element tuple is checked over its distinct values; a NaN
        fails every comparison.
        """
        for name in _DBM_KEYS:
            if name in names and not _finite_in_mw(getattr(self, name)):
                raise ConfigValidationError(name, "must be finite in dBm, and finite and above 0 in mW")
        if "alpha" in names and not 0.0 < self.alpha < 1.0:
            raise ConfigValidationError("alpha", f"must lie in (0, 1), got {self.alpha}")
        if "eta" in names and not 0.0 < self.eta <= 1.0:
            raise ConfigValidationError("eta", f"must lie in (0, 1], got {self.eta}")
        if "epsilon" in names and not self.epsilon > 0:
            raise ConfigValidationError("epsilon", "must be positive")
        if "b" in names and not 1 <= self.b <= MAX_PHASE_BITS:
            raise ConfigValidationError("b", f"must lie in [1, {MAX_PHASE_BITS}]")
        if "rho_max" in names and not 0 <= self.rho_max < math.inf:
            raise ConfigValidationError("rho_max", "must be finite and >= 0")
        if "d_p" in names and not self.d_p > 0:
            raise ConfigValidationError("d_p", "must be positive")
        if "d_f" in names and not self.d_f > 0:
            raise ConfigValidationError("d_f", "must be positive")
        if "d_h" in names and not all(d > 0 for d in set(self.d_h)):
            raise ConfigValidationError("d_h", "all distances must be positive")
        if "d_g" in names and not all(d > 0 for d in set(self.d_g)):
            raise ConfigValidationError("d_g", "all distances must be positive")
        # d^-epsilon peaks at the nearest distance; an infinite d_f, d_h or d_g is a blocked link (zeta = 0)
        for name in ("d_p", "d_f", "d_h", "d_g"):
            if name in names or "epsilon" in names:
                d = getattr(self, name)
                try:
                    math.pow(d if name in ("d_p", "d_f") else min(d, default=1), -self.epsilon)
                except OverflowError:  # where numpy would warn and return inf
                    raise ConfigValidationError(name, "path loss d^-epsilon must be finite") from None
        if ("d_p" in names or "epsilon" in names) and not math.pow(self.d_p, -self.epsilon) > 0.0:
            raise ConfigValidationError("d_p", "path loss d^-epsilon must be above 0")
        if ("rho" in names or "rho_max" in names) and not all(0.0 <= r <= self.rho_max for r in set(self.rho)):
            raise ConfigValidationError("rho", f"each element must lie in [0, rho_max={self.rho_max}]")
        if "r_v" in names and not 0 <= self.r_v < math.inf:
            raise ConfigValidationError("r_v", "must be finite and >= 0")
        # With M = 0 the RIS draws nothing, so a budget of exactly 0 mW is met
        if ("P_R_mw" in names or "M" in names) and not (self.P_R_mw > 0 or (self.P_R_mw == 0 and self.M == 0)):
            raise ConfigValidationError("P_R_mw", "must be positive")
        if "quadrature_points" in names and not self.quadrature_points >= 2:
            raise ConfigValidationError("quadrature_points", "must be >= 2")
        # mc_rate_and_outage's floor, checked here so that MC commands fail on the config
        if "mc_samples" in names and not self.mc_samples >= 100:
            raise ConfigValidationError("mc_samples", f"must be >= 100, got {self.mc_samples}")

    # ---- unit conversions and derived coefficients -------------------------

    @property
    def p_p_mw(self) -> float:
        return dbm_to_linear(self.P_p_dbm)

    @property
    def sigma_n2_mw(self) -> float:
        return dbm_to_linear(self.sigma_n2_dbm)

    @property
    def sigma_v2_mw(self) -> float:
        """Amplifier noise in mW; identically 0 in passive mode."""
        if self.ris_mode is RisMode.PASSIVE:
            return 0.0
        return dbm_to_linear(self.sigma_v2_dbm)

    @property
    def p1_mw(self) -> float:
        return dbm_to_linear(self.P1_dbm)

    @property
    def p2_mw(self) -> float:
        return dbm_to_linear(self.P2_dbm)

    @_cached
    def rho_effective(self) -> np.ndarray:
        """Per-element amplification actually applied (all ones in passive mode)."""
        if self.ris_mode is RisMode.PASSIVE:
            arr = np.ones(self.M)
        else:
            arr = np.asarray(self.rho, dtype=float)
        arr.setflags(write=False)
        return arr

    @_cached
    def zeta_p(self) -> float:
        return path_loss(self.d_p, self.epsilon)

    @_cached
    def zeta_f(self) -> float:
        return path_loss(self.d_f, self.epsilon)

    @_cached
    def zeta_h(self) -> np.ndarray:
        arr = np.atleast_1d(path_loss(np.asarray(self.d_h), self.epsilon))
        arr.setflags(write=False)
        return arr

    @_cached
    def zeta_g(self) -> np.ndarray:
        arr = np.atleast_1d(path_loss(np.asarray(self.d_g), self.epsilon))
        arr.setflags(write=False)
        return arr


# ---- config document parsing ------------------------------------------------

_FIELDS = dict.fromkeys(f.name for f in fields(SystemConfig))  # the field names in order, with fast lookups


def _document_fields(text: str) -> dict[str, str]:
    """The field texts of a flat ``key = value`` document, by key; a ConfigParseError if it is malformed.

    Syntax: one assignment per line, ``#`` comments, an optional ``[config]``
    section header, and comma-separated lists for rho / d_h / d_g. Keys are
    the SystemConfig field names; unknown keys and keys set twice, in one
    section or across sections, are rejected. Every section, [DEFAULT] too,
    is read as written (no header is "[]").
    """
    parser = configparser.ConfigParser(inline_comment_prefixes=("#",), default_section="")
    parser.optionxform = str
    if not text.lstrip().startswith("["):
        text = "[config]\n" + text
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigParseError(f"malformed config document: {exc}") from exc

    data: dict = {}
    for section in parser.sections():
        for key, raw in parser.items(section):
            if key not in _FIELDS:
                raise ConfigParseError(f"unknown config key: {key!r}")
            if key in data:
                raise ConfigParseError(f"malformed config document: option {key!r} is set again in section {section!r}")
            data[key] = raw
    return data


def _file_fields(path) -> dict[str, str]:
    """_document_fields of a UTF-8 file; other bytes are a ConfigParseError, a path that cannot be opened an OSError."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return _document_fields(fh.read())
        except UnicodeDecodeError as exc:
            raise ConfigParseError(f"malformed config document: not UTF-8 text: {exc}") from None


def load_config(text: str) -> SystemConfig:
    """The SystemConfig of a flat ``key = value`` document (see _document_fields); absent keys take the defaults."""
    return SystemConfig(**_document_fields(text))


# The cached properties of a config, with the fields each is computed from.
_HANDED_ON = (("rho_effective", {"M", "rho", "ris_mode"}), ("zeta_p", {"d_p", "epsilon"}),
              ("zeta_f", {"d_f", "epsilon"}), ("zeta_h", {"M", "d_h", "epsilon"}), ("zeta_g", {"M", "d_g", "epsilon"}))


def replace_config(cfg: SystemConfig, **changes) -> SystemConfig:
    """Functional update that revalidates and rebroadcasts per-element fields.

    The new config takes cfg's coerced field values, then coerces and checks the
    fields in `changes` with SystemConfig's own code, each check that reads one
    of them, in the same order and with the same messages; a new M rebroadcasts
    a uniform rho / d_h / d_g, whose values passed their checks in cfg. So it
    equals SystemConfig(**{cfg's fields, **changes}), or raises its error. It
    takes over each of cfg's cached properties (_HANDED_ON) whose inputs are
    not in `changes`, and nothing else: models kept on cfg are built anew.
    """
    if not _FIELDS.keys() >= changes.keys():
        SystemConfig(**changes)  # raises the TypeError of an unknown keyword argument
    new = object.__new__(SystemConfig)
    values, parent = new.__dict__, cfg.__dict__
    values.update({name: parent[name] for name in _FIELDS})
    values.update(changes)
    new._coerce(changes)
    new._check(changes)
    for name, inputs in _HANDED_ON:
        if inputs.isdisjoint(changes):
            values[name] = getattr(cfg, name)
    return new
