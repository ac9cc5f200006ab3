"""Plain-text key=value run configuration.

One `key = value` pair per line, ``#`` starts a comment.  Parsing validates
every field and reports all problems at once rather than stopping at the
first, so a config file can be fixed in one pass.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .basis import TWO_PI, Potential
from .errors import ConfigError
from .operators import MODELS


def parse_range(text: str) -> np.ndarray:
    """Parse '0.01:100:log15' / '1:5:lin5' / a bare float into a value grid."""
    text = text.strip()
    parts = text.split(":")
    if len(parts) == 1:
        return np.array([float(text)])
    if len(parts) != 3:
        raise ValueError(f"range {text!r} is not 'start:stop:logN' or 'start:stop:linN'")
    start, stop = float(parts[0]), float(parts[1])
    kind, count = parts[2][:3], parts[2][3:]
    n = int(count)
    if n < 1:
        raise ValueError(f"range {text!r} must request at least one point")
    if kind == "log":
        if start <= 0 or stop <= 0:
            raise ValueError(f"log range {text!r} needs positive endpoints")
        return np.geomspace(start, stop, n)
    if kind == "lin":
        return np.linspace(start, stop, n)
    raise ValueError(f"range {text!r} has unknown spacing {parts[2]!r}")


@dataclass
class RunConfig:
    """Validated run parameters shared by every CLI subcommand."""

    model: str = "langevin"
    d: int = 1
    beta: float = 1.0
    mass: float = 1.0
    gammas: np.ndarray = field(default_factory=lambda: np.array([1.0]))
    epsilons: np.ndarray | None = None
    potential_text: str = "0"
    torus_length: float = TWO_PI
    n_q: int = 8
    n_p: int = 8
    n_xi: int = 8
    tol_identity: float = 1e-10
    conv_tol: float = 0.01
    rank_tol: float = 1e-12
    seed: int = 0
    c2: float | None = None
    out: str | None = None

    def potential(self) -> Potential:
        return Potential.from_string(self.potential_text, d=self.d,
                                     torus_length=self.torus_length)


def _parse_int(text):
    value = int(text)
    if str(value) != text.strip():
        raise ValueError(f"{text!r} is not an integer")
    return value


def _positive(v) -> bool:
    """Every value finite and > 0 (NaN and inf fail)."""
    return bool(np.all(np.isfinite(v) & (np.asarray(v) > 0)))


# key -> (attribute, converter, validator description, validator)
_SCHEMA = {
    "model": ("model", str.strip, f"one of {', '.join(MODELS)}",
              lambda v: v in MODELS),
    "d": ("d", _parse_int, "a positive integer", lambda v: v >= 1),
    "beta": ("beta", float, "positive and finite", _positive),
    "mass": ("mass", float, "positive and finite", _positive),
    "gamma": ("gammas", parse_range, "positive and finite", _positive),
    "epsilon": ("epsilons", parse_range, "positive and finite", _positive),
    "potential": ("potential_text", str.strip, "a coefficient list", None),
    "torus_length": ("torus_length", float, "positive and finite", _positive),
    "n_q": ("n_q", _parse_int, "a positive integer", lambda v: v >= 1),
    "n_p": ("n_p", _parse_int, "a positive integer", lambda v: v >= 1),
    "n_xi": ("n_xi", _parse_int, "a positive integer", lambda v: v >= 1),
    "tol_identity": ("tol_identity", float, "positive and finite", _positive),
    "conv_tol": ("conv_tol", float, "positive and finite", _positive),
    "rank_tol": ("rank_tol", float, "positive and finite", _positive),
    "seed": ("seed", _parse_int, "a nonnegative integer", lambda v: v >= 0),
    "c2": ("c2", float, "in [0, 1]", lambda v: 0.0 <= v <= 1.0),
    "out": ("out", str.strip, "a path", bool),
}


def _set(config: RunConfig, key: str, text: str) -> str | None:
    """Parse ``text`` as the value of ``key`` into ``config``; the problem, if any."""
    if key not in _SCHEMA:
        return f"unknown key {key!r}"
    attr, convert, describe, validate = _SCHEMA[key]
    try:
        parsed = convert(text)
    except ValueError:
        return f"{key} = {text!r} is malformed"
    if validate is not None and not validate(parsed):
        return f"{key} must be {describe}, got {text!r}"
    setattr(config, attr, parsed)
    return None


def parse_config_text(text: str, overrides=()) -> RunConfig:
    """Parse and fully validate config text, then ``(flag, key, value)``
    overrides on top, accumulating every problem."""
    config = RunConfig()
    problems = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        if not sep:
            problems.append(f"line {lineno}: {line!r} is not a key=value pair")
            continue
        problem = _set(config, key.strip(), value.strip())
        if problem is not None:
            problems.append(f"line {lineno}: {problem}")
    for flag, key, value in overrides:
        problem = _set(config, key, value)
        if problem is not None:
            problems.append(f"{flag}: {problem}")
    # cross-field checks run on whatever parsed, so one pass reports everything
    if config.model == "adaptive_langevin" and config.epsilons is None:
        problems.append("epsilon is required for the adaptive_langevin model")
    if config.model in ("langevin", "boltzmann_rhmc") and config.epsilons is not None:
        problems.append(f"epsilon is not accepted for the {config.model} model")
    try:
        config.potential()
    except ConfigError as exc:
        problems.extend(exc.problems)
    if problems:
        raise ConfigError(problems)
    return config


def parse_config(path: str, overrides=()) -> RunConfig:
    """Read and validate a key=value config file, then ``overrides`` on top."""
    with open(path, "r", encoding="utf-8") as handle:
        text = handle.read()
    return parse_config_text(text, overrides)
