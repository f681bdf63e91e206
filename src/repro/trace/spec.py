"""Trace spec grammar: ``"name:key=value,key=value"``.

One string names a trace source and parameterises it — the same move
the registries made for schedulers and workloads, except a trace needs
knobs (seed, path, window) so the name carries an option list::

    borg-synth:seed=7,jobs=500
    borg-csv:path=trace.csv,window=1h,sample=0.05

Grammar (strict, so a typo dies at :class:`~repro.api.Scenario`
construction, not mid-replay):

* *name* — lowercase ``[a-z0-9]`` words joined by single dashes;
* *options* — ``key=value`` pairs joined by commas after one colon;
  keys are ``[a-z][a-z0-9_]*``, values any non-empty text without
  commas (so paths work; a path containing a comma cannot be spelled
  in a spec — read it with ``Trace(iter_borg_csv(path))`` instead);
* duplicate keys are rejected.

Values stay **raw strings** in the parsed :class:`TraceSpec`; adapters
coerce them through :class:`SpecOptions`, which also rejects unknown
keys with the accepted set.  ``parse_trace_spec`` and
``format_trace_spec`` round-trip exactly (options are kept sorted by
key, making the formatted form canonical).
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Dict, Iterable, Optional, Tuple, Union

from ..errors import TraceError

_NAME_RE = re.compile(r"^[a-z0-9]+(-[a-z0-9]+)*$")
_KEY_RE = re.compile(r"^[a-z][a-z0-9_]*$")
#: Duration literal: a number with an optional s/m/h/d suffix.
_DURATION_RE = re.compile(
    r"^(?P<value>\d+(\.\d+)?|\.\d+)(?P<unit>[smhd]?)$"
)
_DURATION_SECONDS = {"": 1.0, "s": 1.0, "m": 60.0, "h": 3600.0,
                     "d": 86_400.0}


@dataclass(frozen=True)
class TraceSpec:
    """One parsed trace spec: adapter name plus raw string options."""

    name: str
    #: Sorted ``(key, raw value)`` pairs — hashable and canonical.
    options: Tuple[Tuple[str, str], ...] = ()

    def reader(self, *consumed: str) -> "SpecOptions":
        """A typed option reader with *consumed* keys pre-claimed.

        The resolver claims ``seed`` before calling the factory, so
        factories start with ``spec.reader("seed")``.
        """
        return SpecOptions(self, consumed=consumed)

    def __str__(self) -> str:
        return format_trace_spec(self)


def parse_trace_spec(text: str) -> TraceSpec:
    """Parse ``"name:key=value,..."`` into a :class:`TraceSpec`."""
    if not isinstance(text, str) or not text.strip():
        raise TraceError(f"empty trace spec: {text!r}")
    text = text.strip()
    name, colon, option_text = text.partition(":")
    if not _NAME_RE.match(name):
        raise TraceError(
            f"bad trace spec {text!r}: adapter name {name!r} must be "
            "lowercase words joined by dashes (e.g. 'borg-synth')"
        )
    if colon and not option_text.strip():
        raise TraceError(
            f"bad trace spec {text!r}: ':' must be followed by "
            "key=value options"
        )
    options: Dict[str, str] = {}
    if colon:
        for part in option_text.split(","):
            part = part.strip()
            key, equals, value = part.partition("=")
            key = key.strip()
            value = value.strip()
            if not equals or not _KEY_RE.match(key) or not value:
                raise TraceError(
                    f"bad trace spec {text!r}: option {part!r} is not "
                    "key=value (keys are lowercase identifiers, "
                    "values non-empty)"
                )
            if key in options:
                raise TraceError(
                    f"bad trace spec {text!r}: duplicate option "
                    f"{key!r}"
                )
            options[key] = value
    return TraceSpec(name=name, options=tuple(sorted(options.items())))


def format_trace_spec(spec: TraceSpec) -> str:
    """The canonical string form; ``parse_trace_spec`` round-trips it."""
    if not spec.options:
        return spec.name
    options = ",".join(f"{key}={value}" for key, value in spec.options)
    return f"{spec.name}:{options}"


def make_trace_spec(
    name: str, options: Optional[Iterable[Tuple[str, object]]] = None
) -> str:
    """Build a canonical spec string from *name* and option pairs.

    The CLI uses this to fold its ``--trace-seed``/``--jobs``
    shorthands into their ``borg-synth:...`` equivalent; values are
    stringified with ``str`` (which round-trips ints exactly).
    """
    pairs = tuple(
        sorted((key, str(value)) for key, value in (options or ()))
    )
    return format_trace_spec(TraceSpec(name=name, options=pairs))


def parse_duration(text: Union[str, float, int]) -> float:
    """Seconds of a duration literal: ``90``, ``"90s"``, ``"1.5h"``.

    Suffixes: ``s`` seconds (default), ``m`` minutes, ``h`` hours,
    ``d`` days.
    """
    if isinstance(text, (int, float)) and not isinstance(text, bool):
        return float(text)
    match = _DURATION_RE.match(str(text).strip())
    if match is None:
        raise TraceError(
            f"bad duration {text!r}: expected a number with an "
            "optional s/m/h/d suffix (e.g. '90s', '1h')"
        )
    return float(match.group("value")) * _DURATION_SECONDS[
        match.group("unit")
    ]


class SpecOptions:
    """Typed access to a spec's raw options, with leftover detection.

    Adapters read each option through a typed getter (claiming it),
    then call :meth:`finish`; an option nobody claimed is a typo and
    dies with the accepted key set.  Every coercion error carries the
    spec and the offending option.
    """

    def __init__(
        self, spec: TraceSpec, consumed: Iterable[str] = ()
    ) -> None:
        self._spec = spec
        self._raw = dict(spec.options)
        self._claimed = set(consumed)

    # -- typed getters ------------------------------------------------------

    def string(self, key: str, default: Optional[str] = None):
        self._claimed.add(key)
        return self._raw.get(key, default)

    def path(self, key: str = "path") -> str:
        value = self.string(key)
        if value is None:
            raise self._error(key, "is required (a file path)")
        return value

    def integer(
        self,
        key: str,
        default: Optional[int] = None,
        minimum: Optional[int] = None,
    ) -> Optional[int]:
        raw = self.string(key)
        if raw is None:
            return default
        try:
            value = int(raw)
        except ValueError:
            raise self._error(key, f"must be an integer, got {raw!r}")
        if minimum is not None and value < minimum:
            raise self._error(key, f"must be >= {minimum}, got {value}")
        return value

    def number(
        self, key: str, default: Optional[float] = None
    ) -> Optional[float]:
        raw = self.string(key)
        if raw is None:
            return default
        try:
            value = float(raw)
        except ValueError:
            raise self._error(key, f"must be a number, got {raw!r}")
        if not math.isfinite(value):
            raise self._error(key, f"must be finite, got {raw!r}")
        return value

    def fraction(
        self, key: str, default: Optional[float] = None
    ) -> Optional[float]:
        value = self.number(key, default)
        if value is not None and not 0.0 <= value <= 1.0:
            raise self._error(
                key, f"must be a fraction in [0, 1], got {value:g}"
            )
        return value

    def duration(
        self, key: str, default: Optional[float] = None
    ) -> Optional[float]:
        raw = self.string(key)
        if raw is None:
            return default
        try:
            return parse_duration(raw)
        except TraceError as exc:
            raise self._error(key, str(exc)) from None

    def flag(self, key: str, default: bool = False) -> bool:
        raw = self.string(key)
        if raw is None:
            return default
        lowered = raw.lower()
        if lowered in ("true", "yes", "1", "on"):
            return True
        if lowered in ("false", "no", "0", "off"):
            return False
        raise self._error(key, f"must be a boolean, got {raw!r}")

    # -- leftover detection -------------------------------------------------

    def finish(self) -> None:
        """Reject unclaimed options, naming the accepted key set."""
        unknown = sorted(set(self._raw) - self._claimed)
        if unknown:
            accepted = ", ".join(sorted(self._claimed)) or "<none>"
            raise TraceError(
                f"trace spec {format_trace_spec(self._spec)!r}: "
                f"unknown option(s) {', '.join(unknown)}; "
                f"accepted: {accepted}"
            )

    def _error(self, key: str, detail: str) -> TraceError:
        spec = format_trace_spec(self._spec)
        return TraceError(
            f"trace spec {spec!r}: option {key!r} {detail}"
        )
