"""The `kind[:key=value,...]` spec grammar shared by configs and the CLI.

A spec names a kind and, after a colon, comma-separated `key=value`
arguments.  Each grammar below maps every kind to its allowed keys, each
with a converter and a default; REQUIRED marks keys without a default.  A
spec whose kind takes a `path` key may also give the bare path after the
colon (`file:<path>`).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Iterable, Mapping, Sequence


class ConfigError(ValueError):
    """A config value or spec that cannot be used; names the offending key."""


REQUIRED = object()

SCENARIOS = {
    "collinear": {"q": (int, REQUIRED)},
    "diagonal": {"n": (int, REQUIRED)},
    "cube": {"n": (int, REQUIRED)},
    "file": {"path": (str, REQUIRED), "n": (int, None)},
    "planted": {"n": (int, 8)},
    "dms": {**{f"p{i:03b}": (Fraction, Fraction(0)) for i in range(8)}, "n": (int, 8)},
}
ORACLES = {
    "counting": {},
    "toy": {"L": (int, 12), "T": (int, 200)},
}
GRAPHS = {
    "pipeline": {"delta": (Fraction, Fraction(1, 2)), "c": (int, 4)},
    "binning": {},
    "random": {"epsilon": (Fraction, Fraction(1, 4)), "c": (int, 4)},
}
FAMILIES = {
    "exhaustive": {"min_size": (int, 1), "max_size": (int, None)},
    "all-of-size": {"size": (int, REQUIRED)},
    "sampled": {"size": (int, REQUIRED), "count": (int, 100), "seed": (int, 1)},
}
CHECKS = {
    "extractor": {"epsilon": (Fraction, Fraction(1, 4))},
    "richness": {"k": (int, 2), "delta": (Fraction, Fraction(1, 2))},
}


def key_values(items: Iterable[str], where: str) -> dict[str, str]:
    """`key=value` items as a dict of stripped strings; later items win."""
    out = {}
    for item in items:
        key, sep, value = item.partition("=")
        if not sep:
            raise ConfigError(f"{where}: expected key=value, got {item!r}")
        out[key.strip()] = value.strip()
    return out


def spec_args(grammar: Mapping[str, dict], kind: str, raw: Mapping, where: str) -> dict:
    """Convert raw arguments of one kind, filling defaults; `where` is the
    phrase that begins each error message, such as `spec '<text>'`."""
    keys = grammar.get(kind)
    if keys is None:
        raise ConfigError(f"{where}: unknown kind {kind!r} "
                          f"(expected one of: {', '.join(grammar)})")
    unknown = sorted(set(raw) - set(keys))
    if unknown:
        raise ConfigError(f"{where}: unknown key {unknown[0]!r} "
                          f"(allowed: {', '.join(keys) or 'none'})")
    out = {}
    for key, (convert, default) in keys.items():
        if key not in raw:
            if default is REQUIRED:
                raise ConfigError(f"{where}: missing key {key!r}")
            out[key] = default
            continue
        try:
            out[key] = convert(raw[key])
        except (ValueError, TypeError, ZeroDivisionError):
            raise ConfigError(f"{where}: cannot parse {key}={raw[key]!r}") from None
    return out


def comma_fields(text: str, converters: Sequence[Callable], where: str) -> list:
    """The comma-separated fields of `text`, one per converter and each
    converted by it; `where` is the phrase that begins each error message."""
    parts = text.split(",")
    if len(parts) != len(converters):
        raise ConfigError(f"{where}: expected {len(converters)} comma-separated "
                          f"field(s), got {len(parts)}")
    out = []
    for convert, part in zip(converters, parts):
        try:
            out.append(convert(part))
        except (ValueError, ZeroDivisionError):
            raise ConfigError(f"{where}: bad field {part!r}") from None
    return out


def parse_spec(spec: str, grammar: Mapping[str, dict]) -> tuple[str, dict]:
    """Split `kind[:key=value,...]` and convert its arguments by the grammar."""
    kind, _, rest = spec.partition(":")
    if rest and "=" not in rest and "path" in grammar.get(kind, {}):
        raw = {"path": rest}
    else:
        raw = key_values(rest.split(",") if rest else [], f"spec {spec!r}")
    return kind, spec_args(grammar, kind, raw, f"spec {spec!r}")
