"""Scenario config files: flat `key = value` text, diff-friendly, replayable.

Keys are exactly the Scenario field names in lower_snake_case, and each
value is parsed by its field's type, so adding a field to `Scenario` is
all it takes to make it configurable.  Compound fields use dotted names
(`party_secrets.alice = 3`); the interval field takes a range literal
(`secret_domain = 1..100`).  Unknown keys are an error, with the line
number and key in the message.
"""

from __future__ import annotations

import enum
import functools
from typing import Optional, get_type_hints

from .engine import Scenario
from .errors import ConfigError

_PARTY_PREFIX = "party_secrets."


def _parse_bool(raw: str) -> bool:
    lowered = raw.lower()
    if lowered in ("true", "yes", "on", "1"):
        return True
    if lowered in ("false", "no", "off", "0"):
        return False
    raise ConfigError(f"expected a boolean, got {raw!r}")


def _parse_interval(raw: str) -> tuple[int, int]:
    text = raw.replace("[", "").replace("]", "")
    if ".." in text:
        parts = text.split("..")
    else:
        parts = text.replace(",", " ").split()
    if len(parts) != 2:
        raise ConfigError(f"expected an interval like '1..100', got {raw!r}")
    try:
        return int(parts[0]), int(parts[1])
    except ValueError:
        raise ConfigError(f"interval bounds must be integers, got {raw!r}") from None


def _parse_enum(enum_cls: type[enum.Enum], raw: str) -> enum.Enum:
    try:
        return enum_cls(raw.lower())
    except ValueError:
        valid = ", ".join(member.value for member in enum_cls)
        raise ConfigError(f"invalid value {raw!r}; expected one of: {valid}") from None


_PARSERS = {
    int: functools.partial(int, base=0),
    float: float,
    bool: _parse_bool,
    tuple[int, int]: _parse_interval,
}


def _parser_for(kind):
    if isinstance(kind, type) and issubclass(kind, enum.Enum):
        return functools.partial(_parse_enum, kind)
    return _PARSERS[kind]


# One parser per scalar Scenario field, picked by the field's type;
# `party_secrets` is the one dotted field and is handled in `_parse_pair`.
_FIELD_PARSERS = {
    name: _parser_for(kind)
    for name, kind in get_type_hints(Scenario).items()
    if name != "party_secrets"
}


def _parse_pair(key: str, value: str):
    """The parsed value of one stripped `key = value` pair."""
    if not key:
        raise ConfigError("empty key")
    if key.startswith(_PARTY_PREFIX):
        if key == _PARTY_PREFIX:
            raise ConfigError("party name missing")
        try:
            return int(value, 0)
        except ValueError:
            raise ConfigError(f"party secret must be an integer, got {value!r}") from None
    parser = _FIELD_PARSERS.get(key)
    if parser is None:
        raise ConfigError("unknown scenario key")
    try:
        return parser(value)
    except ValueError as exc:
        raise ConfigError(f"could not parse value {value!r}: {exc}") from None


def _assign(raw_fields: dict, key: str, value: str, line: Optional[int] = None) -> None:
    """Parse one pair into `raw_fields`; an error names its key and, from a file, its line."""
    key, value = key.strip(), value.strip()
    try:
        parsed = _parse_pair(key, value)
    except ConfigError as exc:
        message = f"{exc} (key: {key!r})" if key else str(exc)
        raise ConfigError(message if line is None else f"line {line}: {message}") from None
    if key.startswith(_PARTY_PREFIX):
        raw_fields.setdefault("party_secrets", {})[key[len(_PARTY_PREFIX):]] = parsed
    else:
        raw_fields[key] = parsed


def parse_config_text(text: str) -> dict:
    """Parse config text into a raw field mapping (no validation yet)."""
    raw_fields: dict = {}
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        stripped = raw_line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw_line!r}")
        key, value = stripped.split("=", 1)
        _assign(raw_fields, key, value, lineno)
    return raw_fields


def apply_overrides(raw_fields: dict, overrides: list[str]) -> dict:
    """Apply `--set key=value` pairs on top of parsed config fields."""
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"override must look like key=value, got {item!r}")
    updated = dict(raw_fields)
    updated["party_secrets"] = dict(raw_fields.get("party_secrets", {}))
    for item in overrides:
        key, value = item.split("=", 1)
        _assign(updated, key, value)
    return updated


def scenario_from_fields(raw_fields: dict) -> Scenario:
    if "protocol" not in raw_fields:
        raise ConfigError("missing required key (key: 'protocol')")
    scenario = Scenario(**raw_fields)
    scenario.validate()
    return scenario


def load_scenario(path, overrides: list[str] | None = None) -> Scenario:
    """Read a config file, apply overrides, validate, return the Scenario."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise ConfigError(f"{path}: not UTF-8 text (byte {exc.start}: {exc.reason})") from None
    raw_fields = parse_config_text(text)
    if overrides:
        raw_fields = apply_overrides(raw_fields, overrides)
    return scenario_from_fields(raw_fields)


def scenario_to_text(scenario: Scenario) -> str:
    """Render a Scenario back to config text (round-trips via parse)."""
    lines = []
    for key, value in scenario.as_mapping().items():
        if isinstance(value, dict):
            for party, secret in sorted(value.items()):
                lines.append(f"{_PARTY_PREFIX}{party} = {secret}")
        elif isinstance(value, list):
            lines.append(f"{key} = {value[0]}..{value[1]}")
        elif isinstance(value, bool):
            lines.append(f"{key} = {'true' if value else 'false'}")
        else:
            lines.append(f"{key} = {value}")
    return "\n".join(lines) + "\n"
