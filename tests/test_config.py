"""Config file parsing, overrides, and error context."""

import dataclasses
import re
from pathlib import Path

import pytest

from decoysim import AdversaryKind, ConfigError, Protocol, RampModel, Scenario
from decoysim.config import (
    apply_overrides,
    load_scenario,
    parse_config_text,
    scenario_from_fields,
    scenario_to_text,
)

GOOD = """
# one decoy run
protocol = decoy_force
seed = 42
dt = 0.5
max_ticks = 200
secret_domain = 1..100
party_secrets.alice = 3
party_secrets.bob = 5
ramp_model = random_ramp
hold_ticks = 4
epsilon_stab = 0.0
noise_sigma = 0.0
adversary = none
defense_enabled = true
"""


def test_full_config_parses():
    scenario = scenario_from_fields(parse_config_text(GOOD))
    assert scenario.protocol is Protocol.DECOY_FORCE
    assert scenario.secret_domain == (1, 100)
    assert scenario.party_secrets == {"alice": 3, "bob": 5}
    assert scenario.dt == 0.5
    assert scenario.defense_enabled is True


def test_round_trip_through_text():
    scenario = scenario_from_fields(parse_config_text(GOOD))
    again = scenario_from_fields(parse_config_text(scenario_to_text(scenario)))
    assert again == scenario


def test_unknown_key_reports_line_and_key():
    text = "protocol = vessels\nbogus_key = 3\n"
    with pytest.raises(ConfigError) as excinfo:
        parse_config_text(text)
    message = str(excinfo.value)
    assert "bogus_key" in message
    assert "line 2" in message


def test_bad_enum_lists_alternatives():
    with pytest.raises(ConfigError, match="decoy_force"):
        parse_config_text("protocol = telepathy\n")


def test_bad_interval():
    with pytest.raises(ConfigError, match="interval"):
        parse_config_text("secret_domain = 1..2..3\n")


def test_missing_equals_sign():
    with pytest.raises(ConfigError, match="key = value"):
        parse_config_text("protocol vessels\n")


def test_missing_protocol_is_config_error():
    with pytest.raises(ConfigError, match="protocol"):
        scenario_from_fields(parse_config_text("seed = 1\n"))


def test_overrides_replace_fields():
    fields = parse_config_text(GOOD)
    fields = apply_overrides(fields, ["seed=99", "party_secrets.alice=7"])
    scenario = scenario_from_fields(fields)
    assert scenario.seed == 99
    assert scenario.party_secrets["alice"] == 7
    assert scenario.party_secrets["bob"] == 5


def test_override_must_have_equals():
    with pytest.raises(ConfigError, match="key=value"):
        apply_overrides({}, ["seed99"])


def test_interval_alternate_spellings():
    assert parse_config_text("secret_domain = [1, 9]\n")["secret_domain"] == (1, 9)
    assert parse_config_text("secret_domain = 1..9\n")["secret_domain"] == (1, 9)


def test_ramp_model_tokens():
    for token, member in [
        ("synchronous", RampModel.SYNCHRONOUS),
        ("random_ramp", RampModel.RANDOM_RAMP),
        ("deterministic_rate", RampModel.DETERMINISTIC_RATE),
    ]:
        assert parse_config_text(f"ramp_model = {token}\n")["ramp_model"] is member


def test_load_scenario_from_file(tmp_config):
    path = tmp_config(GOOD)
    scenario = load_scenario(path, overrides=["noise_sigma=0.25"])
    assert scenario.noise_sigma == 0.25


# One valid non-default value per Scenario field.  A field added to
# Scenario without an entry here fails the schema test under its own name.
BASE = Scenario(protocol=Protocol.DECOY_FORCE, party_secrets={"alice": 3, "bob": 5})
NON_DEFAULT = {
    "protocol": Protocol.DECOY_WAVE,
    "seed": 12345,
    "dt": 0.25,
    "max_ticks": 900,
    "secret_domain": (2, 60),
    "party_secrets": {"alice": 7, "bob": 9},
    "ramp_model": RampModel.SYNCHRONOUS,
    "hold_ticks": 5,
    "epsilon_stab": 0.125,
    "noise_sigma": 0.5,
    "adversary": AdversaryKind.PASSIVE,
    "defense_enabled": False,
}


@pytest.mark.parametrize("field", dataclasses.fields(Scenario), ids=lambda f: f.name)
def test_every_field_round_trips_and_reports(field):
    value = NON_DEFAULT[field.name]
    assert value != getattr(BASE, field.name)
    scenario = dataclasses.replace(BASE, **{field.name: value})
    again = scenario_from_fields(parse_config_text(scenario_to_text(scenario)))
    assert getattr(again, field.name) == value
    assert again == scenario
    assert scenario.as_mapping()[field.name] != BASE.as_mapping()[field.name]


def test_parse_error_text_in_a_file_and_as_an_override():
    message = (
        "invalid value 'telepathy'; expected one of: decoy_force, decoy_wave, "
        "elevator, race, race_bitstring, vessels (key: 'protocol')"
    )
    with pytest.raises(ConfigError) as from_file:
        parse_config_text("seed = 1\nprotocol = telepathy\n")
    with pytest.raises(ConfigError) as from_override:
        apply_overrides({}, ["protocol=telepathy"])
    assert str(from_file.value) == "line 2: " + message
    assert str(from_override.value) == message


def test_readme_field_table_lists_every_config_key():
    readme = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
    table = readme.split("### Scenario fields", 1)[1].split("\n## ", 1)[0]
    documented = set()
    for row in re.findall(r"^\| (`[^|]*`) \|", table, flags=re.MULTILINE):
        names = re.findall(r"`([^`]+)`", row)
        documented.update(
            names[0].rsplit(".", 1)[0] + name if name.startswith(".") else name
            for name in names
        )
    rendered = scenario_to_text(BASE)
    accepted = {line.split(" = ", 1)[0] for line in rendered.splitlines()}
    assert scenario_from_fields(parse_config_text(rendered)) == BASE
    assert documented == accepted
