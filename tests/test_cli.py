"""CLI contract: exit codes, record format, sweeps, analyses, replay checks."""

import contextlib
import dataclasses
import hashlib
import io
import json
import logging
import os
import shlex
import subprocess
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pathlib import Path

from decoysim import (
    EMPTY_TRANSCRIPT_DIGEST,
    Protocol,
    Scenario,
    adversary,
    cli,
    decoy,
    engine,
    load_scenario,
)
from decoysim.adversary import AttackOutcome
from decoysim.decoy import CELL_BUDGET, DecoyOutcome
from decoysim.engine import OK, TIMEOUT
from decoysim.runner import RunOutcome, run_comparisons, run_passes, run_scenario

CONFIGS = Path(__file__).parent.parent / "configs"

VESSELS_CFG = """
protocol = vessels
seed = 7
max_ticks = 100
secret_domain = 1..50
party_secrets.alice = 5
party_secrets.bob = 3
hold_ticks = 10
"""

DECOY_CFG = """
protocol = decoy_force
seed = 42
max_ticks = 120
secret_domain = 1..100
party_secrets.alice = 3
party_secrets.bob = 5
hold_ticks = 3
"""

SYNC_CFG = """
protocol = decoy_force
seed = 1000
max_ticks = 120
secret_domain = 1..8
party_secrets.alice = 3
party_secrets.bob = 5
ramp_model = synchronous
defense_enabled = false
hold_ticks = 3
"""

CONTROL_CFG = SYNC_CFG.replace("synchronous", "deterministic_rate").replace(
    "defense_enabled = false", "defense_enabled = true"
)


def _one_run_per_seed(scenario, count):
    """What a sweep runs, as one run_scenario call per seed."""
    for index in range(count):
        yield run_scenario(dataclasses.replace(scenario, seed=scenario.seed + index))


VESSEL_ABORT_CFG = VESSELS_CFG.replace("hold_ticks = 10", "hold_ticks = 300").replace(
    "max_ticks = 100", "max_ticks = 400"
).replace("party_secrets.alice = 5", "party_secrets.alice = 50").replace(
    "party_secrets.bob = 3", "party_secrets.bob = 1"
)

# name: (config path or text, sweep arguments, the distinct flag lists of its runs)
SWEEP_CASES = {
    "honest": (str(CONFIGS / "decoy.cfg"), ["--runs", "60"], {()}),
    "noisy": (
        str(CONFIGS / "noisy.cfg"), ["--runs", "30", "--vary", "noise_sigma=0,0.05,0.12"],
        {(), ("ProtocolTimeout",)},
    ),
    "jammer": (
        str(CONFIGS / "decoy.cfg"), ["--runs", "40", "--set", "adversary=jammer"],
        {(), ("disrupted",)},
    ),
    "silent impersonator, defended": (
        str(CONFIGS / "decoy.cfg"), ["--runs", "20", "--set", "adversary=impersonator"],
        {("disrupted", "timeout")},
    ),
    "silent impersonator, undefended": (
        str(CONFIGS / "decoy.cfg"),
        ["--runs", "20", "--set", "adversary=impersonator", "--set", "defense_enabled=false"],
        {("disrupted", "adversary-learned-secret", "timeout")},
    ),
    "one run per pass": (
        str(CONFIGS / "decoy.cfg"), ["--runs", "4", "--set", "max_ticks=40000"], {()}
    ),
    "race": (VESSELS_CFG.replace("vessels", "race"), ["--runs", "5"], {("leak:max(a,b)",)}),
    "vessels abort": (VESSEL_ABORT_CFG, ["--runs", "5"], {("VesselEmpty",)}),
}


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestRun:
    def test_vessels_run_reports_ordering(self, tmp_config, capsys):
        path = tmp_config(VESSELS_CFG)
        code, out, _ = run_cli(capsys, "run", "--config", path)
        assert code == 0
        assert "a_greater" in out
        assert "difference leaked: b-a = -2" in out

    def test_records_format_is_json_lines(self, tmp_config, capsys):
        path = tmp_config(VESSELS_CFG)
        code, out, _ = run_cli(capsys, "run", "--config", path, "--format", "records")
        assert code == 0
        records = [json.loads(line) for line in out.strip().splitlines()]
        assert records[0]["record"] == "meta"
        assert records[0]["version"]
        assert records[0]["scenario"]["protocol"] == "vessels"
        run_record = records[1]
        for field in ("run_id", "protocol", "seed", "outcome", "digest", "flags"):
            assert field in run_record
        assert run_record["flags"] == ["leak:b-a"]

    def test_secret_just_below_2_to_the_53_is_recovered(self, capsys):
        top = 2**53 - 1
        code, out, err = run_cli(
            capsys, "run", "--config", str(CONFIGS / "decoy.cfg"),
            "--set", f"secret_domain=1..{top}",
            "--set", f"party_secrets.alice={top}",
            "--set", "party_secrets.bob=5",
        )
        assert (code, err) == (0, "")
        assert f'"recovered": {top}, "sender_secret": {top}, "success": true' in out

    def test_invalid_domain_exits_one_and_names_key(self, tmp_config, capsys):
        path = tmp_config(VESSELS_CFG.replace("1..50", "50..2"))
        code, _, err = run_cli(capsys, "run", "--config", path)
        assert code == 1
        assert "secret_domain" in err

    def test_unknown_key_exits_one_with_line(self, tmp_config, capsys):
        path = tmp_config(VESSELS_CFG + "mystery = 1\n")
        code, _, err = run_cli(capsys, "run", "--config", path)
        assert code == 1
        assert "mystery" in err and "line" in err

    def test_unknown_party_exits_one_and_names_it(self, capsys):
        code, out, err = run_cli(
            capsys, "run", "--config", str(CONFIGS / "decoy.cfg"), "--set", "party_secrets.Alice=7"
        )
        assert (code, out) == (1, "")
        assert err == "decoysim: error: party_secrets.Alice: unknown party (alice or bob)\n"

    def test_missing_config_file(self, capsys):
        code, _, err = run_cli(capsys, "run", "--config", "/nonexistent.cfg")
        assert code == 1

    @pytest.mark.parametrize(
        "overrides",
        [
            ["--set", "dt=0"],
            ["--set", "noise_sigma=inf"],
            ["--set", "noise_sigma=nan"],
            ["--set", "epsilon_stab=inf"],
            ["--set", "protocol=race", "--set", "dt=inf"],
            ["--set", "noise_sigma=1e308"],
            ["--set", "protocol=race", "--set", "dt=1e-320"],
            ["--seed", "-5"],
            ["--seed", str(2**64)],
            ["--set", "max_ticks=100000000000"],
        ],
    )
    def test_non_finite_or_out_of_range_input_exits_one(self, tmp_config, capsys, overrides):
        path = tmp_config(DECOY_CFG)
        code, _, err = run_cli(capsys, "run", "--config", path, *overrides)
        assert code == 1
        assert err.startswith("decoysim: error:")
        assert "Traceback" not in err

    def test_config_error_leaves_out_file_alone(self, tmp_path, capsys):
        report = tmp_path / "report.txt"
        report.write_text("previous report\n")
        code, _, _ = run_cli(
            capsys, "run", "--config", str(tmp_path / "missing.cfg"), "--out", str(report)
        )
        assert code == 1
        assert report.read_text() == "previous report\n"

    @pytest.mark.parametrize(
        "case", ["config is a directory", "config is not UTF-8", "out is a directory"]
    )
    def test_unreadable_file_exits_one_without_a_traceback(self, case, tmp_path, capsys):
        binary = tmp_path / "binary.cfg"
        binary.write_bytes(b"protocol = vessels\n# \xff\xfe\n")
        named, argv = {
            "config is a directory": (tmp_path, ["--config", str(tmp_path)]),
            "config is not UTF-8": (binary, ["--config", str(binary)]),
            "out is a directory": (
                tmp_path, ["--config", str(CONFIGS / "decoy.cfg"), "--out", str(tmp_path)]
            ),
        }[case]
        code, out, err = run_cli(capsys, "run", *argv)
        assert (code, out) == (1, "")
        assert err.startswith("decoysim: error: ") and err.count("\n") == 1
        assert str(named) in err

    def test_same_seed_twice_same_digest(self, tmp_config, capsys):
        path = tmp_config(DECOY_CFG)
        digests = []
        for _ in range(2):
            code, out, _ = run_cli(
                capsys, "run", "--config", path, "--format", "records"
            )
            assert code == 0
            run_record = [json.loads(l) for l in out.strip().splitlines()][1]
            digests.append(run_record["digest"])
        assert digests[0] == digests[1]

    def test_set_overrides_apply(self, tmp_config, capsys):
        path = tmp_config(DECOY_CFG)
        code, out, _ = run_cli(
            capsys,
            "run", "--config", path, "--format", "records",
            "--set", "party_secrets.alice=7",
        )
        assert code == 0
        records = [json.loads(l) for l in out.strip().splitlines()]
        assert records[1]["outcome"]["recovered"] == 7

    def test_seed_flag_overrides_config(self, tmp_config, capsys):
        path = tmp_config(DECOY_CFG)
        _, out_a, _ = run_cli(capsys, "run", "--config", path, "--format", "records")
        _, out_b, _ = run_cli(
            capsys, "run", "--config", path, "--seed", "43", "--format", "records"
        )
        digest = lambda out: [json.loads(l) for l in out.strip().splitlines()][1]["digest"]
        assert digest(out_a) != digest(out_b)

    def test_protocol_failure_exits_two(self, tmp_config, capsys):
        # tick budget too small for the hold window -> timeout
        path = tmp_config(DECOY_CFG.replace("max_ticks = 120", "max_ticks = 5").replace(
            "hold_ticks = 3", "hold_ticks = 4"))
        code, out, _ = run_cli(capsys, "run", "--config", path)
        assert code == 2
        assert "ProtocolTimeout" in out

    def test_impersonator_timeout_exits_two(self, tmp_config, capsys):
        cfg = DECOY_CFG.replace("party_secrets.bob = 5\n", "") + "adversary = impersonator\n"
        path = tmp_config(cfg)
        code, out, _ = run_cli(capsys, "run", "--config", path)
        assert code == 2
        assert "timeout" in out

    def test_vessel_abort_exits_two(self, tmp_config, capsys):
        # drift of -49 per tick drains 10000 units inside a 300-tick window
        path = tmp_config(VESSEL_ABORT_CFG)
        code, out, _ = run_cli(capsys, "run", "--config", path)
        assert code == 2
        assert "VesselEmpty" in out
        code, out, _ = run_cli(capsys, "run", "--config", path, "--format", "records")
        assert code == 2
        record = json.loads(out.strip().splitlines()[1])
        assert record["outcome"] == {"kind": "error", "error": "VesselEmpty"}
        assert record["flags"] == ["VesselEmpty"]
        assert record["digest"] == f"{EMPTY_TRANSCRIPT_DIGEST:016x}"

    def test_out_writes_report_file(self, tmp_config, capsys, tmp_path):
        path = tmp_config(VESSELS_CFG)
        report = tmp_path / "report.txt"
        code, out, _ = run_cli(capsys, "run", "--config", path, "--out", str(report))
        assert code == 0
        assert out == ""
        assert "a_greater" in report.read_text()

    def test_log_env_does_not_break_runs(self, tmp_config, capsys, monkeypatch):
        monkeypatch.setenv("DECOYSIM_LOG", "debug")
        path = tmp_config(VESSELS_CFG)
        code, _, _ = run_cli(capsys, "run", "--config", path)
        assert code == 0

    @pytest.mark.parametrize(
        "value, level",
        [(None, logging.WARNING), ("DEBUG", logging.DEBUG), ("Info", logging.INFO)],
    )
    def test_log_env_names_the_level(self, value, level, tmp_config, capsys, monkeypatch):
        if value is None:
            monkeypatch.delenv("DECOYSIM_LOG", raising=False)
        else:
            monkeypatch.setenv("DECOYSIM_LOG", value)
        levels = []
        monkeypatch.setattr(cli.logging, "basicConfig", lambda **kw: levels.append(kw["level"]))
        code, _, _ = run_cli(capsys, "run", "--config", tmp_config(VESSELS_CFG))
        assert (code, levels) == (0, [level])

    @pytest.mark.parametrize("value", ["basic_format", "verbose", "10", ""])
    def test_log_env_that_names_no_level_is_a_config_error(
        self, value, tmp_config, capsys, monkeypatch
    ):
        # basic_format is an attribute of logging but no level; verbose is no name at all.
        monkeypatch.setenv("DECOYSIM_LOG", value)
        code, out, err = run_cli(capsys, "run", "--config", tmp_config(VESSELS_CFG))
        assert (code, out) == (1, "")
        message = f"DECOYSIM_LOG must name a logging level such as debug, got {value!r}"
        assert err == f"decoysim: error: {message}\n"

    @pytest.mark.parametrize(
        "config, sets, ticks", [("decoy.cfg", [], 49), ("vessels.cfg", ["protocol=elevator"], 3)]
    )
    def test_ticks_line_counts_the_ticks_the_run_spans(self, config, sets, ticks, capsys):
        # The decoy run reads ticks 0-48 and announces once (50 entries); the
        # elevator run's two door events fall on ticks 1 and 2.
        transcript = run_scenario(load_scenario(str(CONFIGS / config), sets)).transcript
        assert ticks == transcript.entries[-1].tick + 1 != len(transcript)
        overrides = [arg for pair in sets for arg in ("--set", pair)]
        code, out, _ = run_cli(capsys, "run", "--config", str(CONFIGS / config), *overrides)
        assert out.splitlines()[-1].startswith(f"ticks: {ticks}  wall_ms: ")
        assert engine.Transcript().tick_count() == 0

    @pytest.mark.parametrize(
        "config, sets",
        [(path.name, []) for path in sorted(CONFIGS.glob("*.cfg"))]
        + [("decoy.cfg", ["adversary=jammer"]), ("decoy.cfg", ["adversary=impersonator"])],
    )
    def test_records_run_digest_is_the_transcripts(self, config, sets, capsys):
        scenario = load_scenario(str(CONFIGS / config), sets)
        expected = f"{engine.replay_digest(run_scenario(scenario).transcript):016x}"
        overrides = [arg for pair in sets for arg in ("--set", pair)]
        _, out, _ = run_cli(
            capsys, "run", "--config", str(CONFIGS / config), *overrides, "--format", "records"
        )
        assert json.loads(out.splitlines()[1])["digest"] == expected


class TestSweep:
    def test_zero_runs_is_a_usage_error(self, tmp_config, capsys):
        path = tmp_config(DECOY_CFG)
        code, _, err = run_cli(capsys, "sweep", "--config", path, "--runs", "0")
        assert code == 1
        assert "runs" in err

    @pytest.mark.parametrize("out", ["a directory", "in a missing directory"])
    def test_out_that_cannot_be_opened_fails_before_any_run(
        self, out, tmp_path, capsys, monkeypatch
    ):
        # A text sweep writes its report only after its first variant, so it
        # would run all 3,000 runs first; nothing is created on the way.
        started = []
        for runs in ("run_comparisons", "run_passes"):
            monkeypatch.setattr(cli, runs, lambda *args: started.append(args) or iter(()))
        path = tmp_path if out == "a directory" else tmp_path / "missing" / "report.txt"
        code, stdout, err = run_cli(
            capsys, "sweep", "--config", str(CONFIGS / "noisy.cfg"), "--runs", "3000",
            "--out", str(path),
        )
        assert (code, stdout, started) == (1, "", [])
        assert err.startswith("decoysim: error: ") and err.count("\n") == 1
        assert str(path) in err
        assert list(tmp_path.iterdir()) == []

    def test_noiseless_sweep_is_perfect(self, tmp_config, capsys):
        path = tmp_config(DECOY_CFG)
        code, out, _ = run_cli(
            capsys, "sweep", "--config", path, "--runs", "1000", "--format", "records"
        )
        assert code == 0
        records = [json.loads(l) for l in out.strip().splitlines()]
        aggregate = [r for r in records if r["record"] == "aggregate"][0]
        assert aggregate["success_rate"] == 1.0
        assert aggregate["mean_abs_error"] == 0.0
        runs = [r for r in records if r["record"] == "run"]
        assert len(runs) == 1000
        assert len({r["digest"] for r in runs}) == 1000  # distinct seeds, distinct runs

    def test_vary_noise_success_never_increases(self, tmp_config, capsys):
        cfg = DECOY_CFG.replace("hold_ticks = 3", "hold_ticks = 20").replace(
            "max_ticks = 120", "max_ticks = 400"
        ) + "epsilon_stab = 0.2\n"
        path = tmp_config(cfg)
        code, out, _ = run_cli(
            capsys,
            "sweep", "--config", path, "--runs", "40",
            "--vary", "noise_sigma=0,0.05,0.5", "--format", "records",
        )
        assert code == 0
        aggregates = [
            json.loads(l) for l in out.strip().splitlines()
            if json.loads(l)["record"] == "aggregate"
        ]
        rates = [a["success_rate"] for a in aggregates]
        assert len(rates) == 3
        assert rates[0] == 1.0
        assert rates[0] >= rates[1] >= rates[2]

    def test_vary_value_wins_over_seed_flag(self, tmp_config, capsys):
        path = tmp_config(DECOY_CFG)
        code, out, _ = run_cli(
            capsys,
            "sweep", "--config", path, "--runs", "2", "--vary", "seed=1,2",
            "--seed", "7", "--format", "records",
        )
        assert code == 0
        records = [json.loads(l) for l in out.strip().splitlines()]
        seeds = [r["seed"] for r in records if r["record"] == "run"]
        labels = [r["vary"] for r in records if r["record"] == "aggregate"]
        assert seeds == [1, 2, 2, 3]
        assert labels == [{"seed": "1"}, {"seed": "2"}]

    def test_bad_vary_spec(self, tmp_config, capsys):
        path = tmp_config(DECOY_CFG)
        code, _, err = run_cli(
            capsys, "sweep", "--config", path, "--runs", "2", "--vary", "oops"
        )
        assert code == 1

    @pytest.mark.parametrize("fmt", ["text", "records"])
    def test_bad_later_vary_value_fails_before_any_output(self, fmt, tmp_path, capsys):
        report = tmp_path / "report.txt"
        report.write_text("previous report\n")
        argv = [
            "sweep", "--config", str(CONFIGS / "decoy.cfg"), "--runs", "3",
            "--vary", "noise_sigma=0,-1", "--format", fmt,
        ]
        assert run_cli(capsys, *argv) == (
            1, "", "decoysim: error: noise_sigma must be >= 0, got -1.0\n"
        )
        code, out, _ = run_cli(capsys, *argv, "--out", str(report))
        assert (code, out) == (1, "")
        assert report.read_text() == "previous report\n"

    def test_runs_before_the_seed_boundary_are_written(self, capsys):
        # Seeds 2^64 - 3 .. 2^64 - 1 run; seed 2^64 is the error.
        code, out, err = run_cli(
            capsys,
            "sweep", "--config", str(CONFIGS / "decoy.cfg"), "--runs", "5",
            "--seed", "18446744073709551613", "--format", "records",
        )
        assert code == 1
        records = [json.loads(line) for line in out.splitlines()]
        assert [r["record"] for r in records] == ["run"] * 3
        assert [r["seed"] for r in records] == [2**64 - 3, 2**64 - 2, 2**64 - 1]
        assert err == (
            "decoysim: error: seed must lie in [0, 2^64), got 18446744073709551616\n"
        )

    @pytest.mark.parametrize("case", sorted(SWEEP_CASES))
    def test_batched_sweep_matches_one_run_per_seed(self, case, tmp_config, capsys):
        # Each run record is what one run_scenario call on its seed gives,
        # assessed as `run` assesses it, with its transcript's replay digest.
        config, argv, flag_sets = SWEEP_CASES[case]
        if "\n" in config:
            config = tmp_config(config)
        argv = ["sweep", "--config", config, *argv, "--format", "records"]
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        args = cli.build_parser().parse_args(argv)
        expected = []
        for key, value in cli._parse_vary(args.vary):
            scenario = cli._load(args, None if key is None else f"{key}={value}")
            assessed = []
            for index, outcome in enumerate(_one_run_per_seed(scenario, args.runs)):
                summary, _, flags, exit_code = cli._assess(outcome)
                digest = f"{engine.replay_digest(outcome.transcript):016x}"
                assessed.append((outcome.status, summary, exit_code, digest))
                expected.append(
                    {
                        "record": "run",
                        "run_id": index,
                        "protocol": scenario.protocol.value,
                        "seed": scenario.seed + index,
                        "outcome": summary,
                        "digest": digest,
                        "flags": flags,
                    }
                )
            errors = [
                abs(summary["recovered"] - summary["sender_secret"])
                for status, summary, _, _ in assessed
                if status == OK and summary["kind"] == "decoy"
            ]
            aggregate = {
                "record": "aggregate",
                "vary": None if key is None else {key: value},
                "runs": args.runs,
                "success_rate": sum(exit_code == 0 for _, _, exit_code, _ in assessed) / args.runs,
                "failures": sum(status != OK for status, _, _, _ in assessed),
                "mean_abs_error": sum(errors) / len(errors) if errors else None,
                "distinct_digests": len({d for status, _, _, d in assessed if status == OK}),
            }
            expected.append(aggregate)
        records = [json.loads(line) for line in out.splitlines()]
        for record in records:  # the percentiles are the aggregate's own arithmetic
            record.pop("p50_abs_error", None), record.pop("p90_abs_error", None)
        assert records == json.loads(json.dumps(expected))
        # The case covers what its name says.
        runs = [r for r in records if r["record"] == "run"]
        assert {tuple(r["flags"]) for r in runs} == flag_sets

    @pytest.mark.parametrize(
        "sets", [[], ["adversary=jammer"], ["adversary=impersonator", "defense_enabled=false"]]
    )
    def test_records_sweep_builds_no_transcript(self, sets, capsys, monkeypatch):
        # A sweep's records come from its kernel passes' outcome tables and
        # digests: no transcript, per-run outcome or per-run scenario.
        built = []
        for cls in (engine.Transcript, DecoyOutcome, AttackOutcome, RunOutcome):
            monkeypatch.setattr(cls, "__init__", lambda self, *args, **kwargs: built.append(self))
        monkeypatch.setattr(dataclasses, "replace", lambda *args, **kwargs: built.append(args))
        overrides = [arg for pair in sets for arg in ("--set", pair)]
        code, out, _ = run_cli(
            capsys, "sweep", "--config", str(CONFIGS / "noisy.cfg"), "--vary",
            "noise_sigma=0,0.05", "--runs", "50", *overrides, "--format", "records",
        )
        assert code == 0 and len(out.splitlines()) == 102
        assert built == []

    @pytest.mark.parametrize(
        "seed, sha256",
        [
            ("5", "53b1bff9c86540eb026b85a46bef2947876456d174383cf8c17b2fe9405baa20"),
            ("977", "fe9f978fb09f5f292c89431a671ed1c210ca2c8a36cebbdbda15768a45d58f02"),
        ],
    )
    def test_records_sweep_stdout_is_pinned(self, seed, sha256, capsys):
        code, out, err = run_cli(
            capsys, "sweep", "--config", str(CONFIGS / "noisy.cfg"), "--vary",
            "noise_sigma=0,0.05", "--runs", "50", "--format", "records", "--seed", seed,
        )
        assert (code, err) == (0, "")
        assert hashlib.sha256(out.encode()).hexdigest() == sha256

    def test_noisy_case_mixes_detected_and_timed_out_runs_in_one_pass(self):
        scenario = load_scenario(str(CONFIGS / "noisy.cfg"), ["noise_sigma=0.12"])
        assert 30 <= CELL_BUDGET // scenario.max_ticks
        statuses = set(next(run_passes(scenario, 30)).table.status.tolist())
        assert statuses == {OK, TIMEOUT}

    @pytest.mark.parametrize("sets", [[], ["protocol=race"]])
    def test_every_run_carries_its_scenario_with_its_seed(self, sets):
        scenario = load_scenario(str(CONFIGS / "vessels.cfg"), sets)
        outcomes = list(run_comparisons(scenario, 2 * CELL_BUDGET // scenario.max_ticks + 3))
        for index, outcome in enumerate(outcomes):
            expected = dataclasses.replace(scenario, seed=scenario.seed + index)
            assert type(outcome.scenario) is Scenario
            assert outcome.scenario == expected and vars(outcome.scenario) == vars(expected)
            assert repr(outcome.scenario) == repr(expected)

    def test_success_rate_counts_runs_that_run_exits_zero_on(self, capsys):
        decoy = str(CONFIGS / "decoy.cfg")
        rates = []
        for sets in (["adversary=jammer"], ["adversary=impersonator", "defense_enabled=false"]):
            overrides = [arg for pair in sets for arg in ("--set", pair)]
            code, out, _ = run_cli(
                capsys, "sweep", "--config", decoy, "--runs", "20", "--seed", "5",
                *overrides, "--format", "records",
            )
            assert code == 0
            exits = [
                run_cli(capsys, "run", "--config", decoy, "--seed", str(seed), *overrides)[0]
                for seed in range(5, 25)
            ]
            rates.append(json.loads(out.splitlines()[-1])["success_rate"])
            assert rates[-1] == exits.count(0) / 20
        # The jammer disrupts some of these runs; the impersonator reads every secret.
        assert 0 < rates[0] < 1
        assert rates[1] == 0

    def test_a_second_call_inherits_nothing_from_the_first(self, capsys):
        decoy = str(CONFIGS / "decoy.cfg")
        plain = ["sweep", "--config", decoy, "--runs", "3", "--format", "records"]
        cli.build_parser.cache_clear()
        fresh = run_cli(capsys, *plain)
        run_cli(
            capsys, *plain, "--set", "adversary=jammer", "--set", "noise_sigma=0.1",
            "--vary", "max_ticks=300,500",
        )
        assert run_cli(capsys, *plain) == fresh
        records = [json.loads(line) for line in fresh[1].splitlines()]
        assert records[-1]["vary"] is None
        assert {r["outcome"]["kind"] for r in records[:-1]} == {"decoy"}
        assert cli.build_parser() is cli.build_parser()


class TestAnalyze:
    def test_vessels_analysis_names_the_difference(self, tmp_config, capsys):
        path = tmp_config(VESSELS_CFG)
        code, out, _ = run_cli(capsys, "analyze", "--config", path)
        assert code == 0
        assert "difference leaked: b-a = -2" in out
        assert "exceeds one bit" in out

    @pytest.mark.parametrize("fmt", ["text", "records"])
    def test_failed_comparison_is_a_protocol_error(self, fmt, tmp_config, tmp_path, capsys):
        path = tmp_config(VESSEL_ABORT_CFG)
        report = tmp_path / "report.txt"
        for out in ([], ["--out", str(report)]):
            code, stdout, err = run_cli(capsys, "analyze", "--config", path, "--format", fmt, *out)
            assert (code, stdout) == (2, "")
            assert err == "decoysim: protocol error: vessels ran dry at tick 205\n"
        assert not report.exists()

    def test_sync_decoy_analysis_passes(self, tmp_config, capsys):
        path = tmp_config(SYNC_CFG)
        code, out, _ = run_cli(
            capsys, "analyze", "--config", path, "--samples", "1500"
        )
        assert code == 0
        assert "analytic sum-channel reference: 0.702319 bits" in out
        assert "verdict: PASS" in out
        assert "posterior max_prob" in out

    def test_control_analysis_fails_loudly(self, tmp_config, capsys):
        path = tmp_config(CONTROL_CFG)
        code, out, _ = run_cli(
            capsys, "analyze", "--config", path, "--samples", "1500"
        )
        assert code == 0
        assert "verdict: FAIL" in out

    @pytest.mark.parametrize("count", ["500", "1000000000000"])
    def test_sample_floor_enforced(self, tmp_config, capsys, count):
        # Counts below 1000 or above 10^6 are refused before any draw: at
        # about 0.45 KB a sample, 10^12 would end in a MemoryError.
        path = tmp_config(SYNC_CFG)
        code, out, err = run_cli(
            capsys, "analyze", "--config", path, "--samples", count
        )
        assert code == 1 and out == ""
        bound = ">= 1000" if int(count) < 1000 else "<= 1000000"
        assert f"--samples must be {bound}, got {count}" in err

    @pytest.mark.parametrize("count", ["5", "2000"])
    def test_samples_on_a_comparison_config_is_a_config_error(self, capsys, count):
        # A comparison is audited from its one run, so a sample count is a mistake.
        code, out, err = run_cli(
            capsys, "analyze", "--config", str(CONFIGS / "vessels.cfg"), "--samples", count
        )
        assert code == 1 and out == ""
        assert err == (
            "decoysim: error: --samples applies only to decoy protocols; vessels is a "
            "comparison protocol, which analyze audits from one run\n"
        )

    def test_decoy_config_without_samples_draws_the_default(self, tmp_config, capsys):
        path = tmp_config(SYNC_CFG)
        code, out, _ = run_cli(capsys, "analyze", "--config", path, "--format", "records")
        assert code == 0
        analysis = [json.loads(line) for line in out.splitlines()][-1]
        assert analysis["samples"] == cli.DEFAULT_SAMPLES == 2000

    def test_derived_seed_past_the_range_is_rejected(self, capsys):
        # Sample i runs with seed + 1 + i, so the first sample's seed is 2^64.
        code, out, err = run_cli(
            capsys, "analyze", "--config", str(CONFIGS / "sync_analysis.cfg"),
            "--samples", "1000", "--seed", "18446744073709551615",
        )
        assert code == 1 and out == ""
        assert "seed must lie in [0, 2^64), got 18446744073709551616" in err

    def test_derived_seeds_just_inside_the_range_run(self, capsys):
        code, out, _ = run_cli(
            capsys, "analyze", "--config", str(CONFIGS / "sync_analysis.cfg"),
            "--samples", "1000", "--seed", "18446744073709550000",
        )
        assert code == 0
        assert "verdict: PASS" in out

    @pytest.mark.parametrize(
        "config, overrides, pinned",
        [
            ("sync_analysis.cfg", [], ("0.6951206842830135", "0.15639374425023", ["8", "0"], "PASS")),
            ("control_analysis.cfg", [], ("3.0002754513729677", "1.0", ["8", "3"], "FAIL")),
            (
                "sync_analysis.cfg",
                ["--set", "ramp_model=random_ramp", "--set", "defense_enabled=true"],
                ("0.4556094037179328", "0.13168724279835392", ["unstable"], "PASS"),
            ),
        ],
        ids=["sync", "control", "random ramp with the defense"],
    )
    def test_ten_thousand_sample_records_are_pinned(self, capsys, config, overrides, pinned):
        # repr round-trips a float, so any change to the estimate's value shows.
        code, out, _ = run_cli(
            capsys, "analyze", "--config", str(CONFIGS / config), *overrides,
            "--samples", "10000", "--format", "records",
        )
        assert code == 0
        analysis = json.loads(out.splitlines()[-1])
        assert (
            repr(analysis["mi_bits"]), repr(analysis["max_prob"]),
            analysis["observed_feature"], analysis["verdict"],
        ) == pinned

    def test_records_analysis(self, tmp_config, capsys):
        path = tmp_config(SYNC_CFG)
        code, out, _ = run_cli(
            capsys, "analyze", "--config", path, "--samples", "1200",
            "--format", "records",
        )
        assert code == 0
        records = [json.loads(l) for l in out.strip().splitlines()]
        analysis = [r for r in records if r["record"] == "analysis"][0]
        assert analysis["verdict"] == "PASS"
        assert abs(analysis["analytic_bits"] - 0.702319) < 1e-4


IMPERSONATOR_CFG = """
protocol = decoy_force
seed = 42
max_ticks = 120
secret_domain = 1..8
party_secrets.alice = 3
adversary = impersonator
hold_ticks = 3
"""

# name: (config path or text, overrides) of analyze's batch-against-composition grid
ANALYZE_GRID = {
    "sync": (str(CONFIGS / "sync_analysis.cfg"), []),
    "control": (str(CONFIGS / "control_analysis.cfg"), []),
    "decoy": (str(CONFIGS / "decoy.cfg"), ["--set", "secret_domain=1..8"]),
    "noisy": (str(CONFIGS / "noisy.cfg"), ["--set", "secret_domain=1..8"]),
    "jammer": (
        str(CONFIGS / "decoy.cfg"), ["--set", "secret_domain=1..8", "--set", "adversary=jammer"]
    ),
    "silent impersonator, defended": (IMPERSONATOR_CFG, []),
    "silent impersonator, undefended": (IMPERSONATOR_CFG, ["--set", "defense_enabled=false"]),
}
ANALYZE_SEEDS = [0, 1, 999, 2**32 + 5, 2**64 - 1002]


def _composed_posterior(samples, features, domain):
    """What analyze computed when the scenario's own run went through run_scenario on its own."""
    observed = run_scenario(samples.scenario).transcript
    return adversary.estimate_posterior(samples, observed, features, domain)


def _batch_and_composition(capsys, monkeypatch, *argv):
    """analyze's (code, stdout, stderr) on argv, and the same with the composition in its place."""
    batch = run_cli(capsys, "analyze", *argv)
    with monkeypatch.context() as patched:
        patched.setattr(adversary, "estimate_own_run_posterior", _composed_posterior)
        return batch, run_cli(capsys, "analyze", *argv)


class TestAnalyzeBatch:
    """analyze runs the scenario's own run as row 0 of its samples' kernel passes.

    Its reports, in either format, and its errors are the ones the
    composition it replaced gives: estimate_posterior on the samples and
    run_scenario's transcript of the scenario.
    """

    @pytest.mark.parametrize("case", ANALYZE_GRID)
    def test_the_batch_reports_what_the_composition_does(
        self, case, tmp_config, capsys, monkeypatch
    ):
        config, overrides = ANALYZE_GRID[case]
        path = config if config.endswith(".cfg") else tmp_config(config)
        for seed in ANALYZE_SEEDS:
            for fmt in ("text", "records"):
                argv = [
                    "--config", path, *overrides, "--seed", str(seed), "--samples", "1000",
                    "--format", fmt,
                ]
                batch, composed = _batch_and_composition(capsys, monkeypatch, *argv)
                assert batch == composed and batch[0] == 0, (seed, fmt)
            scenario = load_scenario(path, [*overrides[1::2], f"seed={seed}"])
            samples = adversary.collect_transmission_samples(scenario, 1000)
            features = adversary.TranscriptFeatures.for_scenario(scenario)
            report = adversary.estimate_own_run_posterior(samples, features, scenario.secret_domain)
            expected = _composed_posterior(samples, features, scenario.secret_domain)
            assert repr(report) == repr(expected), seed

    def test_an_own_run_whose_receiver_start_lemire_redraws(self, capsys, monkeypatch):
        # Seed 206,376's receiver start, in [1, 19,824] at this budget, is
        # redrawn from its generator (tests/test_closed_form.py pins it).
        rows = engine.RngStream.seed_rows([206_376], [engine.STREAM_RECEIVER])[:, 0]
        word = engine.RngStream.first_outputs(rows, 1)[:, 0]
        assert engine.RngStream.lemire(word, 19_824)[1].tolist() == [True]
        argv = [
            "--config", str(CONFIGS / "decoy.cfg"), "--set", "max_ticks=237897",
            "--set", "secret_domain=1..8", "--seed", "206376", "--samples", "1000",
            "--format", "records",
        ]
        batch, composed = _batch_and_composition(capsys, monkeypatch, *argv)
        assert batch == composed and batch[0] == 0

    @pytest.mark.parametrize(
        "overrides",
        [
            ["--set", f"secret_domain=1..{2**53}"],
            ["--seed", str(2**64 - 1)],
            # the first sample's seed is 2^64 and every secret of the domain is short
            ["--seed", str(2**64 - 1), "--set", f"secret_domain=1..{2**53}"],
            ["--samples", "999"],
            ["--samples", str(10**6 + 1)],
        ],
        ids=["short samples", "seed 2^64 - 1", "both", "too few samples", "too many samples"],
    )
    def test_the_batch_fails_as_the_composition_does(self, overrides, capsys, monkeypatch):
        argv = ["--config", str(CONFIGS / "decoy.cfg"), "--samples", "1000", *overrides]
        batch, composed = _batch_and_composition(capsys, monkeypatch, *argv)
        assert batch == composed
        assert batch[:2] == (1, "") and batch[2].startswith("decoysim: error: ")

    def test_a_request_makes_eight_kernel_passes_and_no_outcome_table(self, capsys, monkeypatch):
        # The benchmark's analyze request: two configs at 2,000 samples, so
        # 2,001 runs each in passes of CELL_BUDGET // 120 = 546.
        batches = []
        kernel = decoy._closed_form

        def recorded(*args):
            batches.append(kernel(*args))
            return batches[-1]

        monkeypatch.setattr(decoy, "_closed_form", recorded)
        monkeypatch.setattr(cli, "run_scenario", None)  # analyze must not call it
        for config in ("sync_analysis.cfg", "control_analysis.cfg"):
            code, _, _ = run_cli(
                capsys, "analyze", "--config", str(CONFIGS / config), "--samples", "2000",
                "--format", "records", "--seed", "1234567",
            )
            assert code == 0
        assert [len(batch) for batch in batches] == [546, 546, 546, 363] * 2
        assert not any("table" in batch.__dict__ for batch in batches)


class TestReplayCheck:
    def test_match_exits_zero(self, tmp_config, capsys):
        path = tmp_config(DECOY_CFG)
        code, out, _ = run_cli(capsys, "replay-check", "--config", path)
        assert code == 0
        assert "MATCH" in out

    def test_comparison_protocols_also_replay(self, tmp_config, capsys):
        path = tmp_config(VESSELS_CFG)
        code, out, _ = run_cli(
            capsys, "replay-check", "--config", path, "--format", "records"
        )
        assert code == 0
        record = json.loads(out.strip().splitlines()[0])
        assert record["match"] is True
        assert record["digests"][0] == record["digests"][1]

    def test_vessel_overflow_replays(self, capsys):
        code, out, _ = run_cli(
            capsys, "replay-check", "--config", str(CONFIGS / "vessels.cfg"),
            "--set", "hold_ticks=100000", "--set", "max_ticks=200000",
            "--set", "party_secrets.alice=1", "--set", "party_secrets.bob=50",
        )
        assert code == 0
        digest = f"{EMPTY_TRANSCRIPT_DIGEST:016x}"
        assert out.splitlines() == [f"replay digests: {digest} {digest}", "replay: MATCH"]


def test_stdout_closed_early_exits_one_without_a_traceback():
    # `decoysim sweep ... | head -1`: the reader goes away after one line.
    root = CONFIGS.parent
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    process = subprocess.Popen(
        [sys.executable, "-m", "decoysim.cli", "sweep", "--config",
         str(CONFIGS / "decoy.cfg"), "--runs", "3000", "--format", "records"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    first = process.stdout.readline()
    process.stdout.close()
    stderr = process.stderr.read().decode()
    process.stderr.close()
    assert process.wait(timeout=120) == 1, stderr
    assert json.loads(first)["record"] == "run"
    assert "Traceback" not in stderr and "BrokenPipeError" not in stderr, stderr


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full on this system")
@pytest.mark.parametrize(
    "command, config",
    [
        (["run"], "decoy.cfg"),
        (["replay-check"], "decoy.cfg"),
        (["sweep", "--runs", "2"], "decoy.cfg"),
        (["analyze"], "sync_analysis.cfg"),
    ],
    ids=["run", "replay-check", "sweep", "analyze"],
)
def test_out_on_a_full_device_exits_one_with_one_error_line(command, config):
    # The report file opens, but the device refuses the report when it is
    # written out: the error is reported once, and closing the file after
    # it does not raise it again.
    env = dict(os.environ, PYTHONPATH=str(CONFIGS.parent / "src"))
    process = subprocess.run(
        [sys.executable, "-m", "decoysim.cli", *command, "--config", str(CONFIGS / config),
         "--out", "/dev/full"],
        env=env, capture_output=True, text=True, timeout=120,
    )
    errors = process.stderr.splitlines()
    assert process.returncode == 1, process.stderr
    assert "Traceback" not in process.stderr
    assert errors == ["decoysim: error: [Errno 28] No space left on device"]


# Runs the CLI as its only child, under a 1 GB address-space limit so that
# a run that tried to build a 2^53-event record fails fast, and prints the
# child's exit code and peak RSS in KB; the child's stderr is the probe's.
PEAK_RSS_PROBE = """
import resource, subprocess, sys

def limit():
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

command = [sys.executable, "-m", "decoysim.cli", *sys.argv[1:]]
code = subprocess.call(command, stdout=subprocess.DEVNULL, preexec_fn=limit)
print(code, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
"""


def _code_peak_kb_and_stderr(*argv):
    env = dict(os.environ, PYTHONPATH=str(CONFIGS.parent / "src"))
    probe = subprocess.run(
        [sys.executable, "-c", PEAK_RSS_PROBE, *argv],
        env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    code, peak = probe.stdout.split()
    return int(code), int(peak), probe.stderr


@pytest.mark.parametrize(
    "protocol, secrets",
    [
        ("race_bitstring", []),
        ("elevator", [f"party_secrets.alice={2**53 - 1}", f"party_secrets.bob={2**53}"]),
    ],
)
def test_over_budget_run_on_a_2_to_the_53_domain_exits_two_at_small_domain_memory(
    protocol, secrets
):
    # The budget is checked against the closed-form last tick before any
    # public event is built, so a 2^53-cell string or 2^53 door events
    # never exist.
    run = ["run", "--config", str(CONFIGS / "vessels.cfg"), "--set", f"protocol={protocol}"]
    small_code, small_kb, _ = _code_peak_kb_and_stderr(*run)
    overrides = [f"--set={pair}" for pair in [f"secret_domain=1..{2**53}", *secrets]]
    code, peak_kb, _ = _code_peak_kb_and_stderr(*run, *overrides)
    assert (small_code, code) == (0, 2)
    assert peak_kb <= small_kb + 8 * 1024, (peak_kb, small_kb)


def test_analyze_on_a_2_to_the_53_domain_reports_short_samples_at_small_domain_memory():
    # The per-secret sample check counts the samples, not the domain: it names
    # the first secret without enough samples and allocates nothing per secret.
    analyze = ["analyze", "--config", str(CONFIGS / "decoy.cfg"), "--samples", "1000"]
    small_code, small_kb, small_err = _code_peak_kb_and_stderr(*analyze)
    code, peak_kb, err = _code_peak_kb_and_stderr(*analyze, f"--set=secret_domain=1..{2**53}")
    assert (small_code, code) == (1, 1), err
    assert small_err.startswith("decoysim: error: need >= 100 samples for every secret in [1, 100]")
    assert err.splitlines() == [
        f"decoysim: error: need >= 100 samples for every secret in [1, {2**53}]; secret 1 has 0"
    ]
    assert peak_kb <= small_kb + 8 * 1024, (peak_kb, small_kb)


def test_a_million_tick_vessels_replay_builds_no_level_events():
    # The transcript measures the level series as one array; reading it
    # off 10^6 public events peaked near 230 MB.
    replay = ["replay-check", "--config", str(CONFIGS / "vessels.cfg")]
    small_code, small_kb, _ = _code_peak_kb_and_stderr(*replay)
    sets = ["party_secrets.alice=3", "party_secrets.bob=3", "hold_ticks=999999"]
    sets.append("max_ticks=1000000")
    code, peak_kb, _ = _code_peak_kb_and_stderr(*replay, *[f"--set={pair}" for pair in sets])
    assert (small_code, code) == (0, 0)
    assert peak_kb <= small_kb + 96 * 1024, (peak_kb, small_kb)


DECOY = str(CONFIGS / "decoy.cfg")


@pytest.mark.parametrize(
    "argv, message",
    [
        (["sweep", "--config", DECOY], "the following arguments are required: --runs"),
        (["run", "--bogus"], "the following arguments are required: --config"),
        (["run", "--config", DECOY, "--bogus"], "unrecognized arguments: --bogus"),
        (["sweep", "--config", DECOY, "--runs", "x"], "argument --runs: invalid int value: 'x'"),
    ],
)
def test_usage_error_exits_one_with_argparse_message(argv, message, capsys):
    # 2 is for a protocol-level failure; a usage error is a config error.
    with pytest.raises(SystemExit) as excinfo:
        cli.main(argv)
    captured = capsys.readouterr()
    assert excinfo.value.code == 1
    assert captured.out == ""
    assert captured.err.startswith("usage: decoysim") and f"error: {message}\n" in captured.err


@pytest.mark.parametrize("argv", [["--help"], ["sweep", "--help"], ["run", "-h"]])
def test_help_exits_zero(argv, capsys):
    with pytest.raises(SystemExit) as excinfo:
        cli.main(argv)
    assert excinfo.value.code == 0
    assert capsys.readouterr().out.startswith("usage: decoysim")


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as excinfo:
        cli.main(["--version"])
    assert excinfo.value.code == 0
    assert "decoysim" in capsys.readouterr().out


def test_shipped_configs_load_and_run(capsys):
    configs = sorted(CONFIGS.glob("*.cfg"))
    assert configs, "sample configs missing"
    for config in configs:
        code, out, err = run_cli(capsys, "run", "--config", str(config))
        assert code == 0, (config.name, err)


# Keys that set a run's length or its domain's size draw small values only,
# so every example runs in milliseconds; the test is about exit codes.
EDGE_NUMERALS = ["inf", "nan", "-0", "1e308", "1e-320", "-5", "2**64", "0x10"]
SIZE_VALUES = {
    "max_ticks": st.integers(-2, 80).map(str) | st.sampled_from(EDGE_NUMERALS),
    "hold_ticks": st.integers(-2, 80).map(str) | st.sampled_from(EDGE_NUMERALS),
    "secret_domain": st.builds("{}..{}".format, st.integers(-2, 60), st.integers(-2, 60))
    | st.sampled_from(EDGE_NUMERALS),
}
SCALAR_KEYS = {f.name for f in dataclasses.fields(Scenario)} - {"party_secrets"}
OTHER_KEYS = sorted(SCALAR_KEYS - set(SIZE_VALUES)) + [
    "party_secrets.alice",
    "party_secrets.bob",
]
KEYS = (
    st.sampled_from(OTHER_KEYS)
    | st.builds("party_secrets.{}".format, st.text(max_size=8))
    | st.text(max_size=12).filter(
        lambda key: key.split("=", 1)[0].strip() not in SIZE_VALUES
    )
)
VALUES = st.sampled_from(EDGE_NUMERALS + [str(2**64)]) | st.text(max_size=12)
SIZED = st.sampled_from(sorted(SIZE_VALUES)).flatmap(
    lambda key: st.tuples(st.just(key), SIZE_VALUES[key])
)
OVERRIDES = st.lists(SIZED | st.tuples(KEYS, VALUES), max_size=4)
# Valid overrides whose runs mostly end in a protocol failure: an active
# adversary, defended against or not, on a decoy run with a small budget.
ATTACKS = st.lists(
    st.tuples(st.just("protocol"), st.sampled_from(["decoy_force", "decoy_wave"]))
    | st.tuples(st.just("adversary"), st.sampled_from(["jammer", "impersonator"]))
    | st.tuples(st.just("defense_enabled"), st.sampled_from(["true", "false"]))
    | st.tuples(st.just("max_ticks"), st.integers(1, 60).map(str)),
    min_size=4,
    max_size=4,
    unique_by=lambda pair: pair[0],
)
# Where --out points, from the config's folder: nowhere (stdout), or a path
# that fails before the run (a missing folder, a folder) or when the report
# is written out (a full device, whose absolute path the join keeps).
OUTS = st.none() | st.sampled_from(
    ["missing/report", "."] + (["/dev/full"] if os.path.exists("/dev/full") else [])
)


@pytest.fixture(scope="module")
def small_decoy_config(tmp_path_factory):
    path = tmp_path_factory.mktemp("cfg") / "small.cfg"
    path.write_text(DECOY_CFG.replace("max_ticks = 120", "max_ticks = 60"))
    return str(path)


COMMANDS = [["run"], ["replay-check"], ["sweep", "--runs", "2"], ["analyze", "--samples", "1000"]]


@given(
    command=st.sampled_from(COMMANDS),
    fmt=st.sampled_from(["text", "records"]),
    protocol=st.sampled_from([p.value for p in Protocol]),
    overrides=OVERRIDES | ATTACKS,
    report=OUTS,
)
@example(
    command=["run"], fmt="text", protocol="decoy_force", overrides=[("noise_sigma", "1e308")],
    report=None,
)
@example(command=["run"], fmt="text", protocol="race", overrides=[("dt", "1e-320")], report=None)
@example(
    command=COMMANDS[3], fmt="records", protocol="decoy_force",
    overrides=[("secret_domain", "1..8")], report=None,
)
@example(
    command=["run"], fmt="text", protocol="decoy_wave", overrides=[("adversary", "jammer")],
    report=None,
)
@example(
    command=["run"], fmt="records", protocol="decoy_force",
    overrides=[("adversary", "impersonator")], report=None,
)
@settings(max_examples=300, deadline=None, derandomize=True)
def test_arbitrary_overrides_exit_cleanly(
    small_decoy_config, command, fmt, protocol, overrides, report
):
    # Any command, format, --set pairs and --out end in exit 0, 1 or 2, and
    # every line of records is JSON.  Exit 2 comes with a protocol-level line
    # and exit 1 with one error or usage message.  The first two explicit
    # examples are overflows that once got past validation and ended in a
    # traceback; the third is an analysis that runs, which 1,000 samples over
    # the config's 100 secrets cannot; the last two are runs that exit 2, as
    # the generated attacks' runs mostly do.
    argv = [*command, "--config", small_decoy_config, "--format", fmt]
    argv += [f"--set=protocol={protocol}"] + [f"--set={key}={value}" for key, value in overrides]
    if report is not None:
        argv += ["--out", os.path.join(os.path.dirname(small_decoy_config), report)]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    lines, stderr = out.getvalue().splitlines(), err.getvalue()
    errors = stderr.splitlines()
    assert code in (0, 1, 2)
    assert "Traceback" not in stderr
    records = [json.loads(line) for line in lines] if fmt == "records" else []
    if code == 2:
        assert (
            any(line.startswith(("protocol failure: ", "flags: ")) for line in lines)
            or any(record["record"] == "run" and record["flags"] for record in records)
            or "replay: MISMATCH" in lines
            or any(record["record"] == "replay-check" and not record["match"] for record in records)
            or any(line.startswith("decoysim: protocol error: ") for line in errors)
        ), (argv, lines, stderr)
    if code == 1:
        assert any(line.startswith(("decoysim: error: ", "usage: ")) for line in errors), argv
    assert sum(line.startswith("decoysim: ") for line in errors) <= 1, (argv, stderr)


def test_readme_cli_examples_run(capsys, monkeypatch):
    # Every `decoysim ...` line of README's CLI block, run from the checkout's root.
    root = CONFIGS.parent
    readme = (root / "README.md").read_text(encoding="utf-8")
    block = readme.split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = [line for line in block.splitlines() if line.startswith("decoysim ")]
    assert len(lines) == 7
    assert sum("# prints a FAIL verdict" in line for line in lines) == 1
    monkeypatch.chdir(root)
    for line in lines:
        command, _, comment = line.partition("#")
        code, out, _ = run_cli(capsys, *shlex.split(command)[1:])
        assert code == 0, line
        if "prints a FAIL verdict" in comment:
            assert "verdict: FAIL" in out, line
