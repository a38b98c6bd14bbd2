"""`sweep`'s columnar run lines against the per-run rendering, and against `run`'s record."""

import json
from pathlib import Path

import pytest

from decoysim import cli

import record_oracle

CONFIGS = Path(__file__).parent.parent / "configs"
DECOY, NOISY, VESSELS = (str(CONFIGS / f"{name}.cfg") for name in ("decoy", "noisy", "vessels"))
TOP = 2**53 - 1

# name: (config, extra arguments)
CASES = {
    "decoy": (DECOY, []),
    "noisy, varied noise": (NOISY, ["--vary", "noise_sigma=0,0.05,3"]),
    "sync analysis": (str(CONFIGS / "sync_analysis.cfg"), []),
    "control analysis": (str(CONFIGS / "control_analysis.cfg"), []),
    "jammer": (DECOY, ["--set", "adversary=jammer"]),
    "impersonator, defended": (DECOY, ["--set", "adversary=impersonator"]),
    "impersonator, undefended": (
        DECOY, ["--set", "adversary=impersonator", "--set", "defense_enabled=false"]
    ),
    "timeouts": (DECOY, ["--set", "max_ticks=7"]),  # about half the runs time out
    # Near 2^53 the public sum rounds: some runs read past the domain, some the wrong secret.
    "out of domain": (
        DECOY,
        [
            "--set", f"secret_domain=1..{TOP}", "--set", f"party_secrets.alice={TOP}",
            "--set", f"party_secrets.bob={TOP}", "--set", "defense_enabled=false",
            "--set", "hold_ticks=2",
        ],
    ),
    "vessels": (VESSELS, []),
    "race": (VESSELS, ["--set", "protocol=race"]),
    "vessels abort": (
        VESSELS,
        [
            "--set", "hold_ticks=300", "--set", "max_ticks=400",
            "--set", "party_secrets.alice=50", "--set", "party_secrets.bob=1",
        ],
    ),
}
# The last seed's sweep runs 60 runs and then stops on seed 2^64.
SEEDS = [0, 1, 2**32 + 5, 2**64 - 60]
RUNS = 70


def _main(capsys, argv, out=None):
    """cli.main's exit code, stdout, stderr and what its --out file, if any, then holds."""
    if out is not None:
        out.write_text("previous report\n")
        argv = [*argv, "--out", str(out)]
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err, out.read_text() if out is not None else None


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("case", CASES)
def test_sweep_prints_what_the_per_run_rendering_prints(case, seed, tmp_path, capsys, monkeypatch):
    # Each --out file starts with an old report: a sweep that fails before its
    # first line leaves it as it was.
    config, extra = CASES[case]
    for fmt in ("records", "text"):
        argv = ["sweep", "--config", config, "--runs", str(RUNS), "--seed", str(seed), *extra]
        argv += ["--format", fmt]
        for out in (None, tmp_path / f"{fmt}.out"):
            found = _main(capsys, argv, out)
            with monkeypatch.context() as patch:
                patch.setitem(cli._COMMANDS, "sweep", record_oracle.cmd_sweep)
                expected = _main(capsys, argv, out)
            assert found == expected, (fmt, out)


def test_the_grid_covers_every_record_shape(capsys):
    # Every outcome kind and flag a sweep line can carry shows in the grid at seed 0.
    kinds, flags = set(), set()
    for config, extra in CASES.values():
        argv = ["sweep", "--config", config, "--runs", str(RUNS), "--seed", "0", *extra]
        assert cli.main([*argv, "--format", "records"]) == 0
        records = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        runs = [r for r in records if r["record"] == "run"]
        kinds |= {r["outcome"]["kind"] for r in runs}
        flags |= {flag for r in runs for flag in r["flags"]}
    assert kinds == {"decoy", "attack", "error", "comparison"}
    assert {"recovery-mismatch", "ProtocolTimeout", "OutOfDomain", "VesselEmpty"} <= flags
    assert {"disrupted", "adversary-learned-secret", "timeout", "leak:b-a"} <= flags


# name: (config, extra arguments, an outcome kind or error its runs include)
RUN_CASES = {
    "honest": (DECOY, [], "decoy"),
    "jammer": (DECOY, ["--set", "adversary=jammer"], "attack"),
    "impersonator": (DECOY, ["--set", "adversary=impersonator"], "attack"),
    "timeout": (DECOY, ["--set", "max_ticks=7"], "ProtocolTimeout"),
    "out of domain": (*CASES["out of domain"], "OutOfDomain"),
    "comparison": (VESSELS, [], "comparison"),
}


@pytest.mark.parametrize("case", RUN_CASES)
def test_run_prints_the_line_a_one_run_sweep_prints(case, capsys):
    # `run` renders its record with json.dumps, `sweep` from its line formats.
    config, extra, shows = RUN_CASES[case]
    seen = set()
    for seed in [*range(8), 2**32 + 5, 2**64 - 1]:
        common = ["--config", config, "--seed", str(seed), *extra, "--format", "records"]
        cli.main(["run", *common])
        meta, run_line = capsys.readouterr().out.splitlines()
        assert cli.main(["sweep", *common, "--runs", "1"]) == 0
        sweep_line, aggregate = capsys.readouterr().out.splitlines()
        assert run_line == sweep_line
        outcome = json.loads(run_line)["outcome"]
        seen |= {outcome["kind"], outcome.get("error")}
    assert shows in seen
