"""Run every workload untraced and traced, print the end-to-end metrics of all
four side by side, and check the traced layer metrics against the
interaction table (which layer's work each workload carries).

Run from the root of a checkout:

    python3 perfbench/report.py --seconds 10

Exits 1 if any run was incorrect.  A row of the interaction table that the
trace contradicts is reported as CONTRADICTED; it does not fail the report.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("sweep", "analyze", "compare", "attack")
END_TO_END = (
    ("runs_per_s", "1/s"), ("request_p50_ms", "ms"), ("request_tail_ms", "ms"),
    ("error_rate", "ratio"), ("setup_s", "s"), ("peak_rss_mb", "MB"),
)
NONE_SHARE = 0.01  # "about none": under 1% of traced request time
MILLIONAIRES = ("millionaires.compare_digitwise", "millionaires.elevator", "millionaires.race",
                "millionaires.race_bitstring", "millionaires.vessels")
# (layer probes, end-to-end metric they should move, most work in, about none in)
INTERACTIONS = (
    (("engine.rng_stream",), "runs_per_s", "analyze", ("compare",)),
    (("decoy.simulate_transmission", "channel.measure", "channel.set_contribution",
      "engine.transcript_append"), "runs_per_s, request_p50_ms", "sweep", ("compare",)),
    (("engine.transcript_entries",), "request_p50_ms, request_tail_ms", "attack", ("sweep", "analyze")),
    (("engine.replay_digest",), "runs_per_s", "sweep", ("analyze",)),
    (("adversary.features", "adversary.mutual_information", "adversary.posterior"),
     "request_p50_ms", "analyze", ("sweep", "compare")),
    (("adversary.actor_hooks", "adversary.attack_jam", "adversary.attack_impersonate"),
     "request_p50_ms", "attack", ("sweep",)),
    (MILLIONAIRES + ("adversary.audit",), "runs_per_s", "compare", ("sweep", "analyze", "attack")),
    (("config.load_scenario", "cli.command"), "request_p50_ms, setup_s", "sweep", ("compare",)),
)


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    if done.returncode != 0:
        raise SystemExit(f"{workload} --trace {trace} exited {done.returncode}:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def value(result: dict, name: str) -> float:
    if name == "error_rate":
        return result["failed"] / result["attempted"]
    return result["metrics"][name]["value"]


def share(layers: dict, probes) -> float:
    """Self time of `probes` as a share of the traced request time."""
    return sum(value(layers, f"{p}.self_ms") for p in probes) / value(layers, "trace.request_ms")


def interaction_checks(plain: dict, layers: dict, pairs_per_request: int) -> list[tuple[str, bool, str]]:
    checks = []
    for probes, moves, most, none in INTERACTIONS:
        shares = {w: share(layers[w], probes) for w in WORKLOADS}
        top = max(shares, key=shares.get)
        quiet = all(shares[w] < NONE_SHARE for w in none)
        detail = ", ".join(f"{w} {shares[w]:.2%}" for w in WORKLOADS)
        label = f"{' + '.join(probes)} -> {moves}: most in {most}, about none in {', '.join(none)}"
        checks.append((label, top == most and quiet, detail))
    rss = {w: value(plain[w], "peak_rss_mb") for w in WORKLOADS}
    checks.append((
        "engine.transcript_append.calls x retained transcripts -> peak_rss_mb: most in analyze",
        max(rss, key=rss.get) == "analyze",
        ", ".join(f"{w} {rss[w]:.1f} MB" for w in WORKLOADS),
    ))
    replay = value(layers["analyze"], "engine.replay_digest.calls")
    checks.append(("engine.replay_digest.calls is 0 on analyze", replay == 0, f"{replay:g}"))
    ticks = value(layers["compare"], "decoy.ticks")
    checks.append(("decoy.ticks is 0 on compare", ticks == 0, f"{ticks:g}"))
    streams = value(layers["compare"], "engine.rng_stream.calls")
    checks.append((
        "engine.rng_stream.calls on compare equals its vessels run_scenario calls",
        streams == pairs_per_request, f"{streams:g} streams, {pairs_per_request} vessels runs per request",
    ))
    copied = {w: value(layers[w], "engine.transcript_entries.elements_copied") for w in ("attack", "sweep")}
    checks.append((
        "engine.transcript_entries.elements_copied per request: attack >= 100x sweep",
        copied["attack"] >= 100 * copied["sweep"],
        f"attack {copied['attack']:.4g}, sweep {copied['sweep']:.4g}",
    ))
    return checks


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=None, help="default: the reference seed")
    parser.add_argument("--seconds", type=float, default=10)
    args = parser.parse_args()
    sys.path.insert(0, str(ROOT / "perfbench"))
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    seed = workloads.DEFAULT_SEED if args.seed is None else args.seed
    plain = {w: run_workload(w, seed, args.seconds, 0) for w in WORKLOADS}
    layers = {w: run_workload(w, seed, args.seconds, 1) for w in WORKLOADS}

    header = ["workload"] + [f"{name} [{unit}]" for name, unit in END_TO_END]
    print("  ".join(f"{h:>22}" for h in header))
    for w in WORKLOADS:
        cells = [w] + [f"{value(plain[w], name):.6g}" for name, _ in END_TO_END]
        print("  ".join(f"{c:>22}" for c in cells))
    print()
    for w in WORKLOADS:
        print(f"{w}: trace.overhead_ratio {value(layers[w], 'trace.overhead_ratio'):.3f}, "
              f"decoy.tick_cost_ratio {value(layers[w], 'decoy.tick_cost_ratio'):.3f}")
    print()
    for label, confirmed, detail in interaction_checks(plain, layers, workloads.SCENARIO_PAIRS):
        print(f"{'CONFIRMED   ' if confirmed else 'CONTRADICTED'} {label} ({detail})")
    correct = all(r["correct"] for r in (*plain.values(), *layers.values()))
    print(f"\nall runs correct: {correct}")
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
