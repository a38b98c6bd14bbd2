"""What an observer of the public record can learn, and what an active one can do.

The passive side enumerates the decoy population behind an observed total,
estimates posteriors empirically from simulated transcript samples, and
quantifies leakage as mutual information (plug-in estimator with
Miller-Madow bias correction).  The active side implements the two
interference attacks: jamming the shared medium and impersonating the
receiver, with and without the announcement-based defense.

Adversaries and the auditor consume transcripts and public observables
only; nothing in this module touches a party's private ramp state.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
from collections import Counter
from dataclasses import dataclass
from collections.abc import Iterable, Iterator, Sequence
from typing import NamedTuple, Optional

import numpy as np

from .decoy import (
    IN_BUSINESS,
    RampProcess,
    RunBatch,
    Runs,
    check_transmission,
    detect_stabilization,
    mean_slack,
    present,
    recover_secret,
    simulate_runs,
)
from .engine import (
    ADVERSARY,
    OUT_OF_DOMAIN,
    RECEIVER,
    SENDER,
    STREAM_SAMPLER,
    TIMEOUT,
    AdversaryKind,
    Protocol,
    RngStream,
    Scenario,
    Transcript,
    seed_spans,
)
from .errors import InsufficientSamples, InvalidScenario, OutOfDomain
from .millionaires import ComparisonOutcome, Ordering

# --- decoy enumeration ------------------------------------------------------


@dataclass(frozen=True)
class SplitSet:
    """All (secret, key) pairs consistent with an observed stable total."""

    total: int
    pairs: tuple[tuple[int, int], ...]

    def __len__(self) -> int:
        return len(self.pairs)

    def secrets(self) -> tuple[int, ...]:
        return tuple(pair[0] for pair in self.pairs)


def enumerate_splits(
    total: int, domain: tuple[int, int], max_key: Optional[int] = None
) -> SplitSet:
    """Every way to write `total` as secret + key with the secret in `domain`.

    The key only has to be a positive integer unless `max_key` bounds it
    (an adversary who knows the receiver's key is drawn from the same
    domain should pass max_key=domain[1]).  An empty set is a legal
    result; it means the parameters leak everything.
    """
    n1, n2 = domain
    lowest = n1 if max_key is None else max(n1, total - max_key)
    highest = min(n2, total - 1)
    pairs = tuple(
        (secret, total - secret) for secret in range(lowest, highest + 1)
    )
    return SplitSet(total=total, pairs=pairs)


def analytic_split_posterior(
    total: int, domain: tuple[int, int], max_key: Optional[int] = None
) -> dict[int, float]:
    """Exact posterior over the secret given only the stable total.

    With the secret and key independently uniform, every consistent split
    is equally likely, so the posterior is uniform on the split set.
    """
    splits = enumerate_splits(total, domain, max_key=max_key)
    if not splits.pairs:
        return {}
    weight = 1.0 / len(splits)
    return {secret: weight for secret in splits.secrets()}


def analytic_sum_mi(
    secret_domain: tuple[int, int], key_domain: Optional[tuple[int, int]] = None
) -> float:
    """Exact I(secret; secret + key) in bits, both uniform on their domains.

    Each entropy sums the counts that enumerating the (secret, key) pairs
    would give, in the same order, without building the pairs.  This is
    NOT zero on a bounded domain: extreme totals pin the secret down
    (total = 2 forces secret = 1), so this exact value -- not zero -- is
    the reference an empirical estimator of the sum channel must match.
    """
    if key_domain is None:
        key_domain = secret_domain
    s1, s2 = secret_domain
    k1, k2 = key_domain
    n = (s2 - s1 + 1) * (k2 - k1 + 1)
    h_s = _entropy_bits(itertools.repeat(k2 - k1 + 1, s2 - s1 + 1), n)
    totals = range(s1 + k1, s2 + k2 + 1)
    h_t = _entropy_bits((min(s2, t - k1) - max(s1, t - k2) + 1 for t in totals), n)
    h_st = _entropy_bits(itertools.repeat(1, n), n)
    return h_s + h_t - h_st


def _entropy_bits(counts: Iterable[int], n: int) -> float:
    """Plug-in entropy in bits of n samples whose symbols occur `counts` times, summed in order."""
    return -sum((c / n) * math.log2(c / n) for c in counts)


# --- plug-in estimators -----------------------------------------------------

MIN_MI_SAMPLES = 1000  # the fewest samples an MI estimate takes
MIN_PER_CLASS = 100  # the fewest samples of each secret a posterior takes


def estimate_mutual_information(
    pairs: Sequence[tuple[object, object]], min_samples: int = MIN_MI_SAMPLES
) -> float:
    """Plug-in I(S;T) over a finite feature alphabet, Miller-Madow corrected.

    Ĥ_MM(X) = Ĥ(X) + (K_obs - 1) / (2N ln 2) bits, applied to each of
    H(S), H(T), H(S,T); the corrections cancel the leading
    O(alphabet / N) bias of the plug-in difference.  Small negative
    results are possible and are returned as-is.
    """
    # Counter counts in C in first-occurrence order, which summing the joint's keys keeps.
    counts_st, counts_s, counts_t = Counter(pairs), Counter(), Counter()
    for (s, t), count in counts_st.items():
        counts_s[s] += count
        counts_t[t] += count
    counts = (counts_s.values(), counts_t.values(), counts_st.values())
    return _mutual_information(len(pairs), counts, min_samples)


def _mutual_information(n: int, counts, min_samples: int) -> float:
    """The estimate from the counts of the symbols of S, T and (S, T), each in first-seen order."""
    if n < min_samples:
        raise InsufficientSamples(f"mutual information needs >= {min_samples} samples, got {n}")
    ln2 = math.log(2.0)
    h_s, h_t, h_st = (_entropy_bits(c, n) + (len(c) - 1) / (2.0 * n * ln2) for c in counts)
    return h_s + h_t - h_st


def _counts_in_order(keys: np.ndarray) -> tuple[list[int], np.ndarray]:
    """Each distinct key's count, in first-occurrence order as Counter's, and each key's rank."""
    _, first, ranks, counts = np.unique(
        keys, return_index=True, return_inverse=True, return_counts=True
    )
    return counts[first.argsort()].tolist(), ranks


# A feature's kind, FeatureColumns.kind: a stable total and its bucket, or a one-word feature.
STABLE, EMPTY, SILENT, UNSTABLE = range(4)
_ONE_WORD = (None, ("empty",), ("silent",), ("unstable",))


class FeatureColumns(NamedTuple):
    """The features of a batch of transcripts as int64 columns; row i is transcript i's.

    A STABLE row's feature is (total, bucket); an EMPTY, SILENT or UNSTABLE
    one's is its one-word tuple, and its total and bucket read 0.
    """

    kind: np.ndarray
    total: np.ndarray
    bucket: np.ndarray

    def tuples(self) -> list[tuple]:
        """Each row's feature as TranscriptFeatures gives it, with Python ints."""
        rows = zip(self.kind.tolist(), self.total.tolist(), self.bucket.tolist())
        return [(t, b) if kind == STABLE else _ONE_WORD[kind] for kind, t, b in rows]


def _first_true(mask: np.ndarray) -> np.ndarray:
    """Each row's first True column, or the mask's width in a row without one."""
    return np.concatenate([mask, np.ones((len(mask), 1), bool)], axis=1).argmax(axis=1)


@dataclass(frozen=True)
class TranscriptFeatures:
    """Quantized transcript summary used by the empirical estimators.

    Two components, both read off the public measurement sequence alone:
    the stable total rounded to the nearest integer, and the number of
    ticks from first channel activity to the onset of flatness, in coarse
    buckets.  Runs that never show activity map to ("silent",) and runs
    that never flatten long enough map to ("unstable",); reports carry
    these quantization choices.
    """

    hold_ticks: int
    noise_sigma: float
    bucket_width: int

    @classmethod
    def for_scenario(cls, scenario: Scenario) -> "TranscriptFeatures":
        return cls(
            hold_ticks=scenario.hold_ticks,
            noise_sigma=scenario.noise_sigma,
            bucket_width=max(1, scenario.max_ramp_ticks // 8),
        )

    @property
    def tolerance(self) -> float:
        return max(1e-9, 4.0 * self.noise_sigma)

    def __call__(self, transcript: Transcript) -> tuple:
        values = transcript.values()
        return self.columns(values[None, :], np.array([len(values)])).tuples()[0]

    def columns(self, values: np.ndarray, lengths: np.ndarray) -> FeatureColumns:
        """The features of each row of `values`, whose first lengths[i] are run i's readings.

        A stable total is round(math.fsum(tail) / len(tail)), taken from
        one float sum per row of its `width` values, zeros outside the
        tail.  With A the largest magnitude in any row's tail, that mean
        lies within half of `slack` (decoy.mean_slack) of fsum's.  Where
        the float mean lies further than the slack from every half-integer,
        both round to the same integer; elsewhere, and where it is not
        finite, the row takes fsum.  A total must fit in int64.
        """
        width = values.shape[1]
        columns = np.arange(width)
        inside = columns < lengths[:, None]
        tol = self.tolerance
        first_active = _first_true((np.abs(values) > tol) & inside)
        # The flat tail starts after the last jump between neighbours: the first from the end.
        jumps_back = (np.abs(np.diff(values[:, ::-1])) > tol) & inside[:, :0:-1]
        flat_onset = jumps_back.shape[1] - _first_true(jumps_back)
        silent = first_active == width
        stable = ~silent & (lengths - flat_onset >= self.hold_ticks)
        tail = np.where(inside & (columns >= flat_onset[:, None]), values, 0.0)
        means = tail.sum(axis=1) / np.maximum(lengths - flat_onset, 1)
        slack = mean_slack(width, np.abs(tail).max(initial=0.0)) * (1.0 + 2.0**-40)
        near_half = ~(np.abs(means - np.floor(means) - 0.5) > slack)  # and everywhere if NaN
        exact = stable & (near_half | ~np.isfinite(means))
        # Every half is near one, so rint meets no tie; the exact rows' totals follow.
        totals = np.rint(np.where(stable & ~exact, means, 0.0)).astype(np.int64)
        for row in np.flatnonzero(exact).tolist():
            tail_values = values[row, flat_onset[row] : lengths[row]].tolist()
            totals[row] = round(math.fsum(tail_values) / len(tail_values))
        # UNSTABLE, less one where silent and one more where empty too (an empty row is silent)
        kinds = np.where(stable, STABLE, UNSTABLE - silent - (lengths == 0))
        buckets = np.where(stable, np.maximum(flat_onset - first_active, 0) // self.bucket_width, 0)
        return FeatureColumns(kinds, totals, buckets)


@dataclass
class PosteriorReport:
    """Adversary's inferred distribution over the secret domain."""

    domain: tuple[int, int]
    posterior: dict[int, float]
    max_prob: float
    mi_bits: float
    samples_used: int
    matched_samples: int  # the samples in the domain whose feature matches the observed one
    observed_feature: tuple
    notes: tuple[str, ...] = ()

    def check_invariants(self) -> None:
        total = math.fsum(self.posterior.values())
        assert abs(total - 1.0) <= 1e-9
        assert abs(self.max_prob - max(self.posterior.values())) <= 1e-12


def estimate_posterior(
    samples: TranscriptSamples,
    observed: Transcript,
    features: TranscriptFeatures,
    domain: tuple[int, int],
    min_per_class: int = MIN_PER_CLASS,
) -> PosteriorReport:
    """Empirical Bayes over simulated transcripts, uniform prior on the domain.

    posterior(s) is proportional to the number of sample transcripts with
    secret s whose feature vector matches the observed one; a sample
    outside the domain matches none.  The sample set must cover every
    domain value at least min_per_class times.  It
    counts on the samples' secret column and their features' columns
    (TranscriptSamples.feature_columns), in the order Counter would.
    """
    _check_classes(samples, domain, min_per_class)
    values = observed.values()
    seen = features.columns(values[None, :], np.array([len(values)]))
    return _posterior(samples, samples.feature_columns(features), seen, domain)


def estimate_own_run_posterior(
    samples: TranscriptSamples, features: TranscriptFeatures, domain: tuple[int, int]
) -> PosteriorReport:
    """estimate_posterior(samples, run_scenario(samples.scenario).transcript, features, domain).

    The scenario's own run is row 0 of the kernel passes of samples as
    collect_transmission_samples gives them (seeds seed + 1 + i), and
    reads there as it does alone.
    """
    _check_classes(samples, domain, MIN_PER_CLASS)
    scenario, runs, seed = samples.scenario, samples.runs, int(samples.scenario.seed)
    own = scenario.party_secrets
    secrets = np.concatenate(([own[SENDER]], runs.secrets))
    keys = np.concatenate(([own.get(RECEIVER, 0)], runs.keys))
    batch = TranscriptSamples(scenario, Runs(range(seed, seed + 1 + len(samples)), secrets, keys))
    columns = batch.feature_columns(features)
    seen = FeatureColumns._make(c[:1] for c in columns)
    return _posterior(samples, FeatureColumns._make(c[1:] for c in columns), seen, domain)


def _check_classes(samples: TranscriptSamples, domain: tuple[int, int], min_per_class: int):
    """Raise InsufficientSamples naming the first secret of `domain` with too few samples."""
    n1, n2 = domain
    codes = np.asarray(samples.runs.secrets, dtype=np.int64) - n1
    # Codes run 0, 1, 2, ... in `present` up to the first with no sample, where the check stops.
    present, counts = np.unique(codes[(codes >= 0) & (codes <= n2 - n1)], return_counts=True)
    gap = int(_first_true((present != np.arange(len(present)))[None, :])[0])
    for secret, count in zip(range(n1, n2 + 1), [*counts[:gap].tolist(), 0]):
        if count < min_per_class:
            raise InsufficientSamples(
                f"need >= {min_per_class} samples for every secret in "
                f"[{n1}, {n2}]; secret {secret} has {count}"
            )


def _posterior(samples, columns: FeatureColumns, seen: FeatureColumns, domain) -> PosteriorReport:
    """The report on the samples' feature columns and the observed feature, `seen`'s one row."""
    n1, n2 = domain
    size = n2 - n1 + 1
    secrets = np.asarray(samples.runs.secrets, dtype=np.int64)
    codes = secrets - n1
    in_domain = (codes >= 0) & (codes < size)
    match = in_domain & np.logical_and.reduce([c == own for c, own in zip(columns, seen)])
    total_matched = int(np.count_nonzero(match))
    notes: tuple[str, ...] = ()
    if total_matched:
        matched = np.bincount(codes[match], minlength=size).tolist()
        posterior = {s: count / total_matched for s, count in zip(range(n1, n2 + 1), matched)}
    else:
        # Never-seen feature: the sample set says nothing, fall back to the prior.
        posterior = {secret: 1.0 / size for secret in range(n1, n2 + 1)}
        notes = ("observed feature never seen in the sample set; prior returned",)

    # One int64 key per feature, packed from the totals' ranks (no overflow), the bucket and kind.
    totals = np.unique(columns.total, return_inverse=True)[1]
    keys = (totals * (columns.bucket.max(initial=0) + 1) + columns.bucket) * 4 + columns.kind
    counts_s, ranks_s = _counts_in_order(secrets)
    counts_t, ranks_t = _counts_in_order(keys)
    counts_st, _ = _counts_in_order(ranks_t * len(counts_s) + ranks_s)
    report = PosteriorReport(
        domain=domain,
        posterior=posterior,
        max_prob=max(posterior.values()),
        mi_bits=_mutual_information(len(secrets), (counts_s, counts_t, counts_st), MIN_MI_SAMPLES),
        samples_used=len(samples),
        matched_samples=total_matched,
        observed_feature=seen.tuples()[0],
        notes=notes,
    )
    report.check_invariants()
    return report


class TranscriptSamples:
    """The (secret, Transcript) pairs of simulated runs, each run computed when it is read.

    Iterating runs the samples through the kernel a batch at a time
    (adversary_runs); each transcript is the one run_scenario gives
    for that sample's scenario.  `feature_columns` computes every sample's
    features in one array pass per batch and builds no transcript.
    Nothing is kept but the samples' columns of seeds, secrets and keys,
    so memory does not grow with their transcripts.
    """

    def __init__(self, scenario: Scenario, runs: Runs):
        self.scenario = scenario
        self.runs = runs

    def __len__(self) -> int:
        return len(self.runs.seeds)

    def __iter__(self) -> Iterator[tuple[int, Transcript]]:
        secrets = iter(np.asarray(self.runs.secrets).tolist())
        for batch in adversary_runs(self.scenario, self.runs):
            for row in range(len(batch)):
                yield next(secrets), batch.transcript(row)
            del batch  # free each pass before the next one runs

    def feature_columns(self, features: TranscriptFeatures) -> FeatureColumns:
        """features.columns of every sample, in order: .tuples() gives each features(transcript)."""
        found = [FeatureColumns(*[np.zeros(0, np.int64)] * 3)]
        for batch in adversary_runs(self.scenario, self.runs):
            found.append(features.columns(batch.readings, batch.lengths))
            del batch  # free each pass before the next one runs
        return FeatureColumns._make(map(np.concatenate, zip(*found)))


def collect_transmission_samples(scenario: Scenario, n_samples: int) -> TranscriptSamples:
    """Simulate n_samples runs with secrets drawn uniformly over the domain.

    The per-run seeds rise by one from the base seed + 1, by
    engine.seed_spans' rule; the secret/key draws come from a dedicated
    sampler stream so they never interact with in-run randomness.
    Timeouts and corrupted recoveries still contribute their transcripts
    (the adversary sees those runs too).  The draws and every check happen
    here; the runs themselves go through the kernel together, when the
    samples are read (see TranscriptSamples).
    """
    n1, n2 = scenario.secret_domain
    # Each sample's secret, then its key, drawn in one call.
    draws = RngStream(scenario.seed, STREAM_SAMPLER).integers(n1, n2, 2 * n_samples)
    seeds = range(0)
    if n_samples:
        secrets = {SENDER: int(draws[0]), RECEIVER: int(draws[1])}
        first = dataclasses.replace(scenario, seed=int(scenario.seed) + 1, party_secrets=secrets)
        check_transmission(first)
        spans = list(seed_spans(first, n_samples))
        seeds = range(first.seed, spans[-1].stop)
    return TranscriptSamples(scenario, Runs(seeds, draws[0::2], draws[1::2]))


# --- active attacks ---------------------------------------------------------


@dataclass
class AttackOutcome:
    """What an active adversary achieved, and what it cost the protocol."""

    kind: str
    transcript: Transcript
    disrupted: bool
    adversary_learned: bool
    adversary_recovered: Optional[int]
    receiver_recovered: Optional[int]
    receiver_error: Optional[str]
    timeout: bool
    forged_announce_tick: Optional[int] = None


# The force a jammer adds unless told otherwise.
JAM_VALUE = -2.0

# How the receiver's failed run reads in an attack report.
_RECEIVER_ERRORS = {OUT_OF_DOMAIN: "out_of_domain", TIMEOUT: "protocol_timeout"}


def adversary_runs(scenario: Scenario, runs: Runs) -> Iterator[RunBatch]:
    """decoy.simulate_runs with the adversary's default action: the one place that picks it.

    A jammer adds JAM_VALUE; an impersonator stays silent.
    """
    jam_value = JAM_VALUE if scenario.adversary is AdversaryKind.JAMMER else None
    return simulate_runs(scenario, runs, jam_value)


class _JammerActor:
    """A jammer, one tick at a time: once the public total goes flat, it leans on the medium.

    The per-tick view of what `simulate_transmission` computes from the
    jam value; nothing in the package steps it.
    """

    def __init__(self, jam_value: float, scenario: Scenario):
        self.jam_value = float(jam_value)
        self.watch_hold = max(1, scenario.hold_ticks // 2)
        self.epsilon = scenario.epsilon_stab
        self.arm_level = scenario.n1 - 0.5
        self.window: list[float] = []
        self.armed = False
        self.jammed = False

    def on_tick(self, tick: int, channel, transcript) -> None:
        if self.armed and not self.jammed:
            channel.set_contribution(ADVERSARY, self.jam_value)
            self.jammed = True

    def on_reading(self, tick: int, reading: float) -> None:
        if self.armed:
            return
        self.window.append(reading)
        level = detect_stabilization(self.window, self.epsilon, self.watch_hold)
        self.armed = level is not None and level >= self.arm_level


class _ImpersonatorActor:
    """An impersonator, one tick at a time: stays silent, or forges the announcement.

    The per-tick view of what `simulate_transmission` computes from the
    forger key: `tick` is the forged announcement's (None for a silent
    impersonator) and `ramp` the forger's own, if any.  Nothing in the
    package steps it.
    """

    def __init__(self, scenario: Scenario, tick: Optional[int], ramp: Optional[RampProcess]):
        self.scenario = scenario
        self.ramp = ramp
        self.announce_tick = tick
        self.window: list[float] = []
        self.recovered: Optional[int] = None

    def on_tick(self, tick: int, channel, transcript) -> None:
        if tick == self.announce_tick:
            transcript.announce(tick, IN_BUSINESS)
        if self.ramp is not None and tick >= self.announce_tick:
            channel.set_contribution(ADVERSARY, self.ramp.value_at(tick))

    def on_reading(self, tick: int, reading: float) -> None:
        own = self.ramp.value_at(tick) if self.ramp is not None else 0.0
        self.window.append(reading - own)
        if self.recovered is not None:
            return
        scenario = self.scenario
        estimate = detect_stabilization(
            self.window, scenario.epsilon_stab, scenario.hold_ticks
        )
        if estimate is not None and estimate >= scenario.n1 - 0.5:
            try:
                self.recovered = recover_secret(
                    estimate + own, own, scenario.secret_domain, scenario.noise_sigma
                )
            except OutOfDomain:
                pass


def attack_jam(scenario: Scenario, jam_value: float = JAM_VALUE) -> AttackOutcome:
    """Active interference: add a constant force once the total stabilizes.

    The receiver either recovers a wrong value or rejects the transmission
    outright; either way the jammer learns nothing about the secret it did
    not already know from passive observation.
    """
    if scenario.adversary is not AdversaryKind.JAMMER:
        raise InvalidScenario("attack_jam needs scenario.adversary = jammer")
    return _attack(scenario, jam_value=float(jam_value))


def attack_impersonate(
    scenario: Scenario,
    forge_announcement: bool = False,
    adversary_key: float = 4.0,
) -> AttackOutcome:
    """Take the receiver's place and try to read the sender's secret.

    Against a naive sender (defense off) the silent impersonator reads the
    stable total, which *is* the secret.  With the defense on, the sender
    refuses to move until she sees the in-business announcement, so a
    silent adversary gets nothing and the run times out.  Forging the
    announcement re-enables the read (minus the adversary's own known
    contribution): the defense assumes the announcement is authentic.  A
    forger whose key is > 0 also ramps to it; any other key forges alone.
    """
    if scenario.adversary is not AdversaryKind.IMPERSONATOR:
        raise InvalidScenario("attack_impersonate needs scenario.adversary = impersonator")
    return _attack(scenario, forger_key=float(adversary_key) if forge_announcement else None)


def _attack(scenario: Scenario, jam_value=None, forger_key=None) -> AttackOutcome:
    """The scenario's own run under its adversary's action, as row 0 of a kernel pass of one."""
    check_transmission(scenario, jam_value, forger_key)
    [batch] = simulate_runs(scenario, Runs.of(scenario), jam_value, forger_key)
    return attack_result(batch, 0)


def attack_columns(batch: RunBatch) -> dict[str, list]:
    """Every AttackOutcome field but the transcript, by name, as a column over the batch's runs.

    The flags are the outcome table's, computed in the kernel pass for its
    jam value or forger key.  An impersonator leaves no receiver to detect
    stabilization, so its runs are disrupted and time out; what it read
    is the question.  Every value is a Python one, never a numpy scalar.
    """
    table, jam = batch.table, batch.scenario.adversary is AdversaryKind.JAMMER
    return {
        "kind": ["jam" if jam else "impersonate"] * len(batch),
        "disrupted": table.disrupted.tolist(),
        "adversary_learned": table.adversary_learned.tolist(),
        "adversary_recovered": present(table.adversary_recovered),
        "receiver_recovered": present(table.recovered),
        "receiver_error": list(map(_RECEIVER_ERRORS.get, table.status.tolist())),
        "timeout": table.timeout.tolist(),
        "forged_announce_tick": [None] * len(batch) if jam else present(table.announce),
    }


def attack_result(batch: RunBatch, row: int) -> AttackOutcome:
    """What the active adversary did in run `row` of kernel pass `batch`: attack_columns' row."""
    fields = {name: column[row] for name, column in attack_columns(batch).items()}
    return AttackOutcome(transcript=batch.transcript(row), **fields)


# --- auditor ----------------------------------------------------------------


class LeakageFinding(NamedTuple):
    """One quantity the public record gives away beyond the comparison bit."""

    protocol: str
    quantity: str
    value: object
    description: str
    exceeds_comparison_bit: bool


# The auditor's protocol tags and tie, read once rather than through the enums on every call.
_EQUAL = Ordering.EQUAL
_VESSELS = Protocol.VESSELS.value
_ELEVATOR = Protocol.ELEVATOR.value
_RACE = Protocol.RACE.value
_RACE_BITSTRING = Protocol.RACE_BITSTRING.value


def audit_comparison(
    outcome: ComparisonOutcome, protocol: Protocol | str, dt: float = 1.0
) -> list[LeakageFinding]:
    """Inspect a comparison's public observables for over-leakage.

    The auditor sees exactly what a bystander in public space sees: door
    events, the mark's timing, the bit string, the level series.  It never
    reads the parties' numbers; everything below is reconstructed from the
    observables alone.
    """
    tag = protocol.value if isinstance(protocol, Protocol) else str(protocol)
    findings: list[LeakageFinding] = []

    if tag == _VESSELS:
        levels = outcome.levels
        if len(levels) >= 2:
            slope = math.fsum(np.diff(levels)) / (len(levels) - 1)
            findings.append(
                LeakageFinding(
                    protocol=tag,
                    quantity="b-a",
                    value=slope,
                    description=f"difference leaked: b-a = {slope:g} "
                    "(per-tick drift of the public level series)",
                    exceeds_comparison_bit=True,
                )
            )
        return findings
    observables = outcome.public_observables
    if tag == _ELEVATOR:
        doors = [event for event in observables if event.label == "doors_open"]
        findings.append(
            LeakageFinding(
                protocol=tag,
                quantity="b",
                value=len(doors) + 1,
                description=f"descending party's number leaked: b = {len(doors) + 1} "
                "(one door event per floor below the boarding floor)",
                exceeds_comparison_bit=True,
            )
        )
    elif tag == _RACE:
        marks = [event for event in observables if event.label == "mark"]
        if marks:
            mark_tick = marks[0].tick
            half = float(marks[0].value)
            upper: Optional[float]
            lower = half / (mark_tick * dt)
            upper = half / ((mark_tick - 1) * dt) if mark_tick > 1 else None
            lo_int = math.ceil(lower - 1e-12)
            hi_int = math.floor((upper - 1e-12)) if upper is not None else None
            exact = hi_int is not None and lo_int == hi_int
            findings.append(
                LeakageFinding(
                    protocol=tag,
                    quantity="max(a,b)",
                    value=lo_int if exact else (lo_int, hi_int),
                    description=(
                        f"mark appeared at tick {mark_tick}: the faster speed is "
                        + (f"exactly {lo_int}" if exact else f"in [{lo_int}, {hi_int}]")
                    ),
                    exceeds_comparison_bit=True,
                )
            )
    elif tag == _RACE_BITSTRING:
        finals = [event for event in observables if event.label == "final_string"]
        if finals:
            text = finals[0].value
            left = len(text) - len(text.lstrip("0X"))
            right = len(text) - len(text.rstrip("0X"))
            half = len(text) // 2
            slower = min(left, right)
            findings.append(
                LeakageFinding(
                    protocol=tag,
                    quantity="progress(a, b)",
                    value=(left, right),
                    description=(
                        f"string shows per-party progress {left}/{right} of {half}: "
                        "the slower-to-faster period ratio lies in "
                        f"[{half}/{slower + 1}, {half}/{max(slower, 1)}]"
                        if slower < half
                        else "both programs finished together"
                    ),
                    exceeds_comparison_bit=True,
                )
            )
    elif tag == "digitwise":
        for event in observables:
            if event.label == "subprotocol_invocations":
                invocations = int(event.value)
                rounds = invocations // 2
                findings.append(LeakageFinding(
                    tag,
                    "common_prefix_rounds",
                    rounds,
                    f"{invocations} sub-protocol invocations reveal that the "
                    f"numbers agree on the first {rounds - 1} digits"
                    if outcome.ordering is not _EQUAL
                    else f"{invocations} invocations: all digits compared equal",
                    invocations > 2,
                ))
                break
    return findings
