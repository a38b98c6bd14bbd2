"""decoysim: deterministic simulator for physics-based secure computation.

Runs the decoy-based secret-transmission protocol and three physical
millionaires'-comparison protocols inside an explicit private/public-space
model, then quantifies what a computationally unbounded passive or active
observer of the public record actually learns.
"""

__version__ = "0.1.0"

from .adversary import (
    AttackOutcome,
    LeakageFinding,
    PosteriorReport,
    SplitSet,
    TranscriptFeatures,
    TranscriptSamples,
    analytic_split_posterior,
    analytic_sum_mi,
    attack_impersonate,
    attack_jam,
    audit_comparison,
    collect_transmission_samples,
    enumerate_splits,
    estimate_mutual_information,
    estimate_posterior,
)
from .channel import ChannelState, Reading
from .config import load_scenario, parse_config_text, scenario_from_fields, scenario_to_text
from .decoy import (
    DecoyOutcome,
    RampProcess,
    detect_stabilization,
    generate_ramp,
    recover_secret,
    run_decoy_transmission,
    simulate_transmission,
)
from .engine import (
    EMPTY_TRANSCRIPT_DIGEST,
    AdversaryKind,
    Announcement,
    Mark,
    Measurement,
    Protocol,
    RampModel,
    RngStream,
    Scenario,
    Transcript,
    replay_digest,
)
from .errors import (
    ConfigError,
    DecoySimError,
    DomainError,
    InsufficientSamples,
    InvalidScenario,
    InvalidTarget,
    NonFiniteValue,
    OutOfDomain,
    VesselEmpty,
    VesselOverflow,
)
from .millionaires import (
    ComparisonOutcome,
    Ordering,
    PublicEvent,
    compare_digitwise,
    compare_elevator,
    compare_race,
    compare_race_bitstring,
    compare_vessels,
)
from .runner import RunOutcome, run_scenario

__all__ = [name for name in dir() if not name.startswith("_")]
