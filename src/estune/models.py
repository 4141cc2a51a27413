"""Session-level data model shared by the tuning loop and the store."""

from __future__ import annotations

from dataclasses import dataclass, field

from .es import TAU_MAX, ConfigurationError, EsRunResult, EsTemplate, ObjectiveSpec
from .llm import LlmExchange

__all__ = [
    "EmptySessionError",
    "MAX_REPLICATES",
    "STATUS_ABORTED",
    "STATUS_COMPLETED",
    "STATUS_RUNNING",
    "SessionConfig",
    "Trial",
    "TuningSession",
]

# Largest accepted replicate count.  A trial is one kernel batch of
# ``replicates`` rows, so its buffers take at most about 200 MB at MAX_DIMENSION.
MAX_REPLICATES = 100

STATUS_RUNNING = "running"
STATUS_COMPLETED = "completed"
STATUS_ABORTED = "aborted"


class EmptySessionError(ValueError):
    """A session with no trials was asked for trial-derived data."""


@dataclass
class Trial:
    """One tau value with its replicate results, statistics and proposing exchanges."""

    tau: float
    results: list[EsRunResult]
    mean_score: float
    std_score: float
    exchanges: list[LlmExchange] = field(default_factory=list)


@dataclass(frozen=True)
class SessionConfig:
    """Experiment protocol for one tuning session."""

    objective: ObjectiveSpec
    es_template: EsTemplate
    master_seed: int
    replicates: int = 10
    budget: int = 12
    duplicate_tolerance: float = 1e-9
    max_propose_retries: int = 2
    log_std: bool = True

    def __post_init__(self) -> None:
        if not (1 <= self.replicates <= MAX_REPLICATES):
            raise ConfigurationError(f"replicates must be >= 1 and <= {MAX_REPLICATES}")
        if self.budget < 1:
            raise ConfigurationError("budget must be >= 1")
        if not (0 <= self.master_seed < (1 << 64)):
            raise ConfigurationError("master_seed must be an unsigned 64-bit integer")
        # At TAU_MAX or above every admissible tau duplicates the first trial.
        if not (0 < self.duplicate_tolerance < TAU_MAX):
            raise ConfigurationError(f"duplicate_tolerance must be > 0 and < {TAU_MAX}")
        if self.max_propose_retries < 0:
            raise ConfigurationError("max_propose_retries must be >= 0")
        if self.objective.dimension != self.es_template.dimension:
            raise ConfigurationError(
                f"objective dimension {self.objective.dimension} != "
                f"template dimension {self.es_template.dimension}"
            )


@dataclass
class TuningSession:
    """Ordered trial history, LLM exchanges, and outcome of one session."""

    config: SessionConfig
    trials: list[Trial] = field(default_factory=list)
    # The exchanges of a proposal that has no trial yet.
    pending_exchanges: list[LlmExchange] = field(default_factory=list)
    status: str = STATUS_RUNNING
    best_tau: float | None = None
    error: str | None = None

    @property
    def exchanges(self) -> list[LlmExchange]:
        """Every exchange of the session, in call order."""
        return [e for trial in self.trials for e in trial.exchanges] + self.pending_exchanges
