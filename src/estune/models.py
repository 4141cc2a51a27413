"""Session-level data model shared by the tuning loop and the store."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from .es import ConfigurationError, EsRunResult, EsTemplate, ObjectiveSpec
from .llm import LlmExchange

__all__ = [
    "EmptySessionError",
    "STATUS_ABORTED",
    "STATUS_COMPLETED",
    "STATUS_RUNNING",
    "SessionConfig",
    "Trial",
    "TuningSession",
]

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
    extras: dict[str, Any] = field(default_factory=dict)


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
        if self.replicates < 1:
            raise ConfigurationError("replicates must be >= 1")
        if self.budget < 1:
            raise ConfigurationError("budget must be >= 1")
        if not (0 <= self.master_seed < (1 << 64)):
            raise ConfigurationError("master_seed must be an unsigned 64-bit integer")
        if not (self.duplicate_tolerance > 0):
            raise ConfigurationError("duplicate_tolerance must be > 0")
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
    extras: dict[str, Any] = field(default_factory=dict)

    @property
    def exchanges(self) -> list[LlmExchange]:
        """Every exchange of the session, in call order."""
        return [e for trial in self.trials for e in trial.exchanges] + self.pending_exchanges
