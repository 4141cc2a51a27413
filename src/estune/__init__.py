"""LLM-in-the-loop tuning of the (1+1)-ES step-size adaptation rate tau."""

from .es import (
    FITNESS_FLOOR,
    TAU_MAX,
    ConfigurationError,
    EsConfig,
    EsRunResult,
    EsTemplate,
    ObjectiveSpec,
    get_objective,
    make_rng,
    mutate,
    register_objective,
    run_batch,
    run_es,
    score_of,
    sphere_eval,
    update_sigma,
)
from .llm import (
    ExtractionError,
    HttpBackend,
    LlmBackendConfig,
    LlmExchange,
    PromptPair,
    ScriptedBackend,
    TransportError,
    extract_tau,
    make_backend,
    render_analysis_prompt,
    render_tune_prompt,
)
from .loop import (
    best_of,
    best_trial,
    derive_seed,
    is_duplicate,
    propose_next_tau,
    run_session,
    run_trial,
    run_trials,
)
from .models import (
    EmptySessionError,
    SessionConfig,
    Trial,
    TuningSession,
)
from .report import GridSpec, emit_csv, emit_plot, grid_values, run_grid
from .store import (
    SchemaVersionError,
    SessionFileError,
    append_log_line,
    format_log_line,
    format_number,
    read_session,
    render_log,
    trial_stats,
    write_session,
)

__version__ = "0.1.0"
