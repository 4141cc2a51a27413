import warnings
from pathlib import Path

import pytest

# On a failing example hypothesis's pytest plugin imports its patch writer,
# whose libcst import raises mypy_extensions' DeprecationWarning; under
# filterwarnings = ["error"] that turned the failure into an INTERNALERROR
# that stopped the run.  Importing it here, warnings silenced, leaves it
# cached for the plugin.  Without libcst there is nothing to pre-import.
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:
        pass

from estune import EsTemplate, ObjectiveSpec, SessionConfig

FIXTURES = Path(__file__).parent / "fixtures"


@pytest.fixture(autouse=True)
def _clean_environment(monkeypatch):
    for var in ("ESTUNE_ENDPOINT", "ESTUNE_MODEL", "ESTUNE_CONFIG", "ESTUNE_TOKEN"):
        monkeypatch.delenv(var, raising=False)


@pytest.fixture
def fast_cfg():
    """Small, quick setting for structural tests."""
    return SessionConfig(
        objective=ObjectiveSpec("sphere", 3),
        es_template=EsTemplate(sigma0=1.0, dimension=3, max_generations=30),
        master_seed=99,
        replicates=3,
        budget=4,
    )


@pytest.fixture
def paper_cfg():
    """The reference experiment: 5-D sphere, 1000 generations, 10 replicates."""
    return SessionConfig(
        objective=ObjectiveSpec("sphere", 5),
        es_template=EsTemplate(sigma0=1.0, dimension=5, max_generations=1000),
        master_seed=7,
        replicates=10,
        budget=2,
    )


@pytest.fixture
def run_cli():
    """Invoke the CLI in-process, normalizing SystemExit to an exit code."""
    from estune.cli import main

    def _run(argv):
        try:
            return main(argv)
        except SystemExit as exc:
            return int(exc.code or 0)

    return _run
