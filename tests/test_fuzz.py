"""Random command lines and damaged session files: every input ends in a
defined outcome, never a traceback."""

import contextlib
import io
import os
import tempfile
from pathlib import Path
from unittest import mock

from hypothesis import example, given, settings
from hypothesis import strategies as st

import estune.llm as llm
from estune.cli import main
from estune.store import (
    _PROMPTS_SHA256, EmptySessionError, SessionFileError, TuningSession, read_session,
)

from conftest import FIXTURES
from oracle import whole_file_read_session

# Files the fuzzed command lines may name, made fresh in each example's
# working directory.
_INPUT_FILES = {
    "script.json": b'["tau = 0.7", "tau = 0.7", "nothing", "tau = 1.1"]',
    "empty.json": b"[]",
    "object.json": b'{"endpoint": "http://127.0.0.1:9"}',
    "ff.json": b"\xff",
    "deep.json": b"[" * 100_000,
    "bad_temperature.json": b'{"temperature": "warm"}',
}
_FILE_VALUES = sorted(_INPUT_FILES) + ["missing.json", ".", ""]

_SIZES = ["-1", "0", "1", "2", "3", "x"]
_FLOATS = ["0", "-1", "0.5", "1", "1.5", "101", "1e308", "nan", "inf", "-inf", "x"]

# Each subcommand's flags, with the values a fuzzed command line may give
# them.  Sizes stay tiny, and an endpoint is always a closed local port.
_ES_FLAGS = {
    "--function": ["sphere", "rosenbrock"],
    "--dim": _SIZES + ["13", "1001"],
    "--generations": _SIZES + ["20"],
    "--sigma0": _FLOATS,
    "--init-low": _FLOATS,
    "--init-high": _FLOATS,
    "--replicates": _SIZES + ["101"],
    "--seed": ["-1", "0", "7", str(1 << 64), "x"],
}
_FLAGS = {
    "tune": {
        **_ES_FLAGS,
        "--budget": _SIZES,
        "--backend": ["http", "scripted", "ftp"],
        "--endpoint": ["http://127.0.0.1:9", "", "not a url"],
        "--model": ["", "m"],
        "--temperature": _FLOATS,
        "--timeout": ["0", "0.2", "86401", "nan", "inf"],
        "--transport-retries": ["-1", "0", "x"],
        "--script": _FILE_VALUES,
        "--duplicate-tolerance": _FLOATS,
        "--max-propose-retries": ["-1", "0", "1", "x"],
        "--config": _FILE_VALUES,
        "--out": ["", ".", "..", "/", "o", "d/o", "o/", "o\x00"],
    },
    "grid": {
        **_ES_FLAGS,
        "--tau-min": _FLOATS,
        "--tau-max": _FLOATS,
        "--steps": _SIZES + ["101"],
        "--out": ["", ".", "..", "/", "g", "d/g", "g/", "g\x00"],
    },
    "run-es": {**_ES_FLAGS, "--tau": _FLOATS},
}
# Tiny settings first: a fuzzed flag given later overrides them.
_BASE = {
    "tune": ["--dim", "2", "--generations", "5", "--replicates", "2", "--budget", "2",
             "--endpoint", "http://127.0.0.1:9", "--timeout", "0.2",
             "--transport-retries", "0"],
    "grid": ["--dim", "2", "--generations", "5", "--replicates", "2", "--steps", "3"],
    "run-es": ["--dim", "2", "--generations", "5", "--replicates", "2", "--tau", "1"],
}

# Stray words: no path separator, dot or leading dash, so one can never
# point an output outside the example's directory.
_WORDS = st.text(
    st.characters(blacklist_categories=("Cs",), blacklist_characters="\x00/.-"), max_size=6
)


@st.composite
def _argv(draw):
    command = draw(st.sampled_from(sorted(_FLAGS)))
    flags = _FLAGS[command]
    item = st.one_of(
        st.sampled_from(sorted(flags)).flatmap(
            lambda flag: st.sampled_from(flags[flag]).map(lambda value: [flag, value])
        ),
        st.sampled_from(sorted(flags) + ["--help"]).map(lambda flag: [flag]),
        _WORDS.map(lambda word: [word]),
    )
    items = draw(st.lists(item, max_size=6))
    return [command] + _BASE[command] + [token for it in items for token in it]


@contextlib.contextmanager
def _example_directory():
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        for name, content in _INPUT_FILES.items():
            Path(tmp, name).write_bytes(content)
        os.chdir(tmp)
        try:
            yield
        finally:
            os.chdir(cwd)


@settings(max_examples=150, deadline=None)
@given(_argv())
# A NUL byte in an output base, which no file name can hold.
@example(["grid"] + _BASE["grid"] + ["--out", "g\x00"])
@example(["tune"] + _BASE["tune"] + ["--backend", "scripted", "--script", "script.json",
                                     "--out", "o\x00"])
def test_every_command_line_exits_0_1_or_2_without_a_traceback(argv):
    out, err = io.StringIO(), io.StringIO()
    with _example_directory(), mock.patch.object(llm, "_sleep", lambda s: None), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse: --help, or a malformed command line
            code = exc.code
    assert code in (0, 1, 2), (argv, code, err.getvalue())
    assert "Traceback" not in err.getvalue()
    if not err.getvalue().startswith("usage: "):  # argparse prints its usage first
        assert err.getvalue().count("\n") <= 1, err.getvalue()


# Both schema versions: version 2 stores prompts by reference, version 1
# literally.
_GOLDEN_SESSIONS = [
    (FIXTURES / f"golden_{status}{version}.session.jsonl").read_bytes()
    for version in ("", "_v2")
    for status in ("completed", "aborted")
]

# (kind, position, byte): positions wrap around the file's length.
_MUTATION = st.tuples(
    st.sampled_from(["replace", "insert", "delete", "truncate"]),
    st.integers(min_value=0, max_value=1 << 16),
    st.sampled_from(b'\x00\n\r "{}[],:.-+0159eE\\\x7f\x80\xc3\xff'),
)


def _mutate(data: bytes, mutations) -> bytes:
    for kind, position, byte in mutations:
        at = position % (len(data) + 1)
        if kind == "replace" and at < len(data):
            data = data[:at] + bytes([byte]) + data[at + 1:]
        elif kind == "insert":
            data = data[:at] + bytes([byte]) + data[at:]
        elif kind == "delete":
            data = data[:at] + data[at + 1:]
        elif kind == "truncate":
            data = data[:at]
    return data


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(_GOLDEN_SESSIONS), st.lists(_MUTATION, min_size=1, max_size=8))
def test_damaged_session_file_reads_or_raises_a_session_error(golden, mutations):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "damaged.session.jsonl"
        path.write_bytes(_mutate(golden, mutations))
        try:
            session = read_session(path)
        except (SessionFileError, EmptySessionError):  # SchemaVersionError is a SessionFileError
            return
    assert isinstance(session, TuningSession)


def _outcome(reader, path):
    """The session a reader rebuilt, or the error it raised with its line
    and partial session; reprs, so that NaN fields compare equal."""
    try:
        return repr(reader(path))
    except ValueError as exc:  # EmptySessionError and SessionFileError included
        return (type(exc).__name__, str(exc), getattr(exc, "line_number", None),
                repr(getattr(exc, "partial", None)))


_COMPLETED = _GOLDEN_SESSIONS[0]
_COMPLETED_V2 = _GOLDEN_SESSIONS[2]


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(_GOLDEN_SESSIONS), st.lists(_MUTATION, max_size=8))
# Line ends and blank lines the streaming split must treat as the whole-file
# split does: an empty file, blank lines only, a blank first line, a lone CR
# as a line end, CR LF, a torn last line, and a file with no final newline.
@example(b"", [])
@example(b" \n\r\n\t\r", [])
@example(b"\n" + _COMPLETED, [])
@example(_COMPLETED.replace(b"\n", b"\r"), [])
@example(_COMPLETED.replace(b"\n", b"\r\n"), [])
@example(_COMPLETED.replace(b"\n", b"\n\r\n\n"), [])
@example(_COMPLETED[:-30], [])
@example(_COMPLETED.rstrip(b"\n"), [])
@example(_COMPLETED_V2.replace(b"\n", b"\r"), [])
@example(_COMPLETED_V2[:-30], [])
# A reference to the wrong position, and a digest of other templates.
@example(_COMPLETED_V2.replace(b'"prompt_trials":2', b'"prompt_trials":1', 1), [])
@example(_COMPLETED_V2.replace(_PROMPTS_SHA256.encode("ascii"), b"0" * 64), [])
def test_streaming_reader_equals_whole_file_reader(golden, mutations):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "damaged.session.jsonl"
        path.write_bytes(_mutate(golden, mutations))
        assert _outcome(read_session, path) == _outcome(whole_file_read_session, path)
