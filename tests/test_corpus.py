"""Every corpus program's stdout and exit code under `run` in both
modes, `diff` and `check-constraints`, pinned in corpus_outputs.json.

Each command runs in-process through cli.main with --cap 10000, so the
native runaway in measure_violation.lisp fails in milliseconds rather
than after the default 10M iterations; no other corpus loop comes near
that cap.  After a deliberate change to an output, re-record with

    PYTHONPATH=src python tests/test_corpus.py

and review the diff of corpus_outputs.json.
"""

import io
import json
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from stlisp import cli

HERE = Path(__file__).resolve().parent
CORPUS = HERE.parent / "corpus"
PINS = HERE / "corpus_outputs.json"
COMMANDS = {
    "run --mode logical": ["run", "--mode", "logical"],
    "run --mode native": ["run", "--mode", "native"],
    "diff": ["diff"],
    "check-constraints --trials 200": ["check-constraints", "--trials", "200"],
    "check-constraints --mode native --seed 7 --trials 200": [
        "check-constraints", "--mode", "native", "--seed", "7",
        "--trials", "200"],
}
PROGRAMS = sorted(p.name for p in CORPUS.glob("*.lisp"))


def run(program, command):
    """[exit code, stdout] of one command on one corpus program."""
    out = io.StringIO()
    with redirect_stdout(out):
        code = cli.main(COMMANDS[command] + ["--cap", "10000",
                                             str(CORPUS / program)])
    return [code, out.getvalue()]


def test_every_corpus_program_is_pinned():
    assert sorted(json.loads(PINS.read_text())) == PROGRAMS


@pytest.mark.parametrize("command", COMMANDS)
@pytest.mark.parametrize("program", PROGRAMS)
def test_corpus_output_is_unchanged(program, command):
    assert run(program, command) == json.loads(PINS.read_text())[program][
        command]


if __name__ == "__main__":
    PINS.write_text(json.dumps(
        {p: {c: run(p, c) for c in COMMANDS} for p in PROGRAMS},
        indent=1) + "\n")
