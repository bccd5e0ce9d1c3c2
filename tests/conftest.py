"""Shared test plumbing: the acceptance tests record one verdict per
criterion here, and the terminal summary prints them as stable
"criterion NN <name>: PASS|FAIL" lines; count_calls counts the calls of
one function.  Hypothesis draws the same examples on every run: a test
without its own @seed seeds them from a hash of the test function.  No
STLISP_* variable of the caller's environment reaches a test, and an
Interp built without a cap gets TEST_CAP."""

import os

import pytest
from hypothesis import settings

from stlisp import kernel

settings.register_profile("tier1", derandomize=True, database=None,
                          deadline=None)
settings.load_profile("tier1")

CRITERIA_RESULTS = {}

# Native DO iterations before CapExceeded in the tests.  The longest
# native loop here runs 10,001 iterations (test_checks.py's deep values);
# a broken builtin that keeps a loop from exiting then fails its test
# within this cap, not after the 10,000,000 of kernel.DEFAULT_CAP.  The
# CLI still defaults to DEFAULT_CAP.
TEST_CAP = 100_000


@pytest.fixture(autouse=True)
def clean_env(monkeypatch):
    for k in list(os.environ):
        if k.startswith("STLISP_"):
            monkeypatch.delenv(k)


@pytest.fixture(autouse=True)
def lower_cap(monkeypatch):
    monkeypatch.setattr(kernel, "DEFAULT_CAP", TEST_CAP)


def record_criterion(number, name, verdict):
    CRITERIA_RESULTS[number] = (name, verdict)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not CRITERIA_RESULTS:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for number in sorted(CRITERIA_RESULTS):
        name, verdict = CRITERIA_RESULTS[number]
        terminalreporter.write_line(
            "criterion %02d %s: %s" % (number, name, verdict))


def count_calls(monkeypatch, owner, name):
    """The argument tuples of every call of owner.name from now on."""
    calls = []
    real = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)
    monkeypatch.setattr(owner, name, counted)
    return calls
