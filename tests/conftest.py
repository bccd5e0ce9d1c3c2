"""Shared test plumbing: the acceptance tests record one verdict per
criterion here, and the terminal summary prints them as stable
"criterion NN <name>: PASS|FAIL" lines; count_calls counts the calls of
one function.  Hypothesis draws the same examples on every run: a test
without its own @seed seeds them from a hash of the test function."""

from hypothesis import settings

settings.register_profile("tier1", derandomize=True, database=None,
                          deadline=None)
settings.load_profile("tier1")

CRITERIA_RESULTS = {}


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
