"""Shared pytest glue: Hypothesis profiles, acceptance verdict collection and terminal reporting."""

import functools

from hypothesis import settings

# Tier-1 runs draw the same examples every time, so two runs on one tree agree.
# `--hypothesis-profile=explore` draws fresh examples instead. This module loads
# before the test modules build their settings objects, which inherit from the
# loaded profile; per-test max_examples are unchanged by either profile.
settings.register_profile("repeatable", derandomize=True)
settings.register_profile("explore", derandomize=False)
settings.load_profile("repeatable")

ACCEPTANCE_RESULTS = {}


def record_criterion(number, label, passed):
    ACCEPTANCE_RESULTS[number] = ("PASS" if passed else "FAIL", label)


def criterion(number, label):
    """Record a PASS/FAIL verdict for one acceptance criterion test."""

    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                record_criterion(number, label, False)
                raise
            record_criterion(number, label, True)
            return result

        return wrapper

    return decorate


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for number in sorted(ACCEPTANCE_RESULTS):
        verdict, label = ACCEPTANCE_RESULTS[number]
        terminalreporter.write_line(f"criterion {number} ({label}): {verdict}")
