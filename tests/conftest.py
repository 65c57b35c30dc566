"""Shared pytest wiring.

Collects the results of the acceptance tests and prints one pass/fail line
per criterion at the end of the run, so the gate is readable even when the
individual test output is folded away. Provides the compiled kernels to the
backend-equivalence tests.
"""

from __future__ import annotations

import re

import pytest
from kernel_build import build_compiled

_acceptance: dict[str, str] = {}


@pytest.fixture(scope="session")
def compiled_kernels(tmp_path_factory):
    """The compiled kernels: the tree's own library when it is built, else
    one that ``setup.py`` builds into a temporary directory. A failed build
    fails every test that asks for them."""
    try:
        from powersplit._kernels import _compiled
        return _compiled
    except ImportError:
        pass
    try:
        return build_compiled(tmp_path_factory.mktemp("kernels"))
    except RuntimeError as exc:
        pytest.fail(str(exc), pytrace=False)


def pytest_runtest_logreport(report):
    if "test_acceptance" not in report.nodeid or report.when != "call":
        return
    m = re.search(r"test_criterion_(\d+)", report.nodeid)
    if m:
        _acceptance[m.group(1)] = "PASS" if report.passed else "FAIL"


def pytest_terminal_summary(terminalreporter):
    if not _acceptance:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for num in sorted(_acceptance):
        terminalreporter.write_line(f"criterion {num}: {_acceptance[num]}")
