import pytest
from hypothesis import HealthCheck, settings

from telegate import qsim

settings.register_profile(
    "suite",
    max_examples=60,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


@pytest.fixture
def qubit_cap(monkeypatch):
    """Set the qubit cap for one test: ``qubit_cap(3)`` sets
    TELEGATE_MAX_QUBITS, ``qubit_cap(None)`` removes it, and either
    clears the cap that ``qsim.max_qubits`` keeps, so that its next call
    reads the new value.  The kept cap is cleared again at teardown,
    before monkeypatch restores the variable."""

    def set_cap(value):
        if value is None:
            monkeypatch.delenv("TELEGATE_MAX_QUBITS", raising=False)
        else:
            monkeypatch.setenv("TELEGATE_MAX_QUBITS", str(value))
        qsim.max_qubits.cache_clear()

    yield set_cap
    qsim.max_qubits.cache_clear()


# One pass/fail line per acceptance criterion at the end of the run.
_acceptance: dict[str, str] = {}


def pytest_runtest_logreport(report):
    if "test_acceptance" not in report.nodeid:
        return
    if report.when == "call" or (report.when == "setup" and report.outcome != "passed"):
        _acceptance[report.nodeid] = report.outcome


def pytest_terminal_summary(terminalreporter):
    if not _acceptance:
        return
    terminalreporter.section("acceptance criteria")
    for nodeid in sorted(_acceptance):
        outcome = _acceptance[nodeid]
        word = "PASS" if outcome == "passed" else "FAIL"
        terminalreporter.write_line(f"{word}  {nodeid.split('::')[-1]}")
