"""Shared fixtures, hypothesis configuration, and the test watchdog."""

from __future__ import annotations

import signal
import threading

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from repro.hardware import brisbane_linear_segment, linear_backend

# Keep property-based tests fast but meaningful.
settings.register_profile(
    "repro",
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("repro")


# -- per-test watchdog -----------------------------------------------------------------
#
# The threaded EncodingService backend means a scheduling bug now fails
# as a *deadlock* (a ticket wait or a drain that never returns), which
# would hang CI for its whole job timeout.  This is a dependency-free
# stand-in for pytest-timeout: SIGALRM interrupts the main thread even
# inside lock/event waits (CPython makes those interruptible), so a
# wedged test dies with a traceback pointing at the blocked wait.
# Override the generous default with ``@pytest.mark.timeout(seconds)``
# — the concurrency suite pins itself far lower.

DEFAULT_TEST_TIMEOUT = 600.0


class WatchdogTimeout(Exception):
    """A test exceeded its watchdog budget (likely a deadlocked wait)."""


def pytest_configure(config):
    # numpy reports non-finite arithmetic (a NaN angle reaching a bind,
    # an overflow in an objective) as a RuntimeWarning; fail the test
    # instead of letting the bad value through with a warning.
    config.addinivalue_line("filterwarnings", "error::RuntimeWarning")
    config.addinivalue_line(
        "markers",
        "timeout(seconds): fail the test if it runs longer than this "
        "(conftest watchdog; SIGALRM-based, main thread only)",
    )
    config.addinivalue_line(
        "markers",
        "stress: long-running soak tests (excluded from tier-1; run "
        "with `pytest -m stress` in the dedicated CI job)",
    )
    config.addinivalue_line(
        "markers",
        "process_backend: tests that spawn worker-process fleets "
        "(slow interpreter startup; grouped so CI can run them as "
        "their own job with an extended watchdog)",
    )


def pytest_collection_modifyitems(config, items):
    """Keep stress soaks out of default runs unless asked for by -m."""
    if config.getoption("-m"):
        return
    skip = pytest.mark.skip(
        reason="stress soak; run explicitly with -m stress"
    )
    for item in items:
        if item.get_closest_marker("stress"):
            item.add_marker(skip)


@pytest.hookimpl(wrapper=True)
def pytest_runtest_call(item):
    marker = item.get_closest_marker("timeout")
    seconds = float(marker.args[0]) if marker else DEFAULT_TEST_TIMEOUT
    if (
        not hasattr(signal, "SIGALRM")
        or threading.current_thread() is not threading.main_thread()
    ):
        return (yield)  # no reliable alarm here; rely on the CI job timeout

    def _expired(signum, frame):
        raise WatchdogTimeout(
            f"{item.nodeid} exceeded the {seconds:.0f}s watchdog — "
            "a thread wait is probably deadlocked"
        )

    previous = signal.signal(signal.SIGALRM, _expired)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        return (yield)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture()
def watchdog_extend():
    """Re-arm the per-test watchdog phase by phase.

    Long multi-phase tests (the stress soaks) call
    ``watchdog_extend(seconds)`` at each phase boundary instead of
    claiming one huge up-front budget — a phase that wedges still dies
    within *its* allowance.  No-op where SIGALRM is unavailable or the
    test runs off the main thread (matching the watchdog itself).
    """

    def extend(seconds: float) -> None:
        if (
            not hasattr(signal, "SIGALRM")
            or threading.current_thread() is not threading.main_thread()
        ):
            return
        signal.setitimer(signal.ITIMER_REAL, float(seconds))

    return extend


@pytest.fixture(scope="session")
def segment8():
    """The paper's experimental target: an 8-qubit brisbane line."""
    return brisbane_linear_segment(8)


@pytest.fixture(scope="session")
def segment4():
    return brisbane_linear_segment(4)


@pytest.fixture(scope="session")
def line4():
    """A standalone 4-qubit chain backend (fast transpile tests)."""
    return linear_backend(4)


@pytest.fixture(scope="session")
def mnist_small():
    """A small synthetic-MNIST embedding dataset (session-cached)."""
    from repro.data import load_dataset

    return load_dataset("mnist", samples_per_class=60, seed=0)


@pytest.fixture()
def rng():
    return np.random.default_rng(1234)


def random_circuit(num_qubits: int, depth: int, seed: int):
    """A random circuit over the full gate vocabulary (test helper)."""
    from repro.quantum import QuantumCircuit

    rng = np.random.default_rng(seed)
    qc = QuantumCircuit(num_qubits)
    one_qubit = ["h", "x", "sx", "s", "t", "sdg", "y", "z"]
    for _ in range(depth):
        kind = rng.integers(0, 4)
        q = int(rng.integers(0, num_qubits))
        if kind == 0:
            getattr(qc, one_qubit[rng.integers(len(one_qubit))])(q)
        elif kind == 1:
            getattr(qc, ["rx", "ry", "rz"][rng.integers(3)])(
                float(rng.uniform(-np.pi, np.pi)), q
            )
        else:
            other = int((q + 1 + rng.integers(num_qubits - 1)) % num_qubits)
            name = ["cx", "cy", "cz", "swap", "cp", "crz", "cry"][
                rng.integers(7)
            ]
            if name in ("cp", "crz", "cry"):
                getattr(qc, name)(float(rng.uniform(-np.pi, np.pi)), q, other)
            else:
                getattr(qc, name)(q, other)
    return qc
