"""Suite-wide fixtures."""

import os

import pytest


@pytest.fixture(autouse=True)
def no_unreaped_children():
    """Fail a test that leaves a child process unreaped (running or a
    zombie); the children found are reaped so the next test starts clean."""
    yield
    leaked = []
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            break
        if pid == 0:  # still running: wait for one to exit
            pid, _ = os.waitpid(-1, 0)
        leaked.append(pid)
    if leaked:
        pytest.fail(f"test left child processes unreaped: {leaked}")
