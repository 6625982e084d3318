import os
import sys

import pytest
from hypothesis import HealthCheck, settings

sys.path.insert(0, os.path.dirname(__file__))

settings.register_profile(
    "default",
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.register_profile("thorough", parent=settings.get_profile("default"),
                          max_examples=400)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


@pytest.fixture()
def forced_pool(monkeypatch, tmp_path):
    """Cut every simulation into jobs of one block each, so that one of two
    or more blocks runs on forked workers when the thread cap allows. Gives
    a function that returns the ids of the other processes that have made a
    record of runs so far."""
    import ratio_ci.montecarlo as mc

    monkeypatch.setattr(mc, "_JOB_SECONDS", 1e-12)
    log = tmp_path / "record-pids"
    log.touch()
    piece_record = mc._piece_record

    def logged(*args):
        with open(log, "a") as f:
            f.write(f"{os.getpid()}\n")
        return piece_record(*args)

    monkeypatch.setattr(mc, "_piece_record", logged)
    return lambda: set(map(int, log.read_text().split())) - {os.getpid()}
