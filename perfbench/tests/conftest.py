import json
import os
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]


@pytest.fixture(scope="session")
def expected():
    with open(os.path.join(ROOT, "perfbench", "expected.json")) as fh:
        return json.load(fh)


@pytest.fixture
def rec():
    from perfbench import trace, workloads
    workloads.setup_imports()
    recorder = trace.Recorder()
    patches = trace.Patches(recorder, trace.PROBES)
    yield recorder
    patches.remove()
