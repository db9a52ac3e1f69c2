"""Shared fixtures for the benchmark harness.

Every ``bench_*`` module regenerates one table or figure of the paper.
pytest collects only ``test_*.py`` files by itself, so name the modules:
``PYTHONPATH=src python -m pytest benchmarks/bench_*.py --benchmark-only``
runs the benchmarks; each both *times* the reproduction
(pytest-benchmark statistics) and *prints* the regenerated artifact so
the numbers can be compared against the paper side by side (run with
``-s`` to see the reports).  ``--benchmark-disable`` instead runs every
test of the modules once, untimed, as CI does.
"""

from __future__ import annotations

import pytest

from repro.protocols import TABLE_ORDER, run_protocol
from repro.testbed import make_testbed


@pytest.fixture(scope="session")
def testbed():
    """Provisioned CA + devices shared across the benchmark session."""
    return make_testbed(("alice", "bob"), seed=b"bench-testbed")


@pytest.fixture(scope="session")
def transcripts(testbed):
    """One completed transcript per protocol (for pricing benchmarks)."""
    result = {}
    for name in TABLE_ORDER:
        party_a, party_b = testbed.party_pair(name, "alice", "bob")
        result[name] = run_protocol(party_a, party_b)
    return result
