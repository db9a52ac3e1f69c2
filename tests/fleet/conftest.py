"""Fixtures shared by the fleet tests."""

from __future__ import annotations

from typing import NamedTuple

import pytest

from goldens import GOLDENS
from repro.fleet import FleetOrchestrator, FleetResult


class GoldenRun(NamedTuple):
    orchestrator: FleetOrchestrator
    result: FleetResult


@pytest.fixture(scope="session")
def golden_run():
    """``golden_run(name)``: the plain run of a golden-table entry.

    Each entry runs at most once per session, so every test that reads
    it shares one :class:`GoldenRun`; such tests must not mutate it.
    """
    runs: dict[str, GoldenRun] = {}

    def run(name: str) -> GoldenRun:
        if name not in runs:
            orchestrator = GOLDENS[name].orchestrator()
            runs[name] = GoldenRun(orchestrator, orchestrator.run())
        return runs[name]

    return run
