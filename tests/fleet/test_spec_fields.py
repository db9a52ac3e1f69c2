"""Every fleet spec field is checked against its declaration.

``FleetConfig``, the scenario parts and the numeric policy rules declare
each field's type by annotation and its range with
:func:`~repro.fleet.policy.bound`.  The cases below are generated from
those declarations, so a field added later is covered without editing
this file:

* values outside a field's declaration (wrong type, ``bool`` for a
  number, NaN or infinity, ``None`` where the annotation has no
  ``None``, just past a bound) raise the spec's typed error naming the
  spec and the field;
* each inclusive bound and one value inside the range construct, and a
  value is stored as given, never coerced.
"""

from __future__ import annotations

import dataclasses
import math
import typing

import pytest

from repro.ec import Curve
from repro.errors import ConfigError, PolicyError, ScenarioError
from repro.fleet import (
    BehaviorProfile,
    BurstArrivals,
    CaQueueFlood,
    DiurnalArrivals,
    FleetConfig,
    PoissonArrivals,
    ReplayStorm,
    StaleCertFlood,
    StormRekey,
    ThresholdRebalance,
    UniformArrivals,
    UtilisationRebalance,
    load_policy,
    load_scenario,
)

#: spec class -> (required arguments, typed error, owner in messages,
#: formatted with the arguments).
SPECS = {
    FleetConfig: ({}, ConfigError, "FleetConfig"),
    UniformArrivals: ({}, ScenarioError, "uniform"),
    PoissonArrivals: ({}, ScenarioError, "poisson"),
    BurstArrivals: ({}, ScenarioError, "burst"),
    DiurnalArrivals: ({}, ScenarioError, "diurnal"),
    BehaviorProfile: (
        {"name": "p", "count": 1}, ScenarioError, "profile {name!r}"
    ),
    ReplayStorm: ({"at_ms": 0.0}, ScenarioError, "replay-storm"),
    StaleCertFlood: ({"at_ms": 0.0}, ScenarioError, "stale-cert-flood"),
    CaQueueFlood: ({"at_ms": 0.0}, ScenarioError, "ca-flood"),
    ThresholdRebalance: ({}, PolicyError, "threshold-rebalance"),
    UtilisationRebalance: ({}, PolicyError, "utilisation-rebalance"),
    StormRekey: ({}, PolicyError, "storm-rekey"),
}

#: Companion values a field needs to pass a check that spans fields.
CONTEXT = {
    (FleetConfig, "shard_fail_at_ms"): {"shards": 2},
    (FleetConfig, "fail_shard"): {"shards": 4},
    (BurstArrivals, "wave_interval_ms"): {"wave_spread_ms": 0.0},
}

#: Values of the wrong type for each declared kind.
WRONG_TYPE = {
    int: (2.5, True, "1"),
    float: ("1", math.nan, math.inf, -math.inf, True),
    bool: ("no", 1),
    str: (1, b"static-hash"),
    bytes: ("abc", bytearray(b"abc")),
    Curve: ("secp256r1",),
}


def _declared():
    """``(cls, name, kind, optional, limits)`` for every spec field."""
    for cls in SPECS:
        hints = typing.get_type_hints(cls)
        for spec_field in dataclasses.fields(cls):
            hint = hints[spec_field.name]
            args = [a for a in typing.get_args(hint) if a is not type(None)]
            kind = args[0] if args else hint
            limits = spec_field.metadata.get("bound", {})
            yield cls, spec_field.name, kind, bool(args), limits


def _outside(kind, optional, limits):
    """Values the declaration rejects."""
    values = list(WRONG_TYPE[kind])
    if not optional:
        values.append(None)
    if "ge" in limits:
        values.append(limits["ge"] - (1 if kind is int else 0.5))
    if "gt" in limits:
        values.append(kind(limits["gt"]))
    if "le" in limits:
        values.append(limits["le"] + (1 if kind is int else 0.5))
    return values


def _inside(kind, limits):
    """Each inclusive bound plus one value strictly inside the range."""
    values = [kind(limits[op]) for op in ("ge", "le") if op in limits]
    low = limits.get("ge", limits.get("gt"))
    if low is not None:
        values.append(
            kind((low + limits["le"]) / 2) if "le" in limits else kind(low + 1)
        )
    return values


def _arguments(cls, name, value) -> dict:
    required = SPECS[cls][0]
    return {**required, **CONTEXT.get((cls, name), {}), name: value}


REJECTED = [
    pytest.param(cls, name, value, id=f"{cls.__name__}.{name}={value!r}")
    for cls, name, kind, optional, limits in _declared()
    for value in _outside(kind, optional, limits)
]

ACCEPTED = [
    pytest.param(cls, name, value, id=f"{cls.__name__}.{name}={value!r}")
    for cls, name, kind, optional, limits in _declared()
    for value in _inside(kind, limits) + ([None] if optional else [])
]


def test_every_spec_declares_a_bound():
    bounded = {cls for cls, _, _, _, limits in _declared() if limits}
    assert bounded == set(SPECS)


@pytest.mark.parametrize("cls, name, value", REJECTED)
def test_value_outside_declaration_raises_typed_error(cls, name, value):
    _, error, owner = SPECS[cls]
    kwargs = _arguments(cls, name, value)
    with pytest.raises(error) as caught:
        cls(**kwargs)
    owner = owner.format(**kwargs)
    assert str(caught.value).startswith(f"{owner}: {name} must be ")


@pytest.mark.parametrize("cls, name, value", ACCEPTED)
def test_value_inside_declaration_constructs_unchanged(cls, name, value):
    stored = getattr(cls(**_arguments(cls, name, value)), name)
    assert stored == value and type(stored) is type(value)


def test_fractional_replays_rejected_at_load():
    with pytest.raises(ScenarioError, match="replays"):
        load_scenario({
            "name": "frac",
            "injections": [
                {"kind": "replay-storm", "at_ms": 4000.0, "replays": 2.5}
            ],
        })


def test_integer_time_loads_unchanged():
    payload = {
        "name": "whole",
        "injections": [{"kind": "replay-storm", "at_ms": 4000, "replays": 2}],
    }
    scenario = load_scenario(payload)
    (storm,) = scenario.injections
    assert type(storm.at_ms) is int and storm.at_ms == 4000
    assert load_scenario(scenario.as_json()) == scenario


def test_fractional_record_budget_rejected():
    with pytest.raises(ConfigError, match="records_per_vehicle"):
        FleetConfig(records_per_vehicle=2.5)


def test_string_utilisation_rejected_at_load():
    with pytest.raises(PolicyError, match="max_utilisation"):
        load_policy(
            {"kind": "utilisation-rebalance", "max_utilisation": "0.5"}
        )

