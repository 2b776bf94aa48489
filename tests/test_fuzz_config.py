"""Hostile config values: ``build_config`` refuses them with a ConfigError
or builds a config whose resolved form reloads to itself.

Each example puts one hostile JSON value (a bool, a string, null, a list,
an object, a huge or a negative integer, NaN, an infinity, zero) at one
key of one section, at one key of the noise schedule, or in the params of
a ``models.specs`` entry. Any exception but ConfigError fails the test, as
does a config whose ``resolved_dict`` does not survive a JSON round trip.
"""

import json

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from herdweight.config import _SECTIONS, build_config  # noqa: E402
from herdweight.errors import ConfigError  # noqa: E402
from herdweight.regressors import DEFAULT_FAMILY_PARAMS  # noqa: E402

HOSTILE = [True, False, "1", "", None, [], [1.0, "2"], {}, {"a": 1}, 10**400, -10**400, 2**63,
           float("nan"), float("inf"), float("-inf"), 0, 0.0, -1, -0.5]
SCHEDULE_KEYS = ["kind", "sigma0", "decay", "values"]
# (where, key): a section and one of its keys, the schedule, or a family's spec params.
PLACES = ([(section, key) for section, keys in sorted(_SECTIONS.items()) for key in sorted(keys)]
          + [("schedule", key) for key in SCHEDULE_KEYS]
          + [(family, key) for family, params in DEFAULT_FAMILY_PARAMS.items()
             for key in [*params, "unknown"]])


@st.composite
def hostile_configs(draw):
    """A config with one hostile value in one place."""
    where, key = draw(st.sampled_from(PLACES))
    value = draw(st.sampled_from(HOSTILE))
    if where in _SECTIONS:
        return {where: {key: value}}
    if where == "schedule":
        kind = draw(st.sampled_from(["geometric", "constant", "explicit"]))
        values = {"values": [1.0] * 4} if kind == "explicit" else {}   # the keys a kind reads
        return {"simulation": {"steps": 4, "schedule": {"kind": kind, **values, key: value}}}
    return {"models": {"specs": [{"name": "m", "family": where, "params": {key: value}}]}}


@settings(max_examples=1000, deadline=None, database=None, derandomize=True)
@given(raw=hostile_configs())
def test_hostile_value_is_refused_or_round_trips(raw):
    try:
        config = build_config(raw)
    except ConfigError:
        return
    resolved = config.resolved_dict()
    assert build_config(json.loads(json.dumps(resolved))).resolved_dict() == resolved
