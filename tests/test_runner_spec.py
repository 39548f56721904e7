"""ScenarioSpec identity: canonical JSON, hashing, round-trips, the shim."""

import dataclasses
import enum
import json
import math
import pickle
import subprocess
import sys
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Optional

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import EAntConfig, ExchangeLevel
from repro.experiments import run_scenario
from repro.runner import SPEC_VERSION, ScenarioSpec
from repro.runner.record import _writer
from repro.runner.spec import _jsonable
from repro.workloads import puma_job


def small_spec(**overrides) -> ScenarioSpec:
    fields = dict(
        jobs=(puma_job("grep", 1.0), puma_job("wordcount", 1.0, submit_time=30.0)),
        scheduler="fair",
        seed=7,
    )
    fields.update(overrides)
    return ScenarioSpec(**fields)


class TestNormalization:
    def test_empty_jobs_rejected(self):
        with pytest.raises(ValueError, match="at least one job"):
            ScenarioSpec(jobs=())

    def test_unknown_scheduler_rejected(self):
        with pytest.raises(ValueError, match="unknown scheduler"):
            small_spec(scheduler="yarn")

    def test_capacity_scheduler_rejected(self):
        with pytest.raises(ValueError, match="unknown scheduler"):
            small_spec(scheduler="capacity")

    def test_eant_alias_normalized(self):
        assert small_spec(scheduler="eant").scheduler == "e-ant"

    def test_defaults_filled_in(self):
        spec = small_spec()
        assert spec.fleet is not None
        assert spec.hadoop is not None
        assert spec.noise is not None


class TestHashing:
    def test_hash_is_hex_sha256(self):
        digest = small_spec().spec_hash()
        assert len(digest) == 64
        int(digest, 16)  # raises on non-hex

    def test_every_field_change_changes_hash(self):
        base = small_spec().spec_hash()
        variants = [
            small_spec(seed=8),
            small_spec(scheduler="fifo"),
            small_spec(jobs=(puma_job("grep", 1.0),)),
            small_spec(with_meter=True),
            small_spec(meter_interval=60.0),
            small_spec(max_sim_time=1000.0),
            small_spec(eant_config=EAntConfig(beta=0.2)),
            small_spec(eant_config=EAntConfig(exchange=ExchangeLevel.MACHINE)),
        ]
        digests = {v.spec_hash() for v in variants}
        assert base not in digests
        assert len(digests) == len(variants)

    def test_label_excluded_from_identity(self):
        assert small_spec(label="a").spec_hash() == small_spec(label="b").spec_hash()
        assert small_spec(label="a") == small_spec(label="b")
        assert "label" not in small_spec(label="a").to_json_dict()

    def test_hash_independent_of_dict_ordering(self):
        spec = small_spec(eant_config=EAntConfig(beta=0.2))
        payload = spec.to_json_dict()
        reordered = json.loads(
            json.dumps(payload), object_pairs_hook=lambda pairs: dict(reversed(pairs))
        )
        assert ScenarioSpec.from_json_dict(reordered).spec_hash() == spec.spec_hash()

    def test_hash_stable_across_process_restart(self):
        """The content hash is a durable cache key, not id()-flavored."""
        script = (
            "import sys; sys.path.insert(0, sys.argv[1])\n"
            "from repro.runner import ScenarioSpec\n"
            "from repro.workloads import puma_job\n"
            "spec = ScenarioSpec(jobs=(puma_job('grep', 1.0),"
            " puma_job('wordcount', 1.0, submit_time=30.0)),"
            " scheduler='fair', seed=7)\n"
            "print(spec.spec_hash())\n"
        )
        src = str(Path(__file__).resolve().parent.parent / "src")
        fresh = subprocess.run(
            [sys.executable, "-c", script, src],
            capture_output=True, text=True, check=True,
        ).stdout.strip()
        assert fresh == small_spec().spec_hash()


class TestRoundTrips:
    def test_json_round_trip(self):
        spec = small_spec(
            with_meter=True,
            eant_config=EAntConfig(beta=0.3, exchange=ExchangeLevel.BOTH),
        )
        restored = ScenarioSpec.from_json(spec.canonical_json())
        assert restored == spec
        assert restored.spec_hash() == spec.spec_hash()

    def test_json_carries_spec_version(self):
        assert small_spec().to_json_dict()["spec_version"] == SPEC_VERSION

    def test_pickle_round_trip(self):
        spec = small_spec(eant_config=EAntConfig(beta=0.1))
        clone = pickle.loads(pickle.dumps(spec))
        assert clone == spec
        assert clone.spec_hash() == spec.spec_hash()

    def test_with_overrides(self):
        spec = small_spec()
        other = spec.with_overrides(seed=9)
        assert other.seed == 9
        assert other.jobs == spec.jobs
        assert other.spec_hash() != spec.spec_hash()


class TestStoredHash:
    """``spec_hash()`` is kept on the instance but never leaks out of it."""

    def test_pickle_bytes_unchanged_by_hashing(self):
        spec = small_spec()
        before = pickle.dumps(spec)
        spec.spec_hash()
        assert pickle.dumps(spec) == before

    def test_unpickled_and_overridden_specs_hash_like_fresh_ones(self):
        spec = small_spec()
        spec.spec_hash()
        assert pickle.loads(pickle.dumps(spec)).spec_hash() == small_spec().spec_hash()
        assert spec.with_overrides(seed=11).spec_hash() == small_spec(seed=11).spec_hash()
        assert dataclasses.replace(spec, seed=12).spec_hash() == small_spec(seed=12).spec_hash()

    def test_equality_and_hash_ignore_the_stored_hash(self):
        hashed, fresh = small_spec(), small_spec()
        before = hash(hashed)
        hashed.spec_hash()
        assert hash(hashed) == before == hash(fresh)
        assert hashed == fresh
        assert repr(hashed) == repr(fresh)


# ------------------------------------------------ projection equivalence
# Reference copies of the canonical-JSON and digest projections as they
# were before the exact-type fast paths and the shared field-name table.
def reference_jsonable(value: Any) -> Any:
    if isinstance(value, enum.Enum):
        return value.value
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            f.name: reference_jsonable(getattr(value, f.name))
            for f in dataclasses.fields(value)
        }
    if isinstance(value, (tuple, list)):
        return [reference_jsonable(item) for item in value]
    if isinstance(value, dict):
        return {str(key): reference_jsonable(item) for key, item in value.items()}
    return value


def reference_digestable(value: Any, precision: Optional[int] = None) -> Any:
    if isinstance(value, bool) or value is None or isinstance(value, (int, str)):
        return value
    if isinstance(value, float):
        if precision is None:
            return value.hex()
        return f"{value:.{precision}e}"
    if isinstance(value, enum.Enum):
        return reference_digestable(value.value, precision)
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            f.name: reference_digestable(getattr(value, f.name), precision)
            for f in dataclasses.fields(value)
        }
    if isinstance(value, (tuple, list)):
        return [reference_digestable(item, precision) for item in value]
    if isinstance(value, dict):
        items = [
            (repr(reference_digestable(k, precision)), reference_digestable(v, precision))
            for k, v in value.items()
        ]
        return {key: item for key, item in sorted(items, key=lambda kv: kv[0])}
    if hasattr(value, "item"):
        return reference_digestable(value.item(), precision)
    raise TypeError(f"cannot digest {type(value).__name__}: {value!r}")


class Color(enum.Enum):
    RED = 1
    BLUE = "blue"
    GREEN = 2.5


class Level(enum.IntEnum):
    LOW = 0
    HIGH = 7


class Mode(str, enum.Enum):
    FAST = "fast"
    SLOW = "slow"


@dataclass(frozen=True)
class Pair:
    left: Any
    right: Any


@dataclass(frozen=True)
class Nested:
    pair: Pair
    items: tuple
    tag: Any = Level.HIGH


_leaves = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.text(max_size=4),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([-0.0, 0.0, math.nan, math.inf, -math.inf]),
    st.sampled_from([*Color, *Level, *Mode]),
    st.floats(allow_nan=True, allow_infinity=True).map(np.float64),
    st.floats(width=32).map(np.float32),
    st.integers(-(2**62), 2**62).map(np.int64),
    st.booleans().map(np.bool_),
)
_keys = st.one_of(
    st.text(max_size=3), st.integers(), st.tuples(st.integers(), st.text(max_size=2))
)
_values = st.recursive(
    _leaves,
    lambda children: st.one_of(
        st.builds(Pair, children, children),
        st.builds(Nested, st.builds(Pair, children, children),
                  st.lists(children, max_size=3).map(tuple), children),
        st.lists(children, max_size=4).map(tuple),
        st.lists(children, max_size=4),
        st.dictionaries(_keys, children, max_size=4),
    ),
    max_leaves=24,
)


#: Dict keys of the digest projection: besides the plain keys, ``-0.0``,
#: ``nan``, enum members, numpy scalars, and strings spelling the
#: projected text of a float key, so distinct keys collide.
_digest_keys = st.one_of(
    _keys,
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([-0.0, math.nan, 1.0, *Color, *Level, *Mode]),
    st.sampled_from(
        ["-0x0.0p+0", "nan", "0x1.0000000000000p+0", "1.000000000e+00", "1"]
    ),
    st.floats(width=32).map(np.float32),
    st.integers(-5, 5).map(np.int64),
    st.tuples(st.sampled_from([*Level, *Mode]), st.floats(allow_nan=True)),
)
_digest_values = st.recursive(
    _leaves,
    lambda children: st.one_of(
        st.builds(Pair, children, children),
        st.builds(Nested, st.builds(Pair, children, children),
                  st.lists(children, max_size=3).map(tuple), children),
        st.lists(children, max_size=4).map(tuple),
        st.lists(children, max_size=4),
        st.lists(st.floats(allow_nan=True), min_size=1, max_size=4),
        st.dictionaries(_digest_keys, children, max_size=4),
    ),
    max_leaves=24,
)


class TestProjectionEquivalence:
    """The fast projection and the digest payload writer match the
    reference copies above exactly: ``IntEnum``/``str``-enum members,
    numpy scalars, ``-0.0`` and ``nan`` must come out as the same types,
    values and text."""

    @settings(max_examples=300, deadline=None)
    @given(value=_values)
    def test_jsonable_matches_reference(self, value):
        assert repr(_jsonable(value)) == repr(reference_jsonable(value))

    @settings(max_examples=400, deadline=None)
    @given(value=_digest_values, precision=st.sampled_from([None, 9]))
    @example(value={1.0: "float", "0x1.0000000000000p+0": "hex"}, precision=None)
    @example(value={"1.000000000e+00": "text", 1.0: "float"}, precision=9)
    @example(value={-0.0: 1, "-0x0.0p+0": 2, math.nan: 3, "nan": 4}, precision=None)
    @example(value={Color.RED: "enum", 1.5: "x", 1: "int"}, precision=None)
    @example(value={(1, "a"): [np.float64(-0.0), Level.HIGH], Mode.FAST: ()},
             precision=9)
    def test_digest_payload_matches_reference(self, value, precision):
        """The direct writer emits exactly the JSON text of the reference
        projection — including which of several keys whose projected
        ``repr`` collides wins (the last inserted)."""
        expected = json.dumps(
            reference_digestable(value, precision),
            sort_keys=True,
            separators=(",", ":"),
        )
        assert _writer(precision).write(value).encode() == expected.encode()


class TestRunEquivalence:
    def test_spec_run_matches_run_scenario(self):
        jobs = [puma_job("grep", 1.0)]
        via_spec = ScenarioSpec(jobs=tuple(jobs), scheduler="fair", seed=3).run()
        via_harness = run_scenario(jobs, scheduler="fair", seed=3)
        assert via_spec.metrics.total_energy_joules == pytest.approx(
            via_harness.metrics.total_energy_joules
        )
        assert via_spec.metrics.makespan == pytest.approx(via_harness.metrics.makespan)


class TestKeywordOnlySignature:
    """The positional compat shim is gone: options are keyword-only."""

    def test_positional_options_rejected(self):
        jobs = [puma_job("grep", 1.0)]
        with pytest.raises(TypeError):
            run_scenario(jobs, "fair")

    def test_keyword_call_does_not_warn(self):
        jobs = [puma_job("grep", 1.0)]
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            run_scenario(jobs, scheduler="fifo", seed=1)
