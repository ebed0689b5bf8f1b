"""Property-based tests (hypothesis) for the integrity layer.

Invariants exercised:

* canonical digests are deterministic and key-order independent;
* a value and its JSON round trip digest identically;
* digest equality coincides with :func:`field_diff` finding nothing;
* the special floats digest deterministically: every NaN payload
  collapses to one digest, ``-0.0`` stays distinct from ``0.0``,
  the infinities are distinct from everything finite;
* campaign-result serialization round-trips bit-identically through
  dicts and through :class:`~repro.fi.store.JsonCheckpointStore`
  result files (digest verification included) for all three result
  types.
"""

import copy
import json
import os
import struct
import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fi import JsonCheckpointStore, canonical_digest, field_diff
from repro.fi.campaign import (
    DetectionResult,
    MemoryCampaignResult,
    MemoryRunRecord,
    PermeabilityEstimate,
)
from repro.fi.memory import Region
from repro.fi.serialization import (
    detection_from_dict,
    detection_to_dict,
    memory_from_dict,
    memory_to_dict,
    permeability_from_dict,
    permeability_to_dict,
)

# ----------------------------------------------------------------------
# Canonical digests.
# ----------------------------------------------------------------------
json_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**53), max_value=2**53),
    st.floats(allow_nan=False),  # NaN breaks == for the diff test below
    st.text(max_size=20),
)

json_values = st.recursive(
    json_scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=5),
        st.dictionaries(st.text(max_size=10), children, max_size=5),
    ),
    max_leaves=20,
)


@given(value=json_values)
def test_digest_deterministic(value):
    assert canonical_digest(value) == canonical_digest(copy.deepcopy(value))


@given(value=json_values)
def test_digest_survives_json_round_trip(value):
    rebuilt = json.loads(json.dumps(value))
    assert canonical_digest(rebuilt) == canonical_digest(value)


@given(a=json_values, b=json_values)
def test_digest_equality_matches_field_diff(a, b):
    same_digest = canonical_digest(a) == canonical_digest(b)
    assert same_digest == (field_diff(a, b) is None)


@given(payload=st.integers(min_value=1, max_value=(1 << 51) - 1))
def test_all_nan_payloads_digest_identically(payload):
    # craft a NaN with an arbitrary mantissa payload
    bits = (0x7FF << 52) | payload
    crafted = struct.unpack("<d", struct.pack("<Q", bits))[0]
    assert canonical_digest(crafted) == canonical_digest(float("nan"))


def test_special_floats_distinct():
    digests = [
        canonical_digest(v)
        for v in (0.0, -0.0, float("inf"), float("-inf"), float("nan"))
    ]
    assert len(set(digests)) == len(digests)


# ----------------------------------------------------------------------
# Campaign-result round trips.
# ----------------------------------------------------------------------
names = st.text(
    alphabet="ABCDEFGHIJKLMNOPQRSTUVWXYZ_", min_size=1, max_size=8
)
counts = st.integers(min_value=0, max_value=50)


@st.composite
def permeability_estimates(draw):
    pairs = draw(
        st.dictionaries(
            st.tuples(names, names, names), counts, min_size=1, max_size=6
        )
    )
    direct = dict(pairs)
    active = {}
    for module, in_port, _ in direct:
        active[(module, in_port)] = draw(
            st.integers(min_value=1, max_value=60)
        )
    values = {
        (m, i, k): direct[(m, i, k)] / active[(m, i)]
        for (m, i, k) in direct
    }
    return PermeabilityEstimate(
        direct_counts=direct, active_runs=active, values=values
    )


@st.composite
def detection_results(draw):
    targets = draw(st.lists(names, min_size=1, max_size=3, unique=True))
    ea_names = draw(st.lists(names, min_size=1, max_size=4, unique=True))
    fired_sets = st.frozensets(st.sampled_from(ea_names), max_size=3)
    run_records = {
        target: draw(st.lists(fired_sets, max_size=3)) for target in targets
    }
    run_latencies = {
        target: [
            {ea: draw(counts) for ea in sorted(fired)}
            for fired in run_records[target]
        ]
        for target in targets
    }
    return DetectionResult(
        targets=targets,
        ea_names=ea_names,
        n_injected={t: draw(counts) for t in targets},
        n_err={t: draw(counts) for t in targets},
        detections={
            (t, ea): draw(counts) for t in targets for ea in ea_names
        },
        any_detections={t: draw(counts) for t in targets},
        run_records=run_records,
        run_latencies=run_latencies,
    )


@st.composite
def memory_results(draw):
    ea_names = draw(st.lists(names, min_size=1, max_size=4, unique=True))
    records = draw(
        st.lists(
            st.builds(
                MemoryRunRecord,
                region=st.sampled_from(list(Region)),
                location_label=names,
                fired=st.frozensets(st.sampled_from(ea_names), max_size=3),
                failed=st.booleans(),
            ),
            max_size=5,
        )
    )
    return MemoryCampaignResult(records=records, ea_names=ea_names)


@given(estimate=permeability_estimates())
def test_permeability_dict_round_trip(estimate):
    rebuilt = permeability_from_dict(
        json.loads(json.dumps(permeability_to_dict(estimate)))
    )
    assert rebuilt == estimate


@given(result=detection_results())
def test_detection_dict_round_trip(result):
    rebuilt = detection_from_dict(
        json.loads(json.dumps(detection_to_dict(result)))
    )
    assert rebuilt == result


@given(result=memory_results())
def test_memory_dict_round_trip(result):
    rebuilt = memory_from_dict(
        json.loads(json.dumps(memory_to_dict(result)))
    )
    assert rebuilt == result


@settings(max_examples=25)  # touches the filesystem
@given(
    result=st.one_of(
        permeability_estimates(), detection_results(), memory_results()
    )
)
def test_file_round_trip_with_digest(result):
    with tempfile.TemporaryDirectory() as tmp:
        store = JsonCheckpointStore(os.path.join(tmp, "result.json"))
        store.save_result(result)
        assert store.load_result() == result
