"""Pinned outputs of every campaign kind on every registered target.

Each campaign runs at a tiny size with a fixed seed and a JSON
checkpoint.  Two values per (target, kind) are compared against
``tests/data/campaign_digests.json``:

* the :func:`~repro.fi.integrity.canonical_digest` of the result, so a
  change in pre-draw order, task layout or aggregation shows up even
  when it hits every engine alike (the A/B suites only compare engines
  against each other);
* the checkpoint fingerprint written to the store, so checkpoints
  written by earlier code with the same parameters still resume.

Regenerate the file (only when a result change is intended) with::

    PYTHONPATH=src python tests/test_campaign_digests.py --record
"""

from __future__ import annotations

import dataclasses
import enum
import json
import os
import sys

import pytest

from repro.fi.campaign import (
    DetectionCampaign,
    MemoryCampaign,
    PermeabilityCampaign,
    RecoveryCampaign,
)
from repro.fi.executor import CampaignConfig, CheckpointPolicy
from repro.fi.integrity import canonical_digest
from repro.fi.memory import MemoryMap
from repro.targets import available_targets, get_target

DATA = os.path.join(os.path.dirname(__file__), "data", "campaign_digests.json")
SEED = 2002
KINDS = ("permeability", "detection", "memory", "recovery")


def _plain(value):
    """*value* as nested lists/dicts of JSON scalars (digestable)."""
    if dataclasses.is_dataclass(value):
        return {
            f.name: _plain(getattr(value, f.name))
            for f in dataclasses.fields(value)
        }
    if isinstance(value, enum.Enum):
        return value.value
    if isinstance(value, dict):
        return sorted(
            [_plain(key), _plain(item)] for key, item in value.items()
        )
    if isinstance(value, (frozenset, set)):
        return sorted(_plain(item) for item in value)
    if isinstance(value, (list, tuple)):
        return [_plain(item) for item in value]
    return value


def _campaign(kind, target, checkpoint):
    config = CampaignConfig(
        seed=SEED, checkpoint=CheckpointPolicy(path=checkpoint)
    )
    cases = list(target.standard_test_cases())[:2]
    specs = list(target.assertion_specs())
    if kind == "permeability":
        return PermeabilityCampaign(
            target, cases, runs_per_input=2, config=config
        )
    if kind == "detection":
        return DetectionCampaign(
            target, cases, specs, runs_per_signal=3, config=config
        )
    locations = MemoryMap(target.build_system()).locations()[::12]
    cls = MemoryCampaign if kind == "memory" else RecoveryCampaign
    return cls(target, cases[:1], specs, locations=locations, config=config)


def compute(target_name, kind, workdir):
    """``{"digest", "fingerprint"}`` of one pinned campaign."""
    checkpoint = os.path.join(workdir, f"{target_name}-{kind}.json")
    result = _campaign(kind, get_target(target_name), checkpoint).run()
    with open(checkpoint, encoding="utf-8") as handle:
        fingerprint = json.load(handle)["fingerprint"]
    return {
        "digest": canonical_digest(_plain(result)),
        "fingerprint": fingerprint,
    }


def _load():
    with open(DATA, encoding="utf-8") as handle:
        return json.load(handle)


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("target_name", sorted(available_targets()))
def test_campaign_matches_pinned_digest(tmp_path, target_name, kind):
    pinned = _load()[f"{target_name}/{kind}"]
    assert compute(target_name, kind, str(tmp_path)) == pinned


if __name__ == "__main__":
    import tempfile

    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: test_campaign_digests.py --record")
    with tempfile.TemporaryDirectory() as workdir:
        record = {
            f"{name}/{kind}": compute(name, kind, workdir)
            for name in sorted(available_targets())
            for kind in KINDS
        }
    with open(DATA, "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {len(record)} entries to {DATA}")
