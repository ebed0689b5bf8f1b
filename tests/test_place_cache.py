"""The compositional placement cache: reuse, invalidation, backends.

The ``repro place`` claims under test: a cold solve (empty cache,
every module injected) and a cache-hit re-solve print byte-identical
placement tables on both cache backends; editing one module's
fingerprint re-injects only that module; and the merged cached
estimate is exactly what one full uncached campaign with the same
seed produces.
"""

import pytest

from repro.edm.catalogue import EA_BY_NAME, EH_SET, PA_SET
from repro.errors import PlacementError
from repro.fi.campaign import PermeabilityCampaign
from repro.place import (
    Budget,
    PlacementCache,
    build_report,
    cached_estimate,
    ilp_solve,
    instance_from_estimate,
    items_for_signals,
    module_fingerprint,
    system_fingerprints,
)
from repro.target import ArrestmentSimulator, standard_test_cases
from repro.target.wiring import build_arrestment_system

RUNS = 2
SEED = 2002
MODULES = [module.name for module in build_arrestment_system().modules()]


def factory(test_case):
    return ArrestmentSimulator(test_case, timeout_s=6.0)


@pytest.fixture(scope="module")
def cases():
    return [standard_test_cases()[4], standard_test_cases()[20]]


@pytest.fixture(scope="module")
def full_estimate(cases):
    return PermeabilityCampaign(
        factory, cases, runs_per_input=RUNS, seed=SEED
    ).run()


def _render(estimate):
    system = build_arrestment_system()
    specs = list(EA_BY_NAME.values())
    instance = instance_from_estimate(
        system, estimate, specs, Budget(rom_bytes=150, ram_bytes=54)
    )
    result = ilp_solve(instance)
    report = build_report(
        "arrestment", instance, result,
        [
            ("EH", items_for_signals(instance, EH_SET)),
            ("PA", items_for_signals(instance, PA_SET)),
        ],
    )
    return report.render()


class TestColdVsWarm:
    @pytest.mark.parametrize("suffix", [".json", ".db"])
    def test_cache_hit_resolve_is_byte_identical(
        self, tmp_path, cases, full_estimate, suffix
    ):
        path = str(tmp_path / f"cache{suffix}")
        with PlacementCache(path) as cache:
            cold, cold_tel = cached_estimate(
                factory, cases, cache, runs_per_input=RUNS, seed=SEED
            )
            warm, warm_tel = cached_estimate(
                factory, cases, cache, runs_per_input=RUNS, seed=SEED
            )
        assert cold_tel.misses and not cold_tel.hits
        assert warm_tel.hits and not warm_tel.misses
        assert cold.values == full_estimate.values
        assert cold.direct_counts == full_estimate.direct_counts
        assert cold.active_runs == full_estimate.active_runs
        assert _render(cold) == _render(warm)

    def test_backends_agree(self, tmp_path, cases):
        estimates = []
        for suffix in (".json", ".db"):
            with PlacementCache(str(tmp_path / f"c{suffix}")) as cache:
                estimate, _ = cached_estimate(
                    factory, cases, cache, runs_per_input=RUNS, seed=SEED
                )
            estimates.append(estimate)
        assert estimates[0].values == estimates[1].values
        assert _render(estimates[0]) == _render(estimates[1])


class TestInvalidation:
    @pytest.mark.parametrize("module", MODULES)
    def test_salted_fingerprint_reinjects_only_that_module(
        self, tmp_path, cases, full_estimate, module
    ):
        with PlacementCache(str(tmp_path / "cache.json")) as cache:
            cached_estimate(
                factory, cases, cache, runs_per_input=RUNS, seed=SEED
            )
            salted, telemetry = cached_estimate(
                factory, cases, cache,
                runs_per_input=RUNS, seed=SEED,
                salts={module: "rev2"},
            )
        assert telemetry.misses == (module,)
        assert module not in telemetry.hits
        assert len(telemetry.hits) == 5
        # the restricted campaign redraws the module at the RNG stream
        # positions of the full campaign, so the merged estimate still
        # matches it exactly
        assert salted.values == full_estimate.values
        restricted = PermeabilityCampaign(
            factory, cases, runs_per_input=RUNS, seed=SEED,
            modules=[module],
        ).run()
        assert restricted.direct_counts == {
            key: count
            for key, count in full_estimate.direct_counts.items()
            if key[0] == module
        }
        assert restricted.active_runs == {
            key: runs
            for key, runs in full_estimate.active_runs.items()
            if key[0] == module
        }

    def test_forced_invalidation_stores_under_plain_fingerprint(
        self, tmp_path, cases
    ):
        with PlacementCache(str(tmp_path / "cache.json")) as cache:
            cached_estimate(
                factory, cases, cache, runs_per_input=RUNS, seed=SEED
            )
            _, forced = cached_estimate(
                factory, cases, cache,
                runs_per_input=RUNS, seed=SEED,
                invalidate=("CALC",),
            )
            _, after = cached_estimate(
                factory, cases, cache, runs_per_input=RUNS, seed=SEED
            )
        assert forced.misses == ("CALC",)
        assert not after.misses  # stored back under the plain print

    def test_unknown_modules_are_rejected(self, tmp_path, cases):
        with PlacementCache(str(tmp_path / "cache.json")) as cache:
            with pytest.raises(PlacementError):
                cached_estimate(
                    factory, cases, cache,
                    runs_per_input=RUNS, seed=SEED,
                    salts={"NO_SUCH": "x"},
                )
            with pytest.raises(PlacementError):
                cached_estimate(
                    factory, cases, cache,
                    runs_per_input=RUNS, seed=SEED,
                    invalidate=("NO_SUCH",),
                )


class TestFingerprints:
    def test_parameters_move_the_fingerprint(self, cases):
        system = build_arrestment_system()
        labels = [case.label for case in cases]
        base = module_fingerprint(
            system, "CLOCK",
            seed=SEED, runs_per_input=RUNS, direct_only=True,
            case_labels=labels,
        )
        for kwargs in (
            {"seed": SEED + 1},
            {"runs_per_input": RUNS + 1},
            {"direct_only": False},
            {"case_labels": labels[:1]},
            {"salt": "rev2"},
            {"extra": "adaptive:max_runs=9"},
        ):
            merged = {
                "seed": SEED,
                "runs_per_input": RUNS,
                "direct_only": True,
                "case_labels": labels,
                **kwargs,
            }
            assert module_fingerprint(system, "CLOCK", **merged) != base

    def test_system_fingerprints_cover_every_module(self, cases):
        system = build_arrestment_system()
        prints = system_fingerprints(
            system,
            seed=SEED, runs_per_input=RUNS, direct_only=True,
            case_labels=[case.label for case in cases],
        )
        assert sorted(prints) == sorted(
            module.name for module in system.modules()
        )
        assert len(set(prints.values())) == len(prints)


class TestCacheStore:
    def test_stale_fingerprint_misses(self, tmp_path):
        with PlacementCache(str(tmp_path / "c.json")) as cache:
            cache.store("CLOCK", "aaa", {"active": [], "counts": []})
            assert cache.lookup("CLOCK", "aaa") is not None
            assert cache.lookup("CLOCK", "bbb") is None
            assert cache.lookup("CALC", "aaa") is None
            assert cache.modules() == ["CLOCK"]

    def test_unknown_backend_is_rejected(self, tmp_path):
        with pytest.raises(PlacementError):
            PlacementCache(str(tmp_path / "c.json"), backend="csv")
