"""The persistent kernel cache: hits, integrity, and telemetry.

Exercises the disk layer behind the codegen backend: a cold
process writes entries, a warm process (simulated with fresh compiled
circuits) loads them with **zero** recompilation, and a corrupted or
truncated entry is detected, discarded and transparently rebuilt — the
cache can degrade but never crash a run.
"""

import hashlib
import os

import pytest

from repro.campaign import CampaignRunner, CampaignSpec
from repro.circuits import s27
from repro.faults.model import Fault
from repro.hybrid import gahitec, gahitec_schedule
from repro.simulation import kernel_cache
from repro.simulation.codegen import (
    KERNEL_CACHE_VERSION,
    _canonical,
    compile_stats,
    generate_kernel_source,
    kernel_for,
)
from repro.simulation.compiled import compile_circuit
from repro.simulation.fault_sim import injection_for
from repro.telemetry import TelemetryRecorder

#: sha256 of the kernel source generated for fixed s27 injection shapes
#: at the hot writeback, per :data:`KERNEL_CACHE_VERSION`.  A disk entry's
#: key holds the version, the circuit fingerprint and the injection
#: signature, not the code, and CI restores older caches by prefix: a
#: generator change that moves a hash must bump the version and re-pin
#: the hashes under it, or warm runs load stale kernels.
KERNEL_SOURCE_SHA256 = {
    2: {
        "none": "3b7d097f1eed16f845ec5bfeca1d7569bc0429537b28937485db93e78532a526",
        "stem": "f9e826fefd9586ea0464067fb914788af86a9451630b3fdae6dea7bfda8ab7b3",
        "pin": "ffda517386f66e1ecc9419c4f829f33a3fc74c111cccef18117f03a621d0f79e",
        "transition_stem": "9f57b52b14f88ad7cefb935183d7e92cb7bd20e185546530308ea89557c46408",
        "transition_pin": "090c930d0af0aac2448aa98a36301e96acb96c7c9e991a7b83a9922466a6f409",
    },
}

#: The pinned shapes: s27's G8 feeds G15 and G16.
_SHAPES = {
    "none": [],
    "stem": [Fault("G8", 1)],
    "pin": [Fault("G8", 0, gate="G15", pin=1)],
    "transition_stem": [Fault("G8", 0, model="transition")],
    "transition_pin": [Fault("G8", 1, gate="G16", pin=1, model="transition")],
}


@pytest.fixture
def cache_dir(tmp_path, monkeypatch):
    monkeypatch.setenv(kernel_cache.ENV_VAR, str(tmp_path))
    return tmp_path


def _entry_files(root):
    return [
        os.path.join(dirpath, f)
        for dirpath, _, files in os.walk(root)
        for f in files
        if f.endswith(".rkc")
    ]


class TestStoreLoad:
    def test_roundtrip(self, cache_dir):
        key = kernel_cache.entry_key("test", 1, "fp", ("a", 2))
        payload = {"rows": b"\x01\x02", "n": 7, "t": (1, 2, 3)}
        assert kernel_cache.store(key, payload)
        assert kernel_cache.load(key) == payload

    def test_disabled_by_default(self, tmp_path, monkeypatch):
        monkeypatch.delenv(kernel_cache.ENV_VAR, raising=False)
        key = kernel_cache.entry_key("test", 1, "fp")
        assert not kernel_cache.store(key, {"x": 1})
        assert kernel_cache.load(key) is None
        assert not _entry_files(tmp_path)

    def test_missing_entry_counts_miss(self, cache_dir):
        before = kernel_cache.cache_stats()["misses"]
        assert kernel_cache.load("0" * 64) is None
        assert kernel_cache.cache_stats()["misses"] == before + 1

    def test_configure_sets_environment(self, tmp_path, monkeypatch):
        monkeypatch.delenv(kernel_cache.ENV_VAR, raising=False)
        kernel_cache.configure(str(tmp_path))
        try:
            assert os.environ[kernel_cache.ENV_VAR] == str(tmp_path)
            assert kernel_cache.cache_dir() == str(tmp_path)
        finally:
            kernel_cache.configure(None)
        assert kernel_cache.cache_dir() is None

    def test_unmarshallable_payload_degrades(self, cache_dir):
        key = kernel_cache.entry_key("test", 1, "fp")
        assert not kernel_cache.store(key, {"bad": object()})

    def test_fingerprint_stable_across_compiles(self):
        fp1 = kernel_cache.circuit_fingerprint(compile_circuit(s27()))
        fp2 = kernel_cache.circuit_fingerprint(compile_circuit(s27()))
        assert fp1 == fp2


class TestCorruption:
    def _store_one(self):
        key = kernel_cache.entry_key("test", 1, "fp")
        kernel_cache.store(key, [1, 2, 3])
        return key

    @pytest.mark.parametrize("damage", ["truncate", "flip", "garbage"])
    def test_detected_and_discarded(self, cache_dir, damage):
        key = self._store_one()
        (path,) = _entry_files(cache_dir)
        blob = open(path, "rb").read()
        if damage == "truncate":
            blob = blob[: len(blob) // 2]
        elif damage == "flip":
            blob = blob[:40] + bytes([blob[40] ^ 0xFF]) + blob[41:]
        else:
            blob = b"not a cache entry"
        open(path, "wb").write(blob)
        before = kernel_cache.cache_stats()["corrupt"]
        assert kernel_cache.load(key) is None
        assert kernel_cache.cache_stats()["corrupt"] == before + 1
        assert not _entry_files(cache_dir)  # bad entry deleted
        # a rebuild overwrites cleanly and the next load succeeds
        kernel_cache.store(key, [1, 2, 3])
        assert kernel_cache.load(key) == [1, 2, 3]


class TestCodegenDiskCache:
    def test_warm_compile_skipped(self, cache_dir):
        cold = compile_circuit(s27())
        before = compile_stats()["kernels"]
        kernel_for(cold, [])
        assert compile_stats()["kernels"] == before + 1
        assert _entry_files(cache_dir)
        # a fresh compiled circuit simulates a warm process: the kernel
        # comes off disk without touching the compiler
        warm = compile_circuit(s27())
        before = compile_stats()["kernels"]
        hits = kernel_cache.cache_stats()["hits"]
        kernel_for(warm, [])
        assert compile_stats()["kernels"] == before
        assert kernel_cache.cache_stats()["hits"] == hits + 1

    def test_corrupt_kernel_recompiles(self, cache_dir):
        kernel_for(compile_circuit(s27()), [])
        for path in _entry_files(cache_dir):
            open(path, "wb").write(b"\x00" * 10)
        before = compile_stats()["kernels"]
        kernel_for(compile_circuit(s27()), [])
        assert compile_stats()["kernels"] == before + 1  # recompiled
        # and the overwritten entry is valid again
        before = compile_stats()["kernels"]
        kernel_for(compile_circuit(s27()), [])
        assert compile_stats()["kernels"] == before


class TestCampaignWorkers:
    def test_kernel_cache_populated(self, cache_dir, tmp_path):
        # GA fitness compiles codegen kernels, so a GA campaign fills it
        spec = CampaignSpec(circuits=("s27",), name="cg-cache", seed=7,
                            shard_size=8, passes=2)
        result = CampaignRunner(spec, str(tmp_path / "c.jsonl")).run()
        assert result.items_failed == 0
        assert _entry_files(cache_dir)  # kernels persisted for warm workers


class TestTelemetryCounters:
    """A driver run counts its thread's kernel-cache activity once.

    GA fitness compiles codegen kernels, so a GA-HITEC run on s27 reaches
    the cache; a second run on a fresh circuit loads what the first wrote.
    """

    @staticmethod
    def counters_of_gahitec_run():
        tel = TelemetryRecorder()
        gahitec(s27(), seed=0, telemetry=tel).run(
            gahitec_schedule(x=4, num_passes=1, time_scale=None,
                             backtrack_base=10, justify_depth=3)
        )
        return tel.registry.counters

    def test_warm_run_reports_hits(self, cache_dir):
        cold = self.counters_of_gahitec_run()
        assert cold.get("sim.kernel_cache.writes", 0) >= 1
        warm = self.counters_of_gahitec_run()
        assert warm.get("sim.kernel_cache.hits", 0) >= 1
        assert "sim.kernel_cache.writes" not in warm
        assert "sim.kernel_cache.corrupt" not in warm

    def test_disabled_cache_reports_nothing(self, monkeypatch):
        monkeypatch.delenv(kernel_cache.ENV_VAR, raising=False)
        counters = self.counters_of_gahitec_run()
        assert not any(k.startswith("sim.kernel_cache") for k in counters)


class TestGeneratorGuard:
    def test_kernel_source_is_pinned_to_the_cache_version(self):
        cc = compile_circuit(s27())
        hot = frozenset(cc.po) | frozenset(cc.ff_in)
        got = {
            name: hashlib.sha256(generate_kernel_source(
                cc, _canonical([injection_for(cc, f, 1) for f in faults]),
                writeback=hot,
            ).encode()).hexdigest()
            for name, faults in _SHAPES.items()
        }
        assert got == KERNEL_SOURCE_SHA256.get(KERNEL_CACHE_VERSION), (
            "the kernel generator changed: bump KERNEL_CACHE_VERSION and "
            "pin these hashes under the new version"
        )
