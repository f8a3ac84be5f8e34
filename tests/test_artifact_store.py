"""The crash-safe, bounded artifact store under injected hostility.

Every failure class the store claims to survive is exercised here with
deterministic fault plans: torn writes never publish a partial entry,
bit flips are caught by checksums and quarantined with a recorded
reason, ``ENOSPC`` on store degrades to a counted miss, ``EIO`` on
load degrades to a recompute without condemning the entry, the byte
budget evicts the least recently used entries first, and two
processes racing store/load/gc on the same keys (with the
``store_pause`` injection widening the window) always observe correct
artifacts — never a torn one.
"""

import hashlib
import json
import os

import pytest

from repro import faultinject
from repro.evalharness.artifacts import (
    ARTIFACT_SCHEMA,
    CAPACITY_ENV,
    ArtifactCache,
    artifact_key,
    parse_size,
)
from repro.evalharness.artifacts_cli import main as artifacts_main
from repro.evalharness.parallel import pool_map
from repro.unified.pipeline import CompilationOptions


@pytest.fixture(autouse=True)
def _mask_ambient_fault_plan():
    # Exact-counter tests; each test opens its own plan when it wants
    # faults, which overrides this mask for its dynamic extent.
    with faultinject.fault_plan(None):
        yield


def program_printing(value):
    """A tiny MiniC program whose only output is ``value``."""
    return (
        "int main() {{\n"
        "    int values[4];\n"
        "    int i;\n"
        "    for (i = 0; i < 4; i++) {{ values[i] = i + {0}; }}\n"
        "    print(values[3]);\n"
        "    return 0;\n"
        "}}\n"
    ).format(value)


SIMPLE = program_printing(10)
EXPECTED = (13,)


@pytest.fixture()
def cache(tmp_path):
    return ArtifactCache(str(tmp_path / "store"))


def entry_dir(cache, source):
    key = artifact_key(source, CompilationOptions().normalized())
    return key, os.path.join(cache.root, key[:2], key)


class TestIntegrityMetadata:
    def test_meta_records_payload_checksums(self, cache):
        cache.resolve("simple", SIMPLE)
        key, entry = entry_dir(cache, SIMPLE)
        with open(os.path.join(entry, "meta.json")) as handle:
            meta = json.load(handle)
        assert meta["schema"] == ARTIFACT_SCHEMA
        assert meta["stored_at"] > 0
        for filename in ("program.pkl", "trace.bin"):
            with open(os.path.join(entry, filename), "rb") as handle:
                digest = hashlib.sha256(handle.read()).hexdigest()
            assert meta["checksums"][filename] == digest

    def test_poisoned_pickle_never_deserialized(self, cache):
        # A tampered program.pkl must be rejected by checksum before
        # pickle.loads ever sees it: plant a pickle that would raise
        # if executed.
        cache.resolve("simple", SIMPLE)
        _key, entry = entry_dir(cache, SIMPLE)
        with open(os.path.join(entry, "program.pkl"), "wb") as handle:
            handle.write(
                b"cos\nsystem\n(S'exit 99'\ntR."  # classic pickle bomb
            )
        artifact = cache.resolve("simple", SIMPLE)
        assert artifact.output == EXPECTED
        assert cache.quarantined == 1


class TestInjectedStoreFaults:
    def test_bitflip_quarantines_with_reason(self, cache):
        first = cache.resolve("simple", SIMPLE)
        with faultinject.fault_plan("seed=3,bitflip=1.0") as plan:
            flipped = cache.resolve("simple", SIMPLE)
            assert plan.fired.get("bitflip") == 1
        assert flipped.output == first.output
        assert cache.quarantined == 1
        entries = cache.quarantine_entries()
        assert [key for key, _ in entries] == [first.key]
        with open(os.path.join(entries[0][1], "reason.json")) as handle:
            reason = json.load(handle)
        assert reason["key"] == first.key
        assert "checksum mismatch" in reason["reason"]
        # The recompute stored a clean copy: next lookup is a hit.
        assert cache.resolve("simple", SIMPLE).from_cache
        assert cache.hits == 1

    def test_torn_write_never_publishes_partial(self, cache):
        with faultinject.fault_plan("seed=3,torn_write=1.0") as plan:
            stored = cache.resolve("simple", SIMPLE)
            assert plan.fired.get("torn_write", 0) >= 1
        # The resolve itself still returned the computed artifact.
        assert stored.output == EXPECTED
        # Whatever the torn write left on disk fails verification and
        # is quarantined — it is never served as a hit.
        checked, bad = cache.verify()
        assert checked == 1
        assert len(bad) == 1
        second = cache.resolve("simple", SIMPLE)
        assert second.output == EXPECTED
        assert not second.from_cache
        third = cache.resolve("simple", SIMPLE)
        assert third.from_cache and third.output == EXPECTED

    def test_store_enospc_swallowed_and_counted(self, cache):
        with faultinject.fault_plan("seed=2,store_oserror=1.0"):
            first = cache.resolve("simple", SIMPLE)
            assert first.output == EXPECTED
            assert cache.store_errors == 1
            assert list(cache.entries()) == []
            # The injected fault is transient (limit=1): the next store
            # in the same plan succeeds.
            second = cache.resolve("simple", SIMPLE)
            assert not second.from_cache
            third = cache.resolve("simple", SIMPLE)
            assert third.from_cache
        assert (cache.hits, cache.misses) == (1, 2)

    def test_load_eio_degrades_to_miss_without_condemning(self, cache):
        cache.resolve("simple", SIMPLE)
        with faultinject.fault_plan("seed=2,load_oserror=1.0"):
            degraded = cache.resolve("simple", SIMPLE)
            assert degraded.output == EXPECTED
            assert cache.quarantined == 0
            # The entry survived; the next load (past the limit) hits.
            assert cache.resolve("simple", SIMPLE).from_cache


class TestBoundedCapacity:
    def _fill(self, cache, count=3):
        keys = []
        for index in range(count):
            artifact = cache.resolve(
                "p{}".format(index), program_printing(index)
            )
            keys.append(artifact.key)
        return keys

    def _stamp(self, cache, key, when):
        entry = os.path.join(cache.root, key[:2], key)
        os.utime(os.path.join(entry, "stamp"), (when, when))

    def test_lru_evicts_least_recently_used(self, cache):
        keys = self._fill(cache)
        # Make key 1 the cold one, key 0 the hottest.
        self._stamp(cache, keys[0], 3000)
        self._stamp(cache, keys[1], 1000)
        self._stamp(cache, keys[2], 2000)
        total = sum(cache.entry_size(e) for _, e in cache.entries())
        cache.capacity_bytes = total - 1
        _removed, evicted = cache.gc()
        assert evicted == 1
        remaining = {key for key, _ in cache.entries()}
        assert keys[1] not in remaining
        assert keys[0] in remaining and keys[2] in remaining

    def test_budget_needing_two_evictions(self, cache):
        """Each eviction removes a different entry, coldest first,
        until the store fits."""
        keys = self._fill(cache, count=4)
        for key, when in zip(keys, (1000, 2000, 3000, 4000)):
            self._stamp(cache, key, when)
        sizes = {key: cache.entry_size(entry)
                 for key, entry in cache.entries()}
        # Only the two newest entries fit.
        cache.capacity_bytes = sizes[keys[2]] + sizes[keys[3]]
        _removed, evicted = cache.gc()
        assert evicted == 2
        assert {key for key, _ in cache.entries()} == set(keys[2:])
        assert cache.stats()["bytes"] <= cache.capacity_bytes

    def test_budget_enforced_after_store(self, tmp_path):
        cache = ArtifactCache(str(tmp_path / "store"))
        self._fill(cache, count=1)
        size = sum(cache.entry_size(e) for _, e in cache.entries())
        cache.capacity_bytes = int(size * 1.5)
        self._fill(cache, count=3)
        # Every store re-enforced the budget: at most one entry fits.
        assert len(list(cache.entries())) == 1
        assert cache.evicted >= 2

    def test_parse_size(self):
        assert parse_size(None) is None
        assert parse_size(4096) == 4096
        assert parse_size("64") == 64
        assert parse_size("2k") == 2048
        assert parse_size("1.5M") == int(1.5 * (1 << 20))
        assert parse_size("1G") == 1 << 30

    def test_env_budget_and_policy(self, tmp_path, monkeypatch):
        # The budget is the store's one setting; eviction is always LRU.
        monkeypatch.setenv(CAPACITY_ENV, "2K")
        cache = ArtifactCache(str(tmp_path / "store"))
        assert cache.capacity_bytes == 2048


class TestMaintenance:
    def test_gc_reaps_only_stale_staging(self, cache):
        cache.resolve("simple", SIMPLE)
        key, _entry = entry_dir(cache, SIMPLE)
        shard = os.path.join(cache.root, key[:2])
        stale = os.path.join(shard, ".staging-stale")
        fresh = os.path.join(shard, ".staging-fresh")
        os.makedirs(stale)
        os.makedirs(fresh)
        os.utime(stale, (1, 1))
        removed, _evicted = cache.gc(max_staging_age=3600)
        assert removed == 1
        assert not os.path.isdir(stale)
        assert os.path.isdir(fresh)

    def test_verify_quarantines_manual_corruption(self, cache):
        artifact = cache.resolve("simple", SIMPLE)
        _key, entry = entry_dir(cache, SIMPLE)
        trace_path = os.path.join(entry, "trace.bin")
        with open(trace_path, "r+b") as handle:
            handle.seek(5)
            byte = handle.read(1)
            handle.seek(5)
            handle.write(bytes([byte[0] ^ 0xFF]))
        checked, bad = cache.verify()
        assert checked == 1
        assert bad == [(artifact.key, "trace.bin: checksum mismatch")]
        assert list(cache.entries()) == []
        assert [key for key, _ in cache.quarantine_entries()] == [
            artifact.key
        ]
        assert cache.quarantine_clear() == 1
        assert cache.quarantine_entries() == []

    def test_stats_snapshot(self, cache):
        cache.resolve("simple", SIMPLE)
        cache.resolve("simple", SIMPLE)
        stats = cache.stats()
        assert stats["entries"] == 1
        assert stats["bytes"] > 0
        assert stats["session"]["hits"] == 1
        assert stats["session"]["misses"] == 1


class TestArtifactsCLI:
    def test_stats_and_json(self, cache, capsys):
        cache.resolve("simple", SIMPLE)
        assert artifacts_main(["--root", cache.root, "stats"]) == 0
        plain = capsys.readouterr().out
        assert "entries          1" in plain
        assert artifacts_main(["--root", cache.root, "stats", "--json"]) == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats["entries"] == 1

    def test_verify_exit_codes(self, cache, capsys):
        cache.resolve("simple", SIMPLE)
        assert artifacts_main(["--root", cache.root, "verify"]) == 0
        assert "all entries intact" in capsys.readouterr().out
        _key, entry = entry_dir(cache, SIMPLE)
        with open(os.path.join(entry, "trace.bin"), "ab") as handle:
            handle.write(b"garbage")
        assert artifacts_main(["--root", cache.root, "verify"]) == 1
        out = capsys.readouterr().out
        assert "quarantined" in out

    def test_gc_with_budget(self, cache, capsys):
        for index in range(3):
            cache.resolve("p{}".format(index), program_printing(index))
        assert artifacts_main(
            ["--root", cache.root, "--budget", "1", "gc"]
        ) == 0
        out = capsys.readouterr().out
        assert "evicted 3 entries" in out

    def test_quarantine_ls_and_clear(self, cache, capsys):
        cache.resolve("simple", SIMPLE)
        _key, entry = entry_dir(cache, SIMPLE)
        with open(os.path.join(entry, "meta.json"), "w") as handle:
            handle.write("{broken")
        cache.resolve("simple", SIMPLE)  # quarantines the broken entry
        key, _entry = entry_dir(cache, SIMPLE)
        assert artifacts_main(
            ["--root", cache.root, "quarantine", "ls"]
        ) == 0
        assert key[:16] in capsys.readouterr().out
        assert artifacts_main(
            ["--root", cache.root, "quarantine", "clear"]
        ) == 0
        assert "cleared 1" in capsys.readouterr().out
        assert artifacts_main(
            ["--root", cache.root, "quarantine", "ls"]
        ) == 0
        assert "quarantine is empty" in capsys.readouterr().out


# ----------------------------------------------------------------------
# Satellite: two processes racing store/load/gc on the same keys.
# ----------------------------------------------------------------------


def _race_worker(payload):
    """One racing process: resolve a shared key list, gc aggressively.

    The ``store_pause`` injection stalls every store between staging
    and publish, so both processes sit inside the store window at the
    same time while the other's ``gc(max_staging_age=0)`` tries to
    sweep staging directories from under them.  The contract under
    test: every resolve returns the correct output, no matter who wins
    any race.
    """
    root, sources, seed = payload
    plan = "seed={},store_pause=1.0,limit=8,stall_seconds=0.05".format(seed)
    outputs = []
    with faultinject.fault_plan(plan):
        cache = ArtifactCache(root)
        for round_no, source in enumerate(sources):
            artifact = cache.resolve("race", source)
            outputs.append(tuple(artifact.output))
            if round_no % 2 == 1:
                cache.gc(max_staging_age=0.0)
    return outputs


#: The ``os`` calls a ``gc`` pass makes, its ``shutil.rmtree`` included;
#: the deterministic race below lets the writer publish before each.
_FS_CALLS = ("stat", "lstat", "open", "scandir", "listdir", "unlink",
             "rmdir", "rename", "replace")


class TestConcurrentAccess:
    def test_publish_at_every_point_of_a_gc_pass(self, tmp_path,
                                                 monkeypatch):
        """A writer publishes a stale staging directory (``os.rename``
        onto its entry) just before the n-th filesystem call of a
        ``gc(max_staging_age=0)`` pass, for every n the pass makes.
        Between gc's listing and its claim the publish wins and the
        entry must stay whole; once gc has claimed the directory the
        publish must fail cleanly.  Either way nothing torn is left."""
        cache = ArtifactCache(str(tmp_path / "store"))
        source = program_printing(4)
        real_rename = os.rename
        outcomes = set()
        step = 0
        while True:
            assert cache.resolve("race", source).output == (7,)
            ((_key, entry),) = list(cache.entries())
            staging = os.path.join(os.path.dirname(entry), ".staging-racer")
            real_rename(entry, staging)  # staged, not yet published
            calls = [0]
            published = []

            def racing(real):
                def call(*args, **kwargs):
                    if calls[0] == step and not published:
                        try:
                            real_rename(staging, entry)
                            published.append(True)
                        except OSError:
                            published.append(False)  # gc claimed it
                    calls[0] += 1
                    return real(*args, **kwargs)

                return call

            with monkeypatch.context() as patch:
                for name in _FS_CALLS:
                    patch.setattr(os, name, racing(getattr(os, name)))
                cache.gc(max_staging_age=0.0)
            if not published:
                break  # the writer has raced every call of the pass
            _checked, bad = cache.verify()
            assert bad == [], (step, bad)
            assert not os.path.exists(staging), step
            assert os.path.isdir(entry) == published[0], step
            outcomes.add(published[0])
            step += 1
        assert outcomes == {True, False}

    def test_two_processes_racing_store_load_gc(self, tmp_path):
        root = str(tmp_path / "shared-store")
        sources = [program_printing(value) for value in (1, 2, 3)]
        expected = [(value + 3,) for value in (1, 2, 3)]
        results = pool_map(
            _race_worker,
            [(root, sources, 21), (root, sources, 22)],
            jobs=2,
        )
        for outputs in results:
            assert outputs == expected
        # Nothing torn was ever published: every surviving entry
        # passes verification, and a fresh reader sees correct data.
        reader = ArtifactCache(root)
        _checked, bad = reader.verify()
        assert bad == []
        for source, output in zip(sources, expected):
            assert reader.resolve("race", source).output == output
