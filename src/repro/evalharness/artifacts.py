"""Content-addressed, crash-safe, bounded cache of compiled programs
and traces.

The expensive half of every experiment is invariant across cache
geometries: compiling a benchmark under one annotation configuration
and executing it once on the VM to record the reference trace.  This
module stores exactly that pair — the pickled
:class:`~repro.unified.pipeline.CompiledProgram` and the serialized
:class:`~repro.vm.trace.TraceBuffer` — keyed by the SHA-256 of
``(artifact schema, compiler version, source text, normalized
compilation options)``, so each (benchmark × annotation-config) unit
is compiled and VM-executed exactly once no matter how many sweep
configurations replay it.

Layout under the cache root (``REPRO_ARTIFACT_CACHE`` or
``~/.cache/repro/artifacts``)::

    <key[:2]>/<key>/meta.json     name, output, steps, events, checksums
    <key[:2]>/<key>/program.pkl   pickled CompiledProgram
    <key[:2]>/<key>/trace.bin     serialized TraceBuffer
    <key[:2]>/<key>/stamp         empty; mtime = last access (LRU order)
    quarantine/<key>/             corrupt entries, plus reason.json

The store is built to survive a hostile disk (see
``docs/ROBUSTNESS.md`` and :mod:`repro.faultinject`):

* **Crash-safe writes** — entries are staged in a temp directory,
  every file is flushed and fsynced, and the entry appears via one
  atomic rename (the parent directory is fsynced after).  A crash or
  torn write mid-store leaves either no entry or a stale staging
  directory (reaped by ``gc``), never a partially visible one.
* **Integrity** — ``meta.json`` records the SHA-256 of ``program.pkl``
  and ``trace.bin``; loads verify the payload *before* unpickling, so
  a poisoned or bit-flipped pickle is never deserialized.
* **Quarantine, not re-serve** — a corrupt entry is moved to
  ``quarantine/<key>/`` with a ``reason.json`` and recomputed; it is
  never silently re-read on the next lookup, and ``repro-artifacts
  quarantine ls`` lists the evidence for triage.
* **Bounded capacity** — an optional byte budget
  (``capacity_bytes=...`` or ``$REPRO_ARTIFACT_BUDGET``, suffixes
  K/M/G) is enforced after every store by evicting whole entries,
  least recently used first (last access is the ``stamp`` file's
  mtime).

Invalidation is by key only: bump ``ARTIFACT_SCHEMA`` whenever the
trace format, the pickle layout, or any compilation semantics change
without a version bump.

Every trace the harness scores comes from :func:`resolve`, with or
without a store: :func:`record` runs a compiled program under the
recorder, and :func:`check_output` is the one benchmark-output check.
"""

import hashlib
import json
import os
import pickle
import shutil
import tempfile
import time

from repro import __version__
from repro import faultinject
from repro.lang.errors import VMError
from repro.unified.pipeline import CompilationOptions, compile_source
from repro.vm.memory import RecordingMemory
from repro.vm.trace import TraceBuffer

#: Bump to invalidate every stored artifact (schema/semantics change).
#: 2: per-entry payload checksums + stored_at in meta.json.
ARTIFACT_SCHEMA = 2

#: Environment override for the default cache root.
CACHE_ROOT_ENV = "REPRO_ARTIFACT_CACHE"

#: Environment override for the capacity budget (bytes; K/M/G suffix).
CAPACITY_ENV = "REPRO_ARTIFACT_BUDGET"

#: The files making up one entry; checksummed ones first.
_PAYLOAD_FILES = ("program.pkl", "trace.bin")
_ENTRY_FILES = _PAYLOAD_FILES + ("meta.json", "stamp")

#: Name of the quarantine directory under the root.
QUARANTINE_DIR = "quarantine"

#: Prefixes of a store's staging directory and of a staging directory
#: ``gc`` has claimed for deletion; entries never start with a dot.
_STAGING_PREFIX = ".staging-"
_TOMBSTONE_PREFIX = ".tombstone-"


def default_cache_root():
    root = os.environ.get(CACHE_ROOT_ENV)
    if root:
        return root
    return os.path.join(
        os.path.expanduser("~"), ".cache", "repro", "artifacts"
    )


def parse_size(text):
    """``"64M"`` -> bytes; plain integers pass through."""
    if text is None:
        return None
    if isinstance(text, int):
        return text
    text = text.strip().upper()
    factor = 1
    for suffix, mult in (("K", 1 << 10), ("M", 1 << 20), ("G", 1 << 30)):
        if text.endswith(suffix):
            factor = mult
            text = text[: -len(suffix)]
            break
    return int(float(text) * factor)


def options_fingerprint(options):
    """A JSON-stable description of everything that affects codegen."""
    options = options.normalized()
    machine = options.machine
    return {
        "scheme": options.scheme.value,
        "promotion": options.promotion.value,
        "promotion_budget": options.promotion_budget,
        "kill_bits": options.kill_bits,
        "spill_to_cache": options.spill_to_cache,
        "refine_points_to": options.refine_points_to,
        "cache_globals_in_blocks": options.cache_globals_in_blocks,
        "bypass_user_refs": options.bypass_user_refs,
        "merge_true_aliases": options.merge_true_aliases,
        "machine": {
            "num_regs": machine.num_regs,
            "num_arg_regs": machine.num_arg_regs,
            "ret_reg": machine.ret_reg,
            "num_caller_saved": machine.num_caller_saved,
        },
    }


def artifact_key(source, options):
    """The content address of one (source × options) compilation."""
    payload = json.dumps(
        {
            "schema": ARTIFACT_SCHEMA,
            "compiler": __version__,
            "source": source,
            "options": options_fingerprint(options),
        },
        sort_keys=True,
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


class Artifact:
    """One resolved compile-once/trace-once unit."""

    __slots__ = ("key", "name", "program", "trace", "output", "steps",
                 "from_cache")

    def __init__(self, key, name, program, trace, output, steps, from_cache):
        self.key = key
        self.name = name
        self.program = program
        self.trace = trace
        self.output = output
        self.steps = steps
        self.from_cache = from_cache


def check_output(name, output, expected_output):
    """Raise a stage-``vm`` :class:`VMError` unless ``output`` is the
    ``expected_output`` (``None`` checks nothing)."""
    if expected_output is not None and tuple(output) != tuple(
        expected_output
    ):
        raise VMError(
            "benchmark {} produced {} instead of {}".format(
                name, list(output), list(expected_output)
            )
        )


def record(name, program, expected_output=None, key=None):
    """Run a compiled program once under the recorder, check its
    output, and return the fresh :class:`Artifact`."""
    memory = RecordingMemory()
    result = program.run(memory=memory)
    check_output(name, result.output, expected_output)
    return Artifact(key, name, program, memory.buffer, tuple(result.output),
                    result.steps, from_cache=False)


def resolve(name, source, options=None, expected_output=None,
            artifact_cache=None):
    """Compile, record and check ``source``: the one route to a trace.

    With ``artifact_cache`` this is :meth:`ArtifactCache.resolve`.
    Without one the unit is compiled and recorded in-process by the
    same :func:`record`, and nothing touches a store.
    """
    if artifact_cache is not None:
        return artifact_cache.resolve(name, source, options, expected_output)
    options = options or CompilationOptions()
    return record(name, compile_source(source, options), expected_output,
                  key=artifact_key(source, options))


def _fsync_file(handle):
    handle.flush()
    os.fsync(handle.fileno())


def _fsync_dir(path):
    # Directory fsync is what makes the rename itself durable; not all
    # platforms/filesystems allow it, and losing it only weakens
    # durability, never atomicity.
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


class ArtifactCache:
    """Resolve (source × options) units, hitting disk when possible.

    ``capacity_bytes`` bounds the store: after every write the total
    entry footprint is brought back under budget by evicting whole
    entries, least recently used first.  Instance counters (``hits``,
    ``misses``, ``store_errors``, ``quarantined``, ``evicted``)
    describe this process's view.
    """

    def __init__(self, root=None, capacity_bytes=None):
        self.root = root if root is not None else default_cache_root()
        if capacity_bytes is None:
            capacity_bytes = parse_size(os.environ.get(CAPACITY_ENV))
        self.capacity_bytes = capacity_bytes
        self.hits = 0
        self.misses = 0
        self.store_errors = 0
        self.quarantined = 0
        self.evicted = 0

    # ------------------------------------------------------------------

    def resolve(self, name, source, options=None, expected_output=None):
        """Compile and trace ``source`` exactly once.

        On a hit the program, trace, output and step count come back
        from disk; on a miss (or a corrupt/quarantined entry) the unit
        is recomputed and stored.  A store failure (disk full, injected
        ``OSError``) is counted and swallowed — the computed artifact
        is still returned, the cache just stays cold for that key.
        ``expected_output`` is enforced on both paths by
        :func:`check_output`, after a miss is stored.
        """
        options = (options or CompilationOptions()).normalized()
        key = artifact_key(source, options)
        artifact = self._load(key, name)
        if artifact is None:
            artifact = record(name, compile_source(source, options), key=key)
            try:
                self._store(artifact)
            except OSError:
                self.store_errors += 1
            self.misses += 1
        else:
            self.hits += 1
        check_output(name, artifact.output, expected_output)
        return artifact

    def clear(self):
        """Delete every stored artifact under this root."""
        if os.path.isdir(self.root):
            shutil.rmtree(self.root)

    # -- maintenance (the ``repro-artifacts`` CLI drives these) --------

    def entries(self):
        """Yield ``(key, entry_dir)`` for every stored entry."""
        if not os.path.isdir(self.root):
            return
        for shard in sorted(os.listdir(self.root)):
            shard_dir = os.path.join(self.root, shard)
            if len(shard) != 2 or not os.path.isdir(shard_dir):
                continue
            for key in sorted(os.listdir(shard_dir)):
                entry = os.path.join(shard_dir, key)
                if not key.startswith(".") and os.path.isdir(entry):
                    yield key, entry

    def entry_size(self, entry):
        total = 0
        try:
            for item in os.scandir(entry):
                try:
                    total += item.stat().st_size
                except OSError:
                    pass
        except OSError:
            pass
        return total

    def stats(self):
        """A JSON-friendly snapshot: footprint, budget, quarantine."""
        entries = list(self.entries())
        total = sum(self.entry_size(entry) for _, entry in entries)
        quarantine = self.quarantine_entries()
        return {
            "root": self.root,
            "entries": len(entries),
            "bytes": total,
            "capacity_bytes": self.capacity_bytes,
            "quarantine_entries": len(quarantine),
            "quarantine_bytes": sum(
                self.entry_size(path) for _, path in quarantine
            ),
            "session": {
                "hits": self.hits,
                "misses": self.misses,
                "store_errors": self.store_errors,
                "quarantined": self.quarantined,
                "evicted": self.evicted,
            },
        }

    def verify(self):
        """Integrity-check every entry; quarantine the corrupt ones.

        Returns ``(checked, bad)`` where ``bad`` lists ``(key,
        reason)`` for every entry that failed and was quarantined.
        """
        checked = 0
        bad = []
        for key, entry in list(self.entries()):
            checked += 1
            reason = self._verify_entry(key, entry)
            if reason is not None:
                self._quarantine(key, entry, reason)
                bad.append((key, reason))
        return checked, bad

    def gc(self, max_staging_age=3600.0):
        """Reap stale staging directories and enforce the byte budget.

        Returns ``(staging_removed, evicted)``.  Staging directories
        are only removed once older than ``max_staging_age`` seconds so
        a concurrent in-flight store is never swept from under the
        writer.  A stale one is first claimed by renaming it to a
        private tombstone name, and only the claimed directory is
        deleted.  The claim and the writer's publishing rename are both
        atomic, so exactly one wins: a writer that publishes first keeps
        its entry whole, and one that comes second fails its rename into
        its ``OSError`` path.  Tombstones an interrupted ``gc`` left
        behind are reaped too.
        """
        removed = 0
        now = time.time()
        if os.path.isdir(self.root):
            for shard in os.listdir(self.root):
                shard_dir = os.path.join(self.root, shard)
                if len(shard) != 2 or not os.path.isdir(shard_dir):
                    continue
                for item in os.listdir(shard_dir):
                    path = os.path.join(shard_dir, item)
                    if item.startswith(_TOMBSTONE_PREFIX):
                        shutil.rmtree(path, ignore_errors=True)
                        continue
                    if not item.startswith(_STAGING_PREFIX):
                        continue
                    tombstone = os.path.join(
                        shard_dir,
                        _TOMBSTONE_PREFIX + item[len(_STAGING_PREFIX):],
                    )
                    try:
                        if now - os.path.getmtime(path) < max_staging_age:
                            continue
                        os.rename(path, tombstone)
                    except OSError:
                        continue  # published or removed by its writer
                    shutil.rmtree(tombstone, ignore_errors=True)
                    removed += 1
        evicted = self._enforce_budget()
        return removed, evicted

    def quarantine_entries(self):
        """``(key, path)`` for every quarantined entry."""
        quarantine = os.path.join(self.root, QUARANTINE_DIR)
        if not os.path.isdir(quarantine):
            return []
        return [
            (key, os.path.join(quarantine, key))
            for key in sorted(os.listdir(quarantine))
            if os.path.isdir(os.path.join(quarantine, key))
        ]

    def quarantine_clear(self):
        """Delete the quarantine directory; returns entries removed."""
        entries = self.quarantine_entries()
        shutil.rmtree(
            os.path.join(self.root, QUARANTINE_DIR), ignore_errors=True
        )
        return len(entries)

    # ------------------------------------------------------------------

    def _entry_dir(self, key):
        return os.path.join(self.root, key[:2], key)

    # -- load ----------------------------------------------------------

    def _read_payload(self, entry, key, filename, expected_checksum):
        """Read and integrity-check one payload file.

        The checksum is verified on the raw bytes *before* any parsing
        or unpickling — a poisoned pickle that does not match its
        recorded digest is never fed to ``pickle.loads``.
        """
        with open(os.path.join(entry, filename), "rb") as handle:
            data = handle.read()
        data = faultinject.corrupt_bytes(
            "bitflip", "{}/{}".format(key, filename), data
        )
        digest = hashlib.sha256(data).hexdigest()
        if digest != expected_checksum:
            raise _Corrupt(
                "{}: checksum mismatch (stored {}, found {})".format(
                    filename, expected_checksum[:12], digest[:12]
                )
            )
        return data

    def _load(self, key, name):
        entry = self._entry_dir(key)
        if not os.path.isdir(entry):
            return None
        try:
            faultinject.raise_oserror("load_oserror", key)
            with open(os.path.join(entry, "meta.json")) as handle:
                meta = json.load(handle)
            if meta.get("schema") != ARTIFACT_SCHEMA:
                raise _Corrupt(
                    "meta.json: schema {} != {}".format(
                        meta.get("schema"), ARTIFACT_SCHEMA
                    )
                )
            checksums = meta["checksums"]
            program_bytes = self._read_payload(
                entry, key, "program.pkl", checksums["program.pkl"]
            )
            trace_bytes = self._read_payload(
                entry, key, "trace.bin", checksums["trace.bin"]
            )
            program = pickle.loads(program_bytes)
            trace = TraceBuffer.from_bytes(trace_bytes)
            if len(trace) != meta["events"]:
                raise _Corrupt(
                    "trace.bin: {} events, meta promises {}".format(
                        len(trace), meta["events"]
                    )
                )
        except OSError:
            # Transient I/O failure (or a concurrent eviction): degrade
            # to a miss without condemning the entry.
            return None
        except (_Corrupt, ValueError, KeyError, TypeError,
                pickle.UnpicklingError, EOFError,
                json.JSONDecodeError) as error:
            # Corrupt: quarantine so the bad entry is never re-read and
            # re-parsed on the next lookup, then recompute.
            self._quarantine(key, entry, str(error))
            return None
        self._touch(entry)
        return Artifact(
            key,
            name,
            program,
            trace,
            tuple(meta["output"]),
            meta["steps"],
            from_cache=True,
        )

    def _touch(self, entry):
        """Refresh the LRU stamp; best-effort (hits must never fail)."""
        try:
            os.utime(os.path.join(entry, "stamp"))
        except OSError:
            pass

    def _verify_entry(self, key, entry):
        """The reason this entry is corrupt, or ``None`` if intact."""
        try:
            with open(os.path.join(entry, "meta.json")) as handle:
                meta = json.load(handle)
            if meta.get("schema") != ARTIFACT_SCHEMA:
                return "meta.json: schema {} != {}".format(
                    meta.get("schema"), ARTIFACT_SCHEMA
                )
            for filename in _PAYLOAD_FILES:
                expected = meta["checksums"][filename]
                with open(os.path.join(entry, filename), "rb") as handle:
                    digest = hashlib.sha256(handle.read()).hexdigest()
                if digest != expected:
                    return "{}: checksum mismatch".format(filename)
        except (OSError, ValueError, KeyError, TypeError,
                json.JSONDecodeError) as error:
            return "{}: {}".format(type(error).__name__, error)
        return None

    # -- quarantine ----------------------------------------------------

    def _quarantine(self, key, entry, reason):
        """Move a corrupt entry out of the lookup path, keeping it for
        triage; fall back to deletion if the move itself fails."""
        quarantine = os.path.join(self.root, QUARANTINE_DIR)
        destination = os.path.join(quarantine, key)
        try:
            os.makedirs(quarantine, exist_ok=True)
            if os.path.isdir(destination):
                shutil.rmtree(destination, ignore_errors=True)
            os.rename(entry, destination)
            with open(os.path.join(destination, "reason.json"),
                      "w") as handle:
                json.dump(
                    {
                        "key": key,
                        "reason": reason,
                        "quarantined_at": time.strftime(
                            "%Y-%m-%dT%H:%M:%SZ", time.gmtime()
                        ),
                    },
                    handle,
                    indent=2,
                    sort_keys=True,
                )
                handle.write("\n")
        except OSError:
            # Quarantine failed (another process won the race, or the
            # disk is sick): delete instead — a corrupt entry must not
            # stay in the lookup path either way.
            shutil.rmtree(entry, ignore_errors=True)
        self.quarantined += 1

    # -- store ---------------------------------------------------------

    def _write_staged(self, staging, filename, data, key):
        """Write one staged file durably, with torn-write injection."""
        data = faultinject.truncate_bytes(
            "torn_write", "{}/{}".format(key, filename), data
        )
        with open(os.path.join(staging, filename), "wb") as handle:
            handle.write(data)
            _fsync_file(handle)

    def _store(self, artifact):
        key = artifact.key
        entry = self._entry_dir(key)
        parent = os.path.dirname(entry)
        faultinject.raise_oserror("store_oserror", key)
        os.makedirs(parent, exist_ok=True)
        staging = tempfile.mkdtemp(prefix=_STAGING_PREFIX, dir=parent)
        try:
            program_bytes = pickle.dumps(
                artifact.program, protocol=pickle.HIGHEST_PROTOCOL
            )
            trace_bytes = artifact.trace.to_bytes()
            meta = {
                "schema": ARTIFACT_SCHEMA,
                "compiler": __version__,
                "name": artifact.name,
                "output": list(artifact.output),
                "steps": artifact.steps,
                "events": len(artifact.trace),
                "stored_at": time.time(),
                "checksums": {
                    "program.pkl": hashlib.sha256(program_bytes).hexdigest(),
                    "trace.bin": hashlib.sha256(trace_bytes).hexdigest(),
                },
            }
            self._write_staged(staging, "program.pkl", program_bytes, key)
            self._write_staged(staging, "trace.bin", trace_bytes, key)
            self._write_staged(
                staging,
                "meta.json",
                (json.dumps(meta, indent=2, sort_keys=True) + "\n").encode(
                    "utf-8"
                ),
                key,
            )
            with open(os.path.join(staging, "stamp"), "wb") as handle:
                _fsync_file(handle)
            faultinject.stall_point("store_pause", key)
            if os.path.isdir(entry):
                # A concurrent worker already stored this key; its copy
                # is equivalent (same content address), keep it.
                shutil.rmtree(staging)
                return
            try:
                os.rename(staging, entry)
            except OSError:
                shutil.rmtree(staging, ignore_errors=True)
                return
            _fsync_dir(parent)
        except BaseException:
            shutil.rmtree(staging, ignore_errors=True)
            raise
        self._enforce_budget()

    # -- eviction ------------------------------------------------------

    def _enforce_budget(self):
        """Bring the store back under ``capacity_bytes``.

        Entries go least recently used first (:meth:`_entry_stamp`,
        ties in :meth:`entries` order), one at a time until the
        footprint fits.  Returns entries evicted.
        """
        if not self.capacity_bytes:
            return 0
        entries = []
        total = 0
        for _key, entry in self.entries():
            size = self.entry_size(entry)
            entries.append((entry, size))
            total += size
        evicted = 0
        if total > self.capacity_bytes:
            entries.sort(key=lambda item: self._entry_stamp(item[0]))
            for entry, size in entries:
                if total <= self.capacity_bytes:
                    break
                shutil.rmtree(entry, ignore_errors=True)
                total -= size
                evicted += 1
        self.evicted += evicted
        return evicted

    def _entry_stamp(self, entry):
        """When an entry was last used: the ``stamp`` file's mtime,
        refreshed on every hit, falling back to the directory's."""
        try:
            return os.path.getmtime(os.path.join(entry, "stamp"))
        except OSError:
            try:
                return os.path.getmtime(entry)
            except OSError:
                return 0.0


class _Corrupt(ValueError):
    """Internal: an entry failed an integrity check."""
