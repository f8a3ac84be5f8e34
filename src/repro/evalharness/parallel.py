"""The supervised parallel compile-once/trace-once evaluation engine.

The unit of work is one (benchmark × annotation-config): compiling it
and tracing it on the VM happens exactly once (amortized to zero by
the on-disk :class:`~repro.evalharness.artifacts.ArtifactCache`),
after which any number of cache geometries are scored against the
stored trace through the single-pass sweep dispatcher.
Units fan out over a :class:`~concurrent.futures.ProcessPoolExecutor`
and merge deterministically: results come back in unit order, failures
are recorded in unit order, and every replay is bit-identical to the
serial ``run_benchmark`` path (the equivalence battery in
``tests/test_parallel_equivalence.py`` holds the engine to that).

On top of the deterministic merge sits a *supervisor*
(:class:`Supervisor`): per-unit watchdog timeouts reap hung workers,
transient failures (injected faults, ``OSError``, crashed workers) are
retried a bounded number of times with seeded exponential backoff, a
unit that keeps failing is quarantined — recorded as a
:class:`~repro.errors.WorkerQuarantined` failure, never raised past a
``failures`` collector — and when the pool itself dies more often than
the rebuild budget allows, the remaining units fall back to supervised
serial execution.  A :class:`Journal` checkpoints each completed
unit's outcome to disk so a killed sweep resumes from completed units
bit-identically.  The fault classes themselves live in
:mod:`repro.faultinject`; this module only promises that every one of
them ends in retry-success, quarantine-with-recorded-reason, or serial
fallback — never a wrong result.
"""

import hashlib
import json
import os
import pickle
import struct
import time
from concurrent.futures import (
    FIRST_COMPLETED,
    BrokenExecutor,
    ProcessPoolExecutor,
    wait,
)
from dataclasses import dataclass, field

from repro import faultinject
from repro.errors import (
    FaultInjected,
    WorkerQuarantined,
    failure_record,
)
from repro.evalharness.artifacts import (
    ARTIFACT_SCHEMA,
    ArtifactCache,
    options_fingerprint,
    resolve,
)
from repro.evalharness.experiment import (
    DEFAULT_CACHE,
    evaluate_trace_multi,
)
from repro.programs import get_benchmark
from repro.unified.pipeline import CompilationOptions

#: Environment overrides for the supervisor defaults.
TIMEOUT_ENV = "REPRO_UNIT_TIMEOUT"
RETRIES_ENV = "REPRO_UNIT_RETRIES"


@dataclass(frozen=True)
class EvalUnit:
    """One (benchmark × annotation-config) work item.

    ``cache_configs`` lists every geometry to score against the unit's
    single reference trace; however many there are, they are scored
    together by the sweep dispatcher
    (:func:`~repro.cache.stackdist.replay_trace_sweep`), which picks
    each spec's engine from the engine table alone.

    ``hierarchy`` switches the unit from flat geometries to hierarchy
    scoring: each entry is a :func:`~repro.cache.hierarchy.parse_hierarchy`
    spec string (inline ``inclusive``/``bypass=`` tokens welcome),
    ``cache_configs[0]`` supplies the non-geometry base knobs, and the
    unit's results are the ordered
    :meth:`~repro.cache.hierarchy.HierarchyStats.as_dict` rows.
    """

    name: str
    paper_scale: bool = False
    options: object = None
    cache_configs: tuple = field(default=(DEFAULT_CACHE,))
    hierarchy: tuple = ()


def unit_fingerprint(unit):
    """A stable content address for one unit's *inputs*.

    Journals key completed outcomes by this, and the fault-injection
    sites key worker-level decisions by it, so a unit keeps its
    identity no matter which process (or which resumed run) evaluates
    it.  The sweep engine is not part of the payload: every engine is
    bit-identical to the reference replay, so a journal written before
    an engine change resumes correctly after it.
    """
    options = (unit.options or CompilationOptions()).normalized()
    fields = {
        "schema": ARTIFACT_SCHEMA,
        "name": unit.name,
        "paper_scale": bool(unit.paper_scale),
        "options": options_fingerprint(options),
        "cache_configs": [repr(c) for c in unit.cache_configs],
    }
    if unit.hierarchy:
        # Keyed only when present so every pre-hierarchy journal keeps
        # resolving its recorded fingerprints.
        fields["hierarchy"] = list(unit.hierarchy)
    payload = json.dumps(fields, sort_keys=True)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def evaluate_unit(unit, artifact_cache=None):
    """Resolve one unit's artifact and score all its geometries.

    Returns the list of :class:`ExperimentResult`, one per entry of
    ``unit.cache_configs``, in order.

    The trace comes from :func:`~repro.evalharness.artifacts.resolve`,
    through ``artifact_cache`` when there is one and in-process when
    not, with the benchmark's output checked either way.  Every unit,
    single-geometry ones included, scores through
    :func:`~repro.evalharness.experiment.evaluate_trace_multi` and so
    through the sweep dispatcher.  The results are bit-identical to
    the reference serial replay
    (:func:`~repro.evalharness.experiment.evaluate_trace`), which the
    equivalence battery and the golden Figure 5 pin hold them to.
    """
    bench = get_benchmark(unit.name, unit.paper_scale)
    artifact = resolve(bench.name, bench.source, unit.options,
                       bench.expected_output, artifact_cache)
    if unit.hierarchy:
        from repro.cache.hierarchy import hierarchy_stats, parse_hierarchy

        base = unit.cache_configs[0] if unit.cache_configs else None
        rows = []
        for spec_text in unit.hierarchy:
            spec = parse_hierarchy(spec_text, base=base)
            row = hierarchy_stats(artifact.trace, spec).as_dict()
            row["benchmark"] = unit.name
            rows.append(row)
        return rows
    return evaluate_trace_multi(
        bench.name, artifact.program, artifact.trace, artifact.output,
        artifact.steps, unit.cache_configs,
    )


# ----------------------------------------------------------------------
# The supervisor
# ----------------------------------------------------------------------


@dataclass
class Supervisor:
    """Retry/timeout/fallback policy plus an event log of what it did.

    ``timeout`` is the per-unit watchdog in seconds (``None`` disables
    it); ``retries`` is how many *extra* attempts a transiently-failing
    unit gets before quarantine; backoff between attempts is
    ``min(cap, base * 2**attempt)`` scaled by a seeded jitter in
    ``[0.5, 1.5)`` so concurrent retries do not stampede yet every
    schedule replays.  ``rebuilds`` bounds how many times a broken or
    hung pool is rebuilt before the remaining units fall back to
    supervised serial execution.  ``events`` records every supervision
    decision (``retry``, ``timeout``, ``pool-rebuild``,
    ``serial-fallback``, ``quarantine``, ``journal-hit``,
    ``checkpoint``) for tests and post-mortems.
    """

    timeout: object = None
    retries: object = None
    backoff_base: float = 0.05
    backoff_cap: float = 1.0
    seed: int = 0
    rebuilds: int = 3
    tick: float = 0.05
    events: list = field(default_factory=list)

    #: retries used when nothing (argument, env, plan) says otherwise.
    DEFAULT_RETRIES = 2

    @classmethod
    def from_environment(cls):
        timeout = os.environ.get(TIMEOUT_ENV)
        retries = os.environ.get(RETRIES_ENV)
        return cls(
            timeout=float(timeout) if timeout else None,
            retries=int(retries) if retries else None,
        )

    def record(self, event, **info):
        entry = {"event": event}
        entry.update(info)
        self.events.append(entry)

    def count(self, event):
        return sum(1 for entry in self.events if entry["event"] == event)

    # -- effective knobs (an active fault plan can carry overrides) ----

    def effective_timeout(self):
        if self.timeout is not None:
            return self.timeout
        plan = faultinject.active_plan()
        return plan.timeout if plan is not None else None

    def effective_attempts(self):
        retries = self.retries
        if retries is None:
            plan = faultinject.active_plan()
            if plan is not None and plan.retries is not None:
                retries = plan.retries
            else:
                retries = self.DEFAULT_RETRIES
        return max(int(retries), 0) + 1

    def backoff(self, fingerprint, attempt):
        """Seconds to sleep before retry number ``attempt`` (1-based)."""
        base = min(self.backoff_cap, self.backoff_base * (2 ** (attempt - 1)))
        jitter = 0.5 + faultinject.decision_fraction(
            self.seed, "backoff", fingerprint, attempt
        )
        return base * jitter


def _is_transient_error(error):
    """May a retry plausibly clear this failure?

    Injected faults are transient by design; ``OSError`` and broken
    pools model the environment misbehaving.  Anything else —
    a parse error, a differential mismatch, a real pipeline bug — is
    deterministic and retrying it only burns time, so it propagates or
    records exactly as the unsupervised engine did.
    """
    return isinstance(
        error, (FaultInjected, OSError, TimeoutError, BrokenExecutor)
    )


#: Worker failures come back as records in capture mode; classify from
#: the signature the record carries instead of the (gone) exception.
_TRANSIENT_RECORD_TYPES = frozenset(
    {"FaultInjected", "WorkerCrash", "OSError", "TimeoutError"}
)


def _is_transient_record(record):
    return (
        record.get("stage") == "faultinject"
        or record.get("error_type") in _TRANSIENT_RECORD_TYPES
        or record.get("original_type") in _TRANSIENT_RECORD_TYPES
    )


class _UnitTimeout(TimeoutError):
    """A unit overran the watchdog; transient, counted per attempt."""


# ----------------------------------------------------------------------
# The journal
# ----------------------------------------------------------------------


class Journal:
    """Append-only checkpoint log of completed unit outcomes.

    Each frame is ``<u32 length><8-byte sha256 prefix><pickle>`` of
    ``(fingerprint, outcome)``; loading stops at the first torn or
    corrupt frame, so a crash mid-append costs at most the interrupted
    record.  Outcomes are the exact objects ``run_units`` would have
    produced, so a resumed sweep is bit-identical to an uninterrupted
    one.
    """

    MAGIC = b"RPJRNL1\n"

    def __init__(self, path):
        self.path = path
        self.entries = {}
        self.records_written = 0
        self._load()

    def _load(self):
        try:
            with open(self.path, "rb") as handle:
                data = handle.read()
        except OSError:
            return
        if not data.startswith(self.MAGIC):
            return
        offset = len(self.MAGIC)
        while offset + 12 <= len(data):
            (length,) = struct.unpack_from("<I", data, offset)
            digest = data[offset + 4:offset + 12]
            payload = data[offset + 12:offset + 12 + length]
            if len(payload) != length:
                break  # torn tail
            if hashlib.sha256(payload).digest()[:8] != digest:
                break  # corrupt frame; everything after is suspect
            try:
                fingerprint, outcome = pickle.loads(payload)
            except Exception:  # noqa: BLE001 - treat as corruption
                break
            self.entries[fingerprint] = outcome
            offset += 12 + length
        self.records_written = len(self.entries)

    def get(self, fingerprint):
        return self.entries.get(fingerprint)

    def record(self, fingerprint, outcome):
        payload = pickle.dumps(
            (fingerprint, outcome), protocol=pickle.HIGHEST_PROTOCOL
        )
        frame = (
            struct.pack("<I", len(payload))
            + hashlib.sha256(payload).digest()[:8]
            + payload
        )
        fresh = not os.path.exists(self.path)
        with open(self.path, "ab") as handle:
            if fresh or os.path.getsize(self.path) == 0:
                handle.write(self.MAGIC)
            handle.write(frame)
            handle.flush()
            os.fsync(handle.fileno())
        self.entries[fingerprint] = outcome
        self.records_written += 1


# ----------------------------------------------------------------------
# Workers
# ----------------------------------------------------------------------


def _unit_worker(payload):
    """Top-level worker so ProcessPoolExecutor can pickle it.

    With ``capture`` set the worker converts any failure into a
    :func:`~repro.errors.failure_record`; otherwise the exception
    propagates (the pool re-raises it in the parent), preserving the
    serial harness's error-propagation contract.  ``attempt`` keys the
    injected worker faults so a retry replays the *next* decision in
    the plan's stream no matter which process hosts it; ``in_pool``
    tells the crash site whether ``os._exit`` has a pool to break.
    """
    (unit, artifact_root, section, capture, fingerprint, attempt,
     in_pool) = payload
    cache = ArtifactCache(artifact_root) if artifact_root else None
    if not capture:
        faultinject.crash_point(fingerprint, attempt, allow_exit=in_pool)
        return "ok", evaluate_unit(unit, artifact_cache=cache)
    try:
        faultinject.crash_point(fingerprint, attempt, allow_exit=in_pool)
        return "ok", evaluate_unit(unit, artifact_cache=cache)
    except Exception as error:  # noqa: BLE001 - serialized as a record
        return "error", failure_record(section, unit.name, error)


def _quarantine_outcome(section, unit, attempts, last):
    """The recorded (never raised) outcome of an exhausted unit."""
    if isinstance(last, dict):
        summary = "{} (stage {}): {}".format(
            last.get("error_type"), last.get("stage"), last.get("message")
        )
        cause = FaultInjected(summary)
        cause.stage = last.get("stage", "faultinject")
    else:
        cause = last
    return "error", failure_record(
        section, unit.name, WorkerQuarantined(unit.name, attempts, cause)
    )


# ----------------------------------------------------------------------
# run_units
# ----------------------------------------------------------------------


def run_units(
    units,
    jobs=None,
    artifact_cache=None,
    failures=None,
    section="evalharness",
    supervisor=None,
    journal=None,
):
    """Evaluate every unit; returns one result list per unit, aligned.

    ``jobs`` of ``None``/``0``/``1`` runs in-process (still
    artifact-aware and supervised); higher values fan out over a
    process pool under the watchdog.  With ``failures`` (a list), a
    failing unit contributes ``None`` to the output and a
    :func:`~repro.errors.failure_record` to ``failures`` (in unit
    order) — a unit that exhausts its retry budget on *transient*
    failures is recorded as :class:`~repro.errors.WorkerQuarantined`;
    without it, the unit's own exception (or the quarantine) propagates,
    exactly as in the serial harness.  ``journal`` (a path or
    :class:`Journal`) checkpoints completed outcomes; a rerun with the
    same journal skips completed units and reproduces their results
    bit-identically.  ``KeyboardInterrupt`` cancels outstanding work
    promptly and propagates.
    """
    units = list(units)
    capture = failures is not None
    sup = supervisor if supervisor is not None else Supervisor.from_environment()
    if isinstance(journal, str):
        journal = Journal(journal)
    root = artifact_cache.root if artifact_cache is not None else None
    fingerprints = [unit_fingerprint(unit) for unit in units]
    outcomes = [None] * len(units)
    pending = []
    for index, fingerprint in enumerate(fingerprints):
        cached = journal.get(fingerprint) if journal is not None else None
        if cached is not None:
            outcomes[index] = cached
            sup.record("journal-hit", item=units[index].name)
        else:
            pending.append(index)

    def payload_for(index, attempt, in_pool):
        return (
            units[index], root, section, capture,
            fingerprints[index], attempt, in_pool,
        )

    def checkpoint(index, outcome):
        outcomes[index] = outcome
        if journal is not None:
            journal.record(fingerprints[index], outcome)
            sup.record("checkpoint", item=units[index].name)
            faultinject.interrupt_point(journal.records_written)

    if pending:
        if not jobs or jobs <= 1:
            for index in pending:
                checkpoint(
                    index,
                    _run_one_serial(
                        units[index], fingerprints[index], payload_for,
                        index, sup, capture, section,
                    ),
                )
        else:
            _run_pool(
                pending, units, fingerprints, payload_for, checkpoint,
                jobs, sup, capture, section,
            )

    results = []
    for status, value in outcomes:
        if status == "ok":
            results.append(value)
        else:
            failures.append(value)
            results.append(None)
    return results


def _run_one_serial(unit, fingerprint, payload_for, index, sup, capture,
                    section):
    """Supervised in-process evaluation of one unit.

    The watchdog cannot preempt in-process work, so only the
    retry/quarantine half of the policy applies here; it is also the
    fallback lane when the pool dies.
    """
    attempts = sup.effective_attempts()
    attempt = 0
    while True:
        try:
            status, value = _unit_worker(payload_for(index, attempt, False))
        except Exception as error:  # noqa: BLE001 - classified below
            if not _is_transient_error(error):
                raise
            attempt += 1
            if attempt < attempts:
                sup.record("retry", item=unit.name, attempt=attempt,
                           error=type(error).__name__)
                time.sleep(sup.backoff(fingerprint, attempt))
                continue
            sup.record("quarantine", item=unit.name, attempts=attempt)
            if capture:
                return _quarantine_outcome(section, unit, attempt, error)
            raise WorkerQuarantined(unit.name, attempt, error) from error
        if status == "error" and _is_transient_record(value):
            attempt += 1
            if attempt < attempts:
                sup.record("retry", item=unit.name, attempt=attempt,
                           error=value.get("error_type"))
                time.sleep(sup.backoff(fingerprint, attempt))
                continue
            sup.record("quarantine", item=unit.name, attempts=attempt)
            return _quarantine_outcome(section, unit, attempt, value)
        return status, value


def _run_pool(pending, units, fingerprints, payload_for, checkpoint, jobs,
              sup, capture, section):
    """Supervised pool execution of the pending unit indices.

    Hung workers (no completion within the watchdog timeout) and
    broken pools are handled the same way: the pool is abandoned and
    rebuilt, affected in-flight units are charged one attempt, and
    unstarted units resubmit free of charge.  When the rebuild budget
    runs out the remaining units finish on the supervised serial lane.
    """
    attempts = sup.effective_attempts()
    timeout = sup.effective_timeout()
    attempt_no = {index: 0 for index in pending}
    queue = list(pending)
    resubmit_at = {}
    rebuilds = 0
    pool = ProcessPoolExecutor(max_workers=jobs)
    futures = {}
    running_since = {}

    def submit_ready():
        now = time.monotonic()
        held = []
        for index in queue:
            if resubmit_at.get(index, 0.0) > now:
                held.append(index)
                continue
            future = pool.submit(
                _unit_worker, payload_for(index, attempt_no[index], True)
            )
            futures[future] = index
        queue[:] = held

    def charge_attempt(index, label, detail):
        """One failed attempt; retry, or quarantine/fall to caller."""
        attempt_no[index] += 1
        if attempt_no[index] < attempts:
            sup.record("retry", item=units[index].name,
                       attempt=attempt_no[index], error=label)
            resubmit_at[index] = time.monotonic() + sup.backoff(
                fingerprints[index], attempt_no[index]
            )
            queue.append(index)
            return None
        sup.record("quarantine", item=units[index].name,
                   attempts=attempt_no[index])
        return _quarantine_outcome(
            section, units[index], attempt_no[index], detail
        )

    def rebuild(reason):
        nonlocal pool, rebuilds
        rebuilds += 1
        pool.shutdown(wait=False, cancel_futures=True)
        running_since.clear()
        if rebuilds > sup.rebuilds:
            return False
        sup.record("pool-rebuild", reason=reason, rebuild=rebuilds)
        pool = ProcessPoolExecutor(max_workers=jobs)
        return True

    try:
        while queue or futures:
            submit_ready()
            if not futures:
                # Everything runnable is backing off; sleep to the
                # earliest resubmit time instead of spinning.
                if queue:
                    now = time.monotonic()
                    soonest = min(
                        resubmit_at.get(index, now) for index in queue
                    )
                    time.sleep(max(0.0, min(soonest - now, sup.backoff_cap)))
                continue
            done, _ = wait(
                list(futures), timeout=sup.tick,
                return_when=FIRST_COMPLETED,
            )
            now = time.monotonic()
            for future in list(futures):
                if future not in done and future not in running_since \
                        and future.running():
                    running_since[future] = now
            broken_indices = []
            broken_error = None
            for future in done:
                index = futures.pop(future)
                running_since.pop(future, None)
                try:
                    status, value = future.result()
                except BrokenExecutor as error:
                    broken_indices.append(index)
                    broken_error = error
                    continue
                except Exception as error:  # noqa: BLE001
                    if not _is_transient_error(error):
                        raise
                    outcome = charge_attempt(
                        index, type(error).__name__, error
                    )
                    if outcome is not None:
                        if not capture:
                            raise WorkerQuarantined(
                                units[index].name, attempt_no[index], error
                            ) from error
                        checkpoint(index, outcome)
                    continue
                if status == "error" and _is_transient_record(value):
                    outcome = charge_attempt(
                        index, value.get("error_type"), value
                    )
                    if outcome is not None:
                        checkpoint(index, outcome)
                    continue
                checkpoint(index, (status, value))
            if broken_indices:
                # The pool died: every unit whose future surfaced the
                # breakage is charged an attempt (the guilty one cannot
                # be told apart); in-flight units whose futures were
                # still pending resubmit free.
                for index in broken_indices:
                    outcome = charge_attempt(
                        index, "BrokenProcessPool", broken_error
                    )
                    if outcome is not None:
                        if not capture:
                            raise WorkerQuarantined(
                                units[index].name, attempt_no[index],
                                broken_error,
                            ) from broken_error
                        checkpoint(index, outcome)
                queue.extend(futures.values())
                futures.clear()
                if not rebuild("broken-pool"):
                    break
                continue
            if timeout is not None and running_since:
                hung = [
                    future for future, since in running_since.items()
                    if now - since > timeout
                ]
                if hung:
                    # A worker is stuck past the watchdog.  The pool
                    # gives no way to reap one worker, so abandon it:
                    # hung units are charged a (timeout) attempt, the
                    # rest of the in-flight set resubmits free.
                    for future in hung:
                        index = futures.pop(future)
                        sup.record("timeout", item=units[index].name)
                        outcome = charge_attempt(
                            index, "timeout",
                            _UnitTimeout(
                                "unit {} exceeded the {:.3g}s watchdog"
                                .format(units[index].name, timeout)
                            ),
                        )
                        if outcome is not None:
                            if not capture:
                                raise WorkerQuarantined(
                                    units[index].name, attempt_no[index],
                                    _UnitTimeout(units[index].name),
                                )
                            checkpoint(index, outcome)
                    queue.extend(futures.values())
                    futures.clear()
                    if not rebuild("hung-worker"):
                        break
        else:
            pool.shutdown()
            return
        # The while-else did not run: the rebuild budget is spent.
        # Finish the remaining units on the supervised serial lane.
        pool.shutdown(wait=False, cancel_futures=True)
        remaining = sorted(set(queue) | set(futures.values()))
        sup.record("serial-fallback", remaining=len(remaining))
        for index in remaining:
            checkpoint(
                index,
                _run_one_serial(
                    units[index], fingerprints[index], payload_for, index,
                    sup, capture, section,
                ),
            )
    except BaseException:
        # KeyboardInterrupt (user or injected) and fatal errors both
        # cancel outstanding futures promptly instead of waiting out
        # in-flight units.
        pool.shutdown(wait=False, cancel_futures=True)
        raise


def pool_map(worker, payloads, jobs=None):
    """Order-preserving fan-out of ``worker`` over ``payloads``.

    The shared fan-out primitive for harness layers that are not
    unit-shaped (sweep batteries, the static-analysis gate): ``jobs``
    of ``None``/``0``/``1`` runs inline, anything higher uses a
    process pool.  ``worker`` must be a module-level function and
    every payload/return value picklable; exceptions are the worker's
    responsibility to catch and encode.  ``KeyboardInterrupt`` cancels
    the outstanding futures and propagates immediately instead of
    draining the queue.
    """
    payloads = list(payloads)
    if not jobs or jobs <= 1:
        return [worker(payload) for payload in payloads]
    pool = ProcessPoolExecutor(max_workers=jobs)
    try:
        futures = [pool.submit(worker, payload) for payload in payloads]
        results = [future.result() for future in futures]
    except BaseException:
        pool.shutdown(wait=False, cancel_futures=True)
        raise
    pool.shutdown()
    return results
