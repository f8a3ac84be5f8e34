"""One benchmark worker: a fresh, single-threaded process per repeat.

    python3 worker.py '{"workload": ..., "mode": "run"|"fill", ...}'

The orchestrator (``run.py``) starts it with ``src/`` on ``PYTHONPATH``.
It writes two JSON lines to stdout: ``{"event": "ready", "at": T}``
once the workload's ``repro`` modules are imported (``T`` is
``time.time()``, so the parent derives start-to-ready), then
``{"event": "done", ...}`` with what the repeat measured.  The workload
runs with its own stdout and stderr captured, so nothing else reaches
the parent.

While a region is timed, a timer signal runs a fixed pure-Python
calibration chunk every ``SAMPLE_EVERY_S``.  ``cal_s``, the chunks'
harmonic mean, is the chunk time at the average speed the host ran the
region at, by which the orchestrator scales the worker's times (see
``run.py``); the chunks' own time is taken off the region's.
"""

import importlib
import json
import platform
import random
import resource
import signal
import statistics
import sys
import time
import traceback

import spans
from workloads import WORKLOADS, digest, fill

#: Reference-replay cells the oracle re-scores per checked repeat.
ORACLE_CELLS = 3
#: Seconds between calibration samples; a chunk takes about 1 ms, so
#: sampling adds about 2 % to a region before it is taken off again.
SAMPLE_EVERY_S = 0.05
#: The calibration chunk's op codes: a fixed draw, the same every run.
_CHUNK_OPS = tuple(random.Random(1).randrange(48) for _ in range(3000))


def _emit(record):
    sys.stdout.write(json.dumps(record) + "\n")
    sys.stdout.flush()


def _chunk():
    """Time one pass of a toy interpreter: an eight-way if-chain over a
    small dict, driven by ``_CHUNK_OPS``.  Branchy dict-and-integer
    code like this slows with host contention by about as much as the
    workloads do; a plain arithmetic loop slows by less (README)."""
    start = time.perf_counter()
    memory = {}
    address = 0
    for op in _CHUNK_OPS:
        kind = op & 7
        value = memory.get(address, 0) + op
        if kind == 0:
            memory[address] = value * 3 % 1000003
        elif kind == 1:
            memory[address] = (value >> 1) ^ op
        elif kind == 2:
            memory[address] = value + 7
        elif kind == 3:
            memory[address] = value * 5 % 65537
        elif kind == 4:
            memory[address] = value ^ 0x5555
        elif kind == 5:
            memory[address] = (value << 1) & 0xFFFFF
        elif kind == 6:
            memory[address] = value - 3
        else:
            memory[address] = value // 3
        address = (address * (2 * op + 1) + value) & 1023
    return time.perf_counter() - start


def _timed(function, *args):
    """``(result, times)`` of one call, sampling the host speed while it
    runs (one more chunk before and after, so a short call has samples
    too).  ``wall_s`` and ``cpu_s`` in ``times`` are net of the
    ``sampled_s`` the chunks inside the call took."""
    chunks = [_chunk()]

    def sample(_signum, _frame):
        chunks.append(_chunk())

    previous = signal.signal(signal.SIGALRM, sample)
    signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
    try:
        first = len(chunks)
        cpu_start = time.process_time()
        start = time.perf_counter()
        result = function(*args)
        wall = time.perf_counter() - start
        cpu = time.process_time() - cpu_start
        last = len(chunks)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    sampled = sum(chunks[first:last])
    chunks.append(_chunk())
    return result, {
        "wall_s": wall - sampled,
        "cpu_s": cpu - sampled,
        "sampled_s": sampled,
        "cal_s": statistics.harmonic_mean(chunks),
    }


def _repeat(workload, task):
    """Time one run of the workload; check it outside the timed region."""
    traced = task["traced"]
    if traced:
        recorder = spans.Recorder()
        spans.install(recorder)
    else:
        before = spans.snapshot()
    (code, payload), record = _timed(
        workload.run, task["seed"], task["store"], task["smoke"])
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    record.update(
        exit_code=code,
        rss_mb=peak_kib / 1024.0,
        digest=digest(payload),
    )
    if traced:
        # Spans time the chunks sampled inside them too.
        record["layers"] = spans.layer_metrics(
            recorder, record["wall_s"] + record["sampled_s"])
    else:
        record["pristine"] = spans.pristine(before)
    if task["oracle"] and workload.oracle is not None:
        start = time.perf_counter()
        record["oracle_mismatches"] = workload.oracle(
            payload, task["seed"], task["store"], ORACLE_CELLS)
        record["oracle_checked"] = ORACLE_CELLS
        record["oracle_s"] = time.perf_counter() - start
    return record


def _versions():
    try:
        import numpy
    except ImportError:
        numpy = None
    return {
        "python": platform.python_version(),
        "numpy": getattr(numpy, "__version__", None),
    }


def main(argv):
    task = json.loads(argv[1])
    workload = WORKLOADS[task["workload"]]
    for module in workload.modules:
        importlib.import_module(module)
    _emit({"event": "ready", "at": time.time()})
    record = {"event": "done"}
    try:
        if task["mode"] == "fill":
            _none, times = _timed(
                fill, task["store"], workload.fill_names(task["smoke"]))
            record.update(fill_s=times["wall_s"], cal_s=times["cal_s"])
        else:
            record.update(_repeat(workload, task))
    except Exception:  # noqa: BLE001 - reported to the orchestrator
        record["error"] = traceback.format_exc()
    record["versions"] = _versions()
    _emit(record)
    return 1 if "error" in record else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
