"""End-to-end benchmark of the reproduction's user commands.

    python3 benchmarks/e2e/run.py --seed 0 --out results.json
    python3 benchmarks/e2e/run.py --workload lru-sweep-warm --seed 3 \\
        --seconds 20 --trace 0

Five workloads (``workloads.py``) run as fresh single-threaded worker
processes, one at a time, in interleaved rounds: each round runs every
selected workload once, so a noisy-neighbour period spreads over all of
them instead of landing on one.  A run makes five rounds (one with
``--smoke``); ``--seconds T`` instead makes as many as fit in T seconds
together with set-up and the traced round, and at least three.  With
``--trace 1`` one traced round follows, whose workers wrap the layer
boundaries (``spans.py``) for the per-layer metrics; the end-to-end
metrics only ever come from untraced workers.

Every time is scaled to a reference host speed.  While a worker times
a region it samples a fixed pure-Python calibration chunk every 50 ms
(``worker.py``); a time ``t`` whose chunks averaged ``cal_s`` is
reported as ``t * REFERENCE_CHUNK_S / cal_s``.  Other tenants of a
shared host slow every process on it by up to 2x for seconds to
minutes, and the chunk slows about as much as the workload, so the
scaled times stay close while the raw ones drift.  A change to the program moves its
time and not the chunk's, so it moves the scaled time by the same share
as the raw one.

End-to-end metrics per workload: ``wall_s`` is the median untraced
repeat's scaled workload time (imports excluded; raw times and
quartiles are recorded too), ``peak_rss_mb`` the median worker peak
RSS, and ``setup_s`` the median scaled start-to-ready time of the
untraced workers plus, for a warm workload, the median scaled time of
three fills of a fresh artifact store (the last fill serves the
rounds).  Failed workers over attempted ones is the run's
``fail_rate``.

Correctness: every repeat must exit 0 and reproduce the output digest
pinned in ``expected.json`` for the seed (or, for an unpinned seed, the
run's first digest); the first round re-scores sampled sweep cells
through the reference ``replay_trace``.  ``--regen-expected`` rewrites
the pins for ``--seed``.

Every metric is printed by name and unit per workload; the last line
of stdout is one JSON object ``{"correct", "attempted", "failed",
"metrics"}`` holding the end-to-end metrics (``--trace 0``) or the
per-layer ones (``--trace 1``).  ``--out FILE`` appends the full run
record, with provenance, to FILE for ``compare.py``.  Scratch files
live under ``.bench_build/e2e`` and are removed on exit.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
EXPECTED = HERE / "expected.json"

#: Untraced rounds of a run without ``--seconds``.
ROUNDS = 5
#: Least rounds a ``--seconds`` run makes, so every median has three
#: samples even when one repeat outlasts the budget.
MIN_ROUNDS = 3
#: Fresh-store fills per warm workload; set-up reports their median.
SETUP_FILLS = 3
#: Scaled times are seconds at the host speed at which the calibration
#: chunk takes this long.  It takes about 0.8 ms on an idle 2-vCPU Xeon
#: host, where scaled times therefore read a quarter above raw ones.
REFERENCE_CHUNK_S = 0.001
#: A worker that has not finished by then is killed and counted failed
#: (a repeat takes seconds; a ``--seconds 20`` run must end within 180).
WORKER_TIMEOUT_S = 60
#: Calibration spread (quartile distance over median) that marks a run
#: ``noisy``.
NOISY_SPREAD = 0.10


def parse_args(argv):
    parser = argparse.ArgumentParser(
        description="Time the reproduction's user commands end to end.")
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        help="run one workload (default: all five)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="make as many rounds as fit in this many "
                             "seconds with set-up and the traced round "
                             "(at least %d; default %d rounds)"
                             % (MIN_ROUNDS, ROUNDS))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=1,
                        help="1: finish with a traced round and report "
                             "the per-layer metrics last (default 1)")
    parser.add_argument("--smoke", action="store_true",
                        help="one round over reduced benchmark subsets")
    parser.add_argument("--out", default=None, metavar="FILE",
                        help="append this run's record to FILE")
    parser.add_argument("--regen-expected", action="store_true",
                        help="rewrite expected.json's pins for --seed")
    return parser.parse_args(argv)


def scaled(seconds, cal_s):
    """A time measured at calibration chunk time ``cal_s``, at the
    reference host speed."""
    return seconds * REFERENCE_CHUNK_S / cal_s


# ----------------------------------------------------------------------
# Workers


def worker_env(work):
    """The environment every worker gets: this checkout's sources, one
    thread, fixed hashing, and no inherited ``REPRO_*`` knobs."""
    env = {key: value for key, value in os.environ.items()
           if not key.startswith("REPRO_")}
    env.update(
        PYTHONPATH=str(ROOT / "src"),
        PYTHONHASHSEED="0",
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
        # Keeps any store the program opens by default in the checkout.
        REPRO_ARTIFACT_CACHE=str(work / "default-store"),
    )
    return env


def spawn(task, env):
    """Run one worker to completion.

    Returns ``(ready_s, done)``: start-to-ready seconds (``None`` if the
    worker never got ready) and its final record, which carries an
    ``error`` key when the worker failed.
    """
    started = time.time()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), json.dumps(task)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
        cwd=str(ROOT), text=True,
    )
    try:
        stdout, stderr = proc.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return None, {"error": "timed out after %ds" % WORKER_TIMEOUT_S}
    except BaseException:
        # Interrupted: never leave a worker behind.
        proc.kill()
        proc.wait()
        raise
    events = {}
    for line in stdout.splitlines():
        try:
            record = json.loads(line)
        except ValueError:
            continue
        if isinstance(record, dict) and "event" in record:
            events[record["event"]] = record
    ready = events.get("ready")
    ready_s = ready["at"] - started if ready else None
    done = events.get("done")
    if done is None:
        done = {"error": "exit code %d: %s" % (
            proc.returncode, stderr.strip()[-2000:] or "no output")}
    return ready_s, done


# ----------------------------------------------------------------------
# Measurement


class WorkloadRun:
    """Everything one workload's workers reported in this run."""

    def __init__(self):
        self.ready = []
        self.fills = []
        self.repeats = []
        self.traced = []
        self.attempted = 0
        self.failures = []
        self.digests = []
        self.pristine = True
        self.oracle_checked = 0
        self.versions = None

    def check(self, done, pin):
        """Count one worker; return its record if it succeeded."""
        self.attempted += 1
        self.versions = done.get("versions", self.versions)
        problems = []
        if "error" in done:
            problems.append(done["error"].strip().splitlines()[-1])
        else:
            if done.get("exit_code", 0) != 0:
                problems.append("exit code %s" % done["exit_code"])
            if "digest" in done:
                want = pin or (self.digests[0] if self.digests else None)
                if want is not None and done["digest"] != want:
                    problems.append(
                        "output digest %s != %s %s" % (
                            done["digest"][:12],
                            "pinned" if pin else "first repeat's",
                            want[:12]))
                self.digests.append(done["digest"])
            problems += done.get("oracle_mismatches", [])
            self.oracle_checked += done.get("oracle_checked", 0)
            self.pristine &= done.get("pristine", True)
        if problems:
            self.failures.append("; ".join(problems))
            return None
        return done


def measure(names, args, work, pins):
    env = worker_env(work)
    runs = {name: WorkloadRun() for name in names}
    deadline = None
    if args.seconds is not None:
        deadline = time.monotonic() + args.seconds
    rounds = 1 if args.smoke else ROUNDS

    def task(name, mode, traced=False, oracle=False):
        return {
            "workload": name, "mode": mode, "seed": args.seed,
            "store": str(work / ("store-" + name)), "smoke": args.smoke,
            "traced": traced, "oracle": oracle,
        }

    for name in names:
        if not WORKLOADS[name].fill_names(args.smoke):
            continue
        for _ in range(SETUP_FILLS):
            shutil.rmtree(task(name, "fill")["store"], ignore_errors=True)
            ready_s, done = spawn(task(name, "fill"), env)
            if runs[name].check(done, None) is not None:
                runs[name].ready.append(scaled(ready_s, done["cal_s"]))
                runs[name].fills.append(scaled(done["fill_s"], done["cal_s"]))

    calibration = []
    round_costs = []
    while True:
        if deadline is None:
            if len(round_costs) >= rounds:
                break
        elif len(round_costs) >= MIN_ROUNDS:
            # Start a round only when it, and the traced round after it,
            # still fit in the budget.
            upcoming = max(round_costs) * (2 if args.trace else 1)
            if time.monotonic() + upcoming > deadline:
                break
        index = len(round_costs)
        started = time.monotonic()
        checking = 0.0
        # Rotate the order so no workload always runs first.
        for name in names[index % len(names):] + names[:index % len(names)]:
            ready_s, done = spawn(task(name, "run", oracle=index == 0), env)
            record = runs[name].check(done, pins.get(name))
            if record is not None:
                runs[name].ready.append(scaled(ready_s, record["cal_s"]))
                runs[name].repeats.append(record)
                calibration.append(record["cal_s"])
            checking += done.get("oracle_s", 0.0)
        round_costs.append(time.monotonic() - started - checking)

    if args.trace:
        for name in names:
            _ready_s, done = spawn(task(name, "run", traced=True), env)
            record = runs[name].check(done, pins.get(name))
            if record is not None:
                runs[name].traced.append(record)
    return runs, calibration, len(round_costs)


# ----------------------------------------------------------------------
# Metrics


def describe(values):
    """Median, quartiles and range of a sample list."""
    values = sorted(values)
    if len(values) > 1:
        q1, median, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = median = q3 = values[0]
    return {
        "n": len(values), "median": median, "q1": q1, "q3": q3,
        "min": values[0], "max": values[-1], "samples": values,
    }


def spread(values):
    """Quartile distance over median, the steadiness measure."""
    if len(values) < 2:
        return 0.0
    stats = describe(values)
    return (stats["q3"] - stats["q1"]) / stats["median"]


def end_to_end(run, units):
    if not run.repeats:
        return {}
    wall = describe([scaled(r["wall_s"], r["cal_s"]) for r in run.repeats])
    wall["value"] = wall["median"]
    wall["raw"] = describe([r["wall_s"] for r in run.repeats])
    ready = statistics.median(run.ready)
    fill = statistics.median(run.fills) if run.fills else 0.0
    setup = {"value": ready + fill, "start_to_ready_s": ready,
             "fill_s": fill, "n_ready": len(run.ready),
             "fill_samples": run.fills}
    rss = describe([r["rss_mb"] for r in run.repeats])
    rss["value"] = rss["median"]
    metrics = {"wall_s": wall, "setup_s": setup, "peak_rss_mb": rss}
    for name, metric in metrics.items():
        metric["unit"] = units.get(name)
    return metrics


def per_layer(run, units):
    if not run.traced or not run.repeats:
        return {}
    layers = {
        name: statistics.median(r["layers"][name] for r in run.traced)
        for name in run.traced[0]["layers"]
    }
    untraced = statistics.median(
        scaled(r["wall_s"], r["cal_s"]) for r in run.repeats)
    traced = statistics.median(
        scaled(r["wall_s"], r["cal_s"]) for r in run.traced)
    layers["spans.overhead_pct"] = 100.0 * (traced - untraced) / untraced
    layers["host.cpu_s"] = statistics.median(
        r["cpu_s"] for r in run.repeats)
    return {name: {"value": value, "unit": units.get(name)}
            for name, value in layers.items()}


# ----------------------------------------------------------------------
# Reporting


def git_commit():
    """HEAD's commit from ``.git`` files, or ``None`` outside a clone."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def provenance(runs, load_before, calibration):
    versions = next((run.versions for run in runs.values() if run.versions),
                    {})
    affinity = (sorted(os.sched_getaffinity(0))
                if hasattr(os, "sched_getaffinity") else None)
    calibration_spread = spread(calibration)
    return {
        "commit": git_commit(),
        "python": versions.get("python", platform.python_version()),
        "numpy": versions.get("numpy"),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "sched_getaffinity": affinity,
        "loadavg_before": list(load_before),
        "loadavg_after": list(os.getloadavg()),
        "calibration_s": calibration,
        "calibration_spread": calibration_spread,
        "noisy": calibration_spread > NOISY_SPREAD,
    }


def print_report(record):
    prov = record["provenance"]
    print("commit {}  python {}  numpy {}  nproc {}  affinity {}".format(
        prov["commit"], prov["python"], prov["numpy"], prov["nproc"],
        prov["sched_getaffinity"]))
    print("load {} -> {}  calibration spread {:.1%}{}".format(
        prov["loadavg_before"], prov["loadavg_after"],
        prov["calibration_spread"], "  NOISY" if prov["noisy"] else ""))
    for name, result in record["workloads"].items():
        print("\n== {} ==".format(name))
        print("  failures: {}/{} attempted (fail_rate {:.3f})".format(
            result["failed"], result["attempted"], result["fail_rate"]))
        for failure in result["failures"]:
            print("    " + failure)
        for metric, value in result["end_to_end"].items():
            if metric == "setup_s":
                extra = "  [start-to-ready {:.4f} s + fill {:.4f} s]".format(
                    value["start_to_ready_s"], value["fill_s"])
            else:
                extra = "  [n={} q1={:.4f} q3={:.4f}]".format(
                    value["n"], value["q1"], value["q3"])
                if "raw" in value:
                    extra += "  [unscaled median {:.4f} s]".format(
                        value["raw"]["median"])
            print("  {} = {:.4f} {}{}".format(
                metric, value["value"], value["unit"], extra))
        for metric, value in result["per_layer"].items():
            print("  {} = {:.6g} {}".format(
                metric, value["value"], value["unit"]))


def final_line(record, trace):
    """The one-line JSON result: e2e metrics, or per-layer when traced."""
    kind = "per_layer" if trace else "end_to_end"
    single = len(record["workloads"]) == 1
    metrics = {}
    for name, result in record["workloads"].items():
        for metric, value in result[kind].items():
            key = metric if single else "{}.{}".format(name, metric)
            metrics[key] = {"value": value["value"], "unit": value["unit"]}
    attempted = sum(r["attempted"] for r in record["workloads"].values())
    failed = sum(r["failed"] for r in record["workloads"].values())
    return {"correct": record["correct"], "attempted": attempted,
            "failed": failed, "metrics": metrics}


def append_run(path, record):
    path = Path(path)
    data = {"runs": []}
    if path.is_file():
        data = json.loads(path.read_text())
    data["runs"].append(record)
    staging = path.with_name(path.name + ".tmp")
    staging.write_text(json.dumps(data, indent=1) + "\n")
    os.replace(staging, path)


def main(argv=None):
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print("error: no repro package under {}".format(ROOT / "src"),
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {metric["name"]: metric["unit"]
             for kind in ("end_to_end", "per_layer") for metric in spec[kind]}
    expected = json.loads(EXPECTED.read_text()) if EXPECTED.is_file() else {}
    suffix = "@smoke" if args.smoke else ""
    pins = {} if args.regen_expected else {
        name: expected.get(name + suffix, {}).get(str(args.seed))
        for name in WORKLOADS
    }
    names = [args.workload] if args.workload else list(WORKLOADS)
    work = ROOT / ".bench_build" / "e2e" / str(os.getpid())
    load_before = os.getloadavg()
    started_at = time.time()
    try:
        runs, calibration, rounds = measure(names, args, work, pins)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    workloads = {}
    for name, run in runs.items():
        failed = len(run.failures)
        workloads[name] = {
            "attempted": run.attempted,
            "failed": failed,
            "fail_rate": failed / run.attempted if run.attempted else 1.0,
            "failures": run.failures,
            "oracle_cells_checked": run.oracle_checked,
            "untraced_pristine": run.pristine,
            "digest": run.digests[0] if run.digests else None,
            "traced_wall_s": [r["wall_s"] for r in run.traced],
            "end_to_end": end_to_end(run, units),
            "per_layer": per_layer(run, units) if args.trace else {},
        }
    complete = all(
        result["end_to_end"] and (result["per_layer"] or not args.trace)
        for result in workloads.values())
    record = {
        "started_at": started_at,
        "elapsed_s": time.time() - started_at,
        "seed": args.seed,
        "smoke": args.smoke,
        "seconds": args.seconds,
        "trace": args.trace,
        "rounds": rounds,
        "correct": complete and not any(
            result["failed"] for result in workloads.values()),
        "provenance": provenance(runs, load_before, calibration),
        "workloads": workloads,
    }
    print_report(record)
    if args.regen_expected and record["correct"]:
        for name, result in workloads.items():
            expected.setdefault(name + suffix, {})[str(args.seed)] = (
                result["digest"])
        EXPECTED.write_text(json.dumps(expected, indent=2, sort_keys=True)
                            + "\n")
    if args.out:
        append_run(args.out, record)
    print(json.dumps(final_line(record, args.trace)))
    return 0 if record["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
