"""``repro-artifacts`` — operate the on-disk artifact store.

Subcommands:

* ``stats`` — entry count, footprint, budget, quarantine size.
* ``verify`` — integrity-check every entry; corrupt ones are moved to
  quarantine (exit 1 when anything was bad).
* ``gc`` — reap stale staging directories and enforce the byte budget
  (``--budget``/``$REPRO_ARTIFACT_BUDGET``), evicting the least
  recently used entries first.
* ``quarantine ls`` / ``quarantine clear`` — inspect or discard the
  quarantined evidence.
"""

import argparse
import json
import os
import sys

from repro.evalharness.artifacts import ArtifactCache, parse_size


def _build_cache(args):
    return ArtifactCache(
        root=args.root,
        capacity_bytes=parse_size(args.budget) if args.budget else None,
    )


def _human(size):
    for unit in ("B", "KiB", "MiB", "GiB"):
        if size < 1024 or unit == "GiB":
            return (
                "{}{}".format(size, unit)
                if unit == "B"
                else "{:.1f}{}".format(size, unit)
            )
        size /= 1024.0
    return "{}B".format(size)


def cmd_stats(cache, args):
    stats = cache.stats()
    if args.json:
        print(json.dumps(stats, indent=2, sort_keys=True))
        return 0
    print("root             {}".format(stats["root"]))
    print("entries          {}".format(stats["entries"]))
    print("footprint        {}".format(_human(stats["bytes"])))
    print(
        "capacity         {}".format(
            _human(stats["capacity_bytes"])
            if stats["capacity_bytes"]
            else "unbounded"
        )
    )
    print(
        "quarantine       {} entr{} ({})".format(
            stats["quarantine_entries"],
            "y" if stats["quarantine_entries"] == 1 else "ies",
            _human(stats["quarantine_bytes"]),
        )
    )
    return 0


def cmd_verify(cache, args):
    checked, bad = cache.verify()
    print("checked {} entr{}".format(checked, "y" if checked == 1 else "ies"))
    for key, reason in bad:
        print("  quarantined {}: {}".format(key[:12], reason))
    if bad:
        print("{} corrupt entr{} moved to quarantine".format(
            len(bad), "y" if len(bad) == 1 else "ies"))
        return 1
    print("all entries intact")
    return 0


def cmd_gc(cache, args):
    removed, evicted = cache.gc(max_staging_age=args.staging_age)
    print(
        "reaped {} stale staging dir(s), evicted {} entr{}".format(
            removed, evicted, "y" if evicted == 1 else "ies"
        )
    )
    stats = cache.stats()
    print(
        "store now holds {} entr{} ({})".format(
            stats["entries"],
            "y" if stats["entries"] == 1 else "ies",
            _human(stats["bytes"]),
        )
    )
    return 0


def cmd_quarantine(cache, args):
    if args.action == "clear":
        removed = cache.quarantine_clear()
        print("cleared {} quarantined entr{}".format(
            removed, "y" if removed == 1 else "ies"))
        return 0
    entries = cache.quarantine_entries()
    if not entries:
        print("quarantine is empty")
        return 0
    for key, path in entries:
        reason = "(no reason.json)"
        reason_path = os.path.join(path, "reason.json")
        try:
            with open(reason_path) as handle:
                record = json.load(handle)
            reason = "{} [{}]".format(
                record.get("reason", "?"), record.get("quarantined_at", "?")
            )
        except (OSError, ValueError):
            pass
        print("{}  {}".format(key[:16], reason))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="repro-artifacts",
        description="Inspect and maintain the compile-once/trace-once "
                    "artifact store.",
    )
    parser.add_argument(
        "--root", default=None,
        help="store root (default: $REPRO_ARTIFACT_CACHE or "
             "~/.cache/repro/artifacts)")
    parser.add_argument(
        "--budget", default=None,
        help="capacity budget for gc, e.g. 64M (default: "
             "$REPRO_ARTIFACT_BUDGET)")
    commands = parser.add_subparsers(dest="command", required=True)

    stats = commands.add_parser("stats", help="store footprint and counters")
    stats.add_argument("--json", action="store_true")
    stats.set_defaults(func=cmd_stats)

    verify = commands.add_parser(
        "verify", help="checksum every entry; quarantine corrupt ones")
    verify.set_defaults(func=cmd_verify)

    gc = commands.add_parser(
        "gc", help="reap stale staging dirs and enforce the byte budget")
    gc.add_argument(
        "--staging-age", type=float, default=3600.0,
        help="only reap staging dirs older than this many seconds")
    gc.set_defaults(func=cmd_gc)

    quarantine = commands.add_parser(
        "quarantine", help="list or clear quarantined entries")
    quarantine.add_argument("action", choices=["ls", "clear"])
    quarantine.set_defaults(func=cmd_quarantine)

    args = parser.parse_args(argv)
    return args.func(_build_cache(args), args)


if __name__ == "__main__":
    sys.exit(main())
