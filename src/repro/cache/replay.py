"""Replay recorded traces through cache models.

Two entry points:

* :func:`replay_trace` — the reference serial path: one trace, one
  configuration, driven event-by-event through the online
  :class:`Cache` (or the offline MIN simulator).  Every other replay
  implementation in the repository is defined as "bit-identical to
  this".
* :func:`replay_trace_multi` — the sweep core: one trace, N
  configurations, one decode.  The flag bytes are unpacked once and
  every configuration consumes the shared decoded stream through the
  canonical transfer function
  (:func:`repro.cache.semantics.replay_decoded`), fronted by the
  same-block run collapse wherever the configuration's allocation
  policy makes followers guaranteed hits; MIN slots (requested with
  :class:`MinConfig`) share one precomputed next-use index per
  ``(line_words, honor_bypass)`` combination.  The engine-table
  conformance test (``tests/test_engine_table.py``) and the fuzzer's
  differential loop both assert the two paths agree on every counter.
"""

from repro.cache.belady import next_use_index, simulate_min
from repro.cache.cache import Cache, CacheConfig
from repro.cache.semantics import (
    PREDICTOR_POLICIES,
    MinPolicy,
    collapse_runs,
    decode_trace,  # noqa: F401  (re-exported sweep helper)
    flag_presence,
    flavor_decode,
    make_policy,
    policy_collapse_safe,
    replay_decoded,
    signature_column,
)
from repro.vm.trace import FLAG_BYPASS, FLAG_KILL, FLAG_WRITE


class MinConfig:
    """Request Belady MIN replacement for one slot of a multi-replay.

    Wraps the :class:`CacheConfig` whose geometry and bypass/kill
    handling the MIN simulation shares (the wrapped ``policy`` field is
    ignored, exactly as in ``replay_trace(..., policy="min")``).
    """

    __slots__ = ("config",)

    def __init__(self, config=None, **kwargs):
        if config is None:
            config = CacheConfig(policy="lru", **kwargs)
        elif kwargs:
            raise ValueError(
                "MinConfig: pass either a CacheConfig or keyword "
                "arguments, not both (got config plus {!r})".format(
                    sorted(kwargs)
                )
            )
        self.config = config

    def __repr__(self):
        return "MinConfig({!r})".format(self.config)


def replay_trace(trace, config=None, **kwargs):
    """Run ``trace`` through a cache built from ``config``.

    ``config`` and keyword overrides are mutually exclusive: silently
    dropping kwargs next to an explicit config hid real mistakes, so
    that combination raises :class:`ValueError`.  Without a config,
    ``policy`` may also be ``"min"``, which dispatches to the offline
    Belady simulator.  Returns the resulting CacheStats.
    """
    if config is None:
        policy = kwargs.pop("policy", "lru")
        if policy == "min":
            return simulate_min(trace, **kwargs)
        config = CacheConfig(policy=policy, **kwargs)
    elif kwargs:
        raise ValueError(
            "replay_trace: pass either a CacheConfig or keyword "
            "arguments, not both (got config plus {!r})".format(
                sorted(kwargs)
            )
        )

    cache = Cache(config, policy=policy_for_trace(trace, config))
    access = cache.access
    if cache.policy.needs_index:
        for index, (address, flags) in enumerate(trace):
            access(
                address,
                bool(flags & FLAG_WRITE),
                bool(flags & FLAG_BYPASS),
                bool(flags & FLAG_KILL),
                index=index,
            )
    else:
        for address, flags in trace:
            access(
                address,
                bool(flags & FLAG_WRITE),
                bool(flags & FLAG_BYPASS),
                bool(flags & FLAG_KILL),
            )
    return cache.stats


def policy_for_trace(trace, config):
    """Build the policy object ``config`` needs to replay ``trace``.

    Returns ``None`` for the self-contained policies (the cache builds
    its own); SHiP and Hawkeye need the trace's precomputed signature
    (and, for Hawkeye, next-use) columns, so any driver holding only a
    config uses this to construct them.
    """
    if config.policy not in PREDICTOR_POLICIES:
        return None
    signatures = signature_column(trace)
    next_use = None
    if config.policy == "hawkeye":
        next_use = next_use_index(
            trace, config.line_words, config.honor_bypass
        )
    return make_policy(config, next_use=next_use, signatures=signatures)


def replay_trace_multi(trace, configs):
    """Replay ``trace`` through every configuration of a sweep at once.

    ``configs`` is a sequence of :class:`CacheConfig` (any online
    policy, the predictive zoo included) and/or :class:`MinConfig`
    (offline Belady) entries; the result is the list of
    :class:`CacheStats` in the same order, each bit-identical to what
    :func:`replay_trace` produces for that entry alone.  The trace is
    decoded once, the MIN next-use index is computed once per
    ``(line_words, honor_bypass)`` combination, and the same-block run
    collapse is computed once per effective flavor and set count,
    shared across every configuration that can use it.
    """
    decoded = decode_trace(trace)
    next_use_cache = {}
    stream_cache = {}
    runs_cache = {}
    state = {"columns": None, "presence": None, "signatures": None}

    def next_use_for(config):
        key = (config.line_words, config.honor_bypass)
        next_use = next_use_cache.get(key)
        if next_use is None:
            next_use = next_use_index(trace, *key)
            next_use_cache[key] = next_use
        return next_use

    def signatures_for():
        if state["signatures"] is None:
            state["signatures"] = signature_column(trace)
        return state["signatures"]

    def runs_for(config):
        """The run collapse for this config, or ``None`` if ineligible."""
        if not policy_collapse_safe(config.policy):
            # The RRIP family's hit promotion is not idempotent within
            # a same-block run; replay it uncollapsed.
            return None
        if not config.allocate_on_write:
            # A write-around head miss leaves its followers missing
            # too, so followers are not guaranteed hits.
            return None
        if state["columns"] is None:
            if not hasattr(trace, "to_columns"):
                return None
            state["columns"] = trace.to_columns()
            state["presence"] = flag_presence(state["columns"])
        has_bypass, has_kill = state["presence"]
        effective = (
            config.line_words,
            config.honor_bypass and has_bypass,
            config.honor_kill and has_kill,
        )
        runs_key = effective + (config.num_sets,)
        if runs_key in runs_cache:
            return runs_cache[runs_key]
        stream = stream_cache.get(effective)
        if stream is None:
            stream = flavor_decode(
                state["columns"], effective + (config.write_policy,)
            )
            stream_cache[effective] = stream
        runs = collapse_runs(stream.blocks_np, stream.types_np,
                             config.num_sets)
        runs_cache[runs_key] = runs
        return runs

    results = []
    for spec in configs:
        if isinstance(spec, MinConfig):
            config = spec.config
            results.append(
                replay_decoded(
                    decoded, config,
                    policy=MinPolicy(next_use_for(config)),
                    runs=runs_for(config),
                )
            )
        elif spec.policy in PREDICTOR_POLICIES:
            policy = make_policy(
                spec,
                next_use=(
                    next_use_for(spec) if spec.policy == "hawkeye" else None
                ),
                signatures=signatures_for(),
            )
            results.append(replay_decoded(decoded, spec, policy=policy))
        else:
            results.append(
                replay_decoded(decoded, spec, runs=runs_for(spec))
            )
    return results
