"""Replay recorded traces through cache models.

:func:`replay_trace` is the reference serial path: one trace, one
configuration, driven event-by-event through the online :class:`Cache`
(or the offline MIN simulator).  Every other replay implementation in
the repository is defined as "bit-identical to this".  The sweep
dispatcher (:func:`repro.cache.stackdist.replay_trace_sweep`) scores
many configurations in one call, MIN slots requested through
:class:`MinConfig`; the engine-table conformance test
(``tests/test_engine_table.py``) and the fuzzer's differential loop
hold every engine it may call to this path.
"""

from repro.cache.belady import next_use_index, simulate_min
from repro.cache.cache import Cache, CacheConfig
from repro.cache.semantics import (
    PREDICTOR_POLICIES,
    make_policy,
    signature_column,
)
from repro.vm.trace import FLAG_BYPASS, FLAG_KILL, FLAG_WRITE


class MinConfig:
    """Request Belady MIN replacement for one slot of a sweep.

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
