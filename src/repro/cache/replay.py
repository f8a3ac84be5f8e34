"""Replay recorded traces through cache models.

:func:`replay_trace` is the reference serial path: one trace, one
configuration, driven event-by-event through :class:`Cache` under any
policy, Belady MIN included.  Every other replay implementation in the
repository is defined as "bit-identical to this".  The sweep
dispatcher (:func:`repro.cache.stackdist.replay_trace_sweep`) scores
many configurations in one call, and the hierarchy's level outcome
(:func:`repro.cache.hierarchy.level_outcome`) falls back to this path
for its hit mask; the engine-table conformance test
(``tests/test_engine_table.py``) and the fuzzer's differential loop
hold every engine they may call to it.
"""

from collections import deque

import numpy

from repro.cache.cache import Cache, CacheConfig
from repro.cache.semantics import (
    NEXT_USE_POLICIES,
    SIGNATURE_POLICIES,
    make_policy,
    next_use_index,
    signature_column,
)


def replay_trace(trace, config=None, hits=None, **kwargs):
    """Run ``trace`` through a cache built from ``config``.

    ``config`` and keyword overrides are mutually exclusive: silently
    dropping kwargs next to an explicit config hid real mistakes, so
    that combination raises :class:`ValueError`.  With ``hits``, a
    NumPy boolean array of one entry per event, the replay also fills
    the hit mask the set-major kernel gives: true exactly where the
    event's transfer function returned ``"hit"``.  Returns the resulting
    :class:`~repro.cache.stats.CacheStats`.
    """
    if config is None:
        config = CacheConfig(**kwargs)
    elif kwargs:
        raise ValueError(
            "replay_trace: pass either a CacheConfig or keyword "
            "arguments, not both (got config plus {!r})".format(
                sorted(kwargs)
            )
        )

    cache = Cache(config, policy=policy_for_trace(trace, config))
    on_flags = cache.on_flags
    if cache.policy.needs_index:
        outcomes = (
            on_flags[flags](address, index)
            for index, (address, flags) in enumerate(trace)
        )
    else:
        outcomes = (on_flags[flags](address) for address, flags in trace)
    if hits is None:
        deque(outcomes, maxlen=0)
    else:
        hits[:] = numpy.fromiter(
            map("hit".__eq__, outcomes), dtype=bool, count=len(hits)
        )
    return cache.stats


def policy_for_trace(trace, config):
    """Build the policy object ``config`` needs to replay ``trace``.

    Returns ``None`` for the policies built from the config alone (the
    cache builds its own).  MIN, SHiP and Hawkeye read trace columns
    (:data:`~repro.cache.semantics.NEXT_USE_POLICIES`,
    :data:`~repro.cache.semantics.SIGNATURE_POLICIES`), so any driver
    holding only a config uses this to construct them.
    """
    next_use = signatures = None
    if config.policy in NEXT_USE_POLICIES:
        # A list: the policy reads one entry per event.
        next_use = next_use_index(
            trace, config.line_words, config.honor_bypass
        ).tolist()
    if config.policy in SIGNATURE_POLICIES:
        signatures = signature_column(trace)
    if next_use is None and signatures is None:
        return None
    return make_policy(config, next_use=next_use, signatures=signatures)
