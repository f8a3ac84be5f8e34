"""Property-based tests (hypothesis) on the core invariants.

Three families:

1. **Cache bookkeeping** — for arbitrary annotated reference streams,
   the statistics always balance and the cache never exceeds capacity.
2. **Protocol coherence** — for reference streams whose kill bits obey
   the compiler's discipline (a killed address is written before it is
   next read), the data-carrying cache returns exactly what flat
   memory would.
3. **Compiler arithmetic** — randomly generated MiniC expressions
   evaluate to the same value as a Python model of C semantics, across
   promotion levels.
"""

from hypothesis import given, settings, strategies as st

from repro.cache.cache import Cache, CacheConfig
from repro.cache.functional import DataCachedMemory
from repro.cache.replay import replay_trace
from repro.ir.instructions import RefClass, RefInfo, RegionKind
from repro.vm.trace import FLAG_BYPASS, FLAG_KILL, FLAG_WRITE, TraceBuffer

# ----------------------------------------------------------------------
# Strategies.
# ----------------------------------------------------------------------

geometries = st.sampled_from(
    [
        dict(size_words=4, associativity=1),
        dict(size_words=4, associativity=4),
        dict(size_words=8, associativity=2),
        dict(size_words=16, associativity=4),
    ]
)

raw_refs = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=23),  # address
        st.booleans(),  # write
        st.booleans(),  # bypass
        st.booleans(),  # kill
    ),
    max_size=200,
)


def make_trace(refs):
    trace = TraceBuffer()
    for address, is_write, bypass, kill in refs:
        flags = 0
        if is_write:
            flags |= FLAG_WRITE
        if bypass:
            flags |= FLAG_BYPASS
        if kill:
            flags |= FLAG_KILL
        trace.append(address, flags)
    return trace


class TestCacheBookkeeping:
    @given(geometry=geometries, refs=raw_refs,
           policy=st.sampled_from(["lru", "fifo", "random"]))
    @settings(max_examples=60, deadline=None)
    def test_stats_balance(self, geometry, refs, policy):
        cache = Cache(CacheConfig(policy=policy, **geometry))
        for address, is_write, bypass, kill in refs:
            cache.access(address, is_write, bypass, kill)
        stats = cache.stats
        assert stats.refs_total == len(refs)
        assert stats.refs_cached + stats.refs_bypassed == stats.refs_total
        assert stats.hits + stats.misses == stats.refs_cached
        assert stats.reads + stats.writes == stats.refs_total
        assert stats.writebacks <= stats.words_to_memory

    @given(geometry=geometries, refs=raw_refs)
    @settings(max_examples=60, deadline=None)
    def test_capacity_never_exceeded(self, geometry, refs):
        cache = Cache(CacheConfig(**geometry))
        for address, is_write, bypass, kill in refs:
            cache.access(address, is_write, bypass, kill)
            assert len(cache.contents()) <= geometry["size_words"]

    @given(geometry=geometries, refs=raw_refs)
    @settings(max_examples=40, deadline=None)
    def test_min_not_worse_than_lru(self, geometry, refs):
        # Compare under identical annotation handling.
        trace = make_trace(refs)
        lru = replay_trace(trace, CacheConfig(policy="lru", **geometry))
        best = replay_trace(trace, policy="min", **geometry)
        assert best.misses <= lru.misses

    @given(geometry=geometries, refs=raw_refs)
    @settings(max_examples=40, deadline=None)
    def test_ignoring_annotations_equals_plain_stream(self, geometry, refs):
        annotated = make_trace(refs)
        plain = make_trace(
            [(address, is_write, False, False)
             for address, is_write, _b, _k in refs]
        )
        ignore = CacheConfig(honor_bypass=False, honor_kill=False,
                             **geometry)
        honor_nothing = replay_trace(annotated, ignore)
        baseline = replay_trace(plain, CacheConfig(**geometry))
        assert honor_nothing.hits == baseline.hits
        assert honor_nothing.misses == baseline.misses
        assert honor_nothing.writebacks == baseline.writebacks


# ----------------------------------------------------------------------
# Protocol coherence with disciplined kill bits.
# ----------------------------------------------------------------------


def _ref(bypass, kill):
    ref = RefInfo("p", RegionKind.DIRECT)
    ref.ref_class = RefClass.UNAMBIGUOUS if bypass else RefClass.AMBIGUOUS
    ref.bypass = bypass
    ref.kill = kill
    return ref


@st.composite
def disciplined_streams(draw):
    """Reference streams whose kill bits respect value liveness:
    after a kill of address A, the next reference to A (if any) is a
    write.  This is exactly what the compiler's last-use analysis
    guarantees."""
    length = draw(st.integers(min_value=0, max_value=120))
    ops = []
    dead = set()
    for _ in range(length):
        address = draw(st.integers(min_value=0, max_value=15))
        is_write = draw(st.booleans())
        bypass = draw(st.booleans())
        if address in dead and not is_write:
            is_write = True  # Keep the discipline: write after kill.
        kill = not is_write and draw(st.booleans())
        if is_write:
            dead.discard(address)
        elif kill:
            dead.add(address)
        ops.append((address, is_write, bypass, kill))
    return ops


class TestProtocolCoherence:
    @given(geometry=geometries, ops=disciplined_streams())
    @settings(max_examples=80, deadline=None)
    def test_reads_match_flat_memory(self, geometry, ops):
        cached = DataCachedMemory(CacheConfig(line_words=1, **geometry))
        flat = {}
        for index, (address, is_write, bypass, kill) in enumerate(ops):
            ref = _ref(bypass, kill)
            if is_write:
                cached.write(address, index + 1, ref)
                flat[address] = index + 1
            else:
                value = cached.read(address, ref)
                assert value == flat.get(address, 0), (
                    "read of %d diverged at op %d" % (address, index)
                )


# ----------------------------------------------------------------------
# Compiler arithmetic fuzzing.
# ----------------------------------------------------------------------


def c_div(a, b):
    q = abs(a) // abs(b)
    if (a < 0) != (b < 0):
        q = -q
    return q


@st.composite
def expressions(draw, depth=0):
    """Generate (minic_text, python_value) pairs."""
    if depth >= 3 or draw(st.booleans()):
        value = draw(st.integers(min_value=0, max_value=99))
        return str(value), value
    op = draw(st.sampled_from(["+", "-", "*", "/", "%", "<", "==", "&&",
                               "||"]))
    left_text, left_value = draw(expressions(depth=depth + 1))
    right_text, right_value = draw(expressions(depth=depth + 1))
    if op == "+":
        value = left_value + right_value
    elif op == "-":
        value = left_value - right_value
    elif op == "*":
        value = left_value * right_value
    elif op == "/":
        if right_value == 0:
            return left_text, left_value
        value = c_div(left_value, right_value)
    elif op == "%":
        if right_value == 0:
            return left_text, left_value
        value = left_value - c_div(left_value, right_value) * right_value
    elif op == "<":
        value = 1 if left_value < right_value else 0
    elif op == "==":
        value = 1 if left_value == right_value else 0
    elif op == "&&":
        value = 1 if left_value and right_value else 0
    else:
        value = 1 if left_value or right_value else 0
    return "({} {} {})".format(left_text, op, right_text), value


class TestCompilerArithmetic:
    @given(pair=expressions(),
           promotion=st.sampled_from(["none", "modest", "aggressive"]))
    @settings(max_examples=60, deadline=None)
    def test_expression_evaluation(self, pair, promotion):
        from conftest import outputs

        text, expected = pair
        source = "int main() {{ print({}); return 0; }}".format(text)
        assert outputs(source, promotion=promotion) == [expected]

    @given(values=st.lists(st.integers(min_value=-50, max_value=50),
                           min_size=1, max_size=8))
    @settings(max_examples=30, deadline=None)
    def test_array_sum_roundtrip(self, values):
        from conftest import compile_program

        program = compile_program(
            "int data[8]; int n;"
            "int main() { int i; int s; s = 0;"
            "for (i = 0; i < n; i++) s = s + data[i]; return s; }"
        )
        vm = program.machine()
        vm.set_global("n", len(values))
        for index, value in enumerate(values):
            vm.set_global("data", value, index)
        assert vm.run().return_value == sum(values)
