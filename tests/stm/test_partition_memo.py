"""The memoized ``PartitionSpace.partition_of`` equals the plain CRC path."""

import zlib

from hypothesis import given, settings, strategies as st

from repro.net.packet import FlowKey
from repro.stm import PartitionSpace
from repro.stm.partition import _MEMO_CAP, _canonical

N = 64


def crc_partition(key, n=N):
    return zlib.crc32(_canonical(key)) % n


flow_keys = st.builds(FlowKey, st.integers(0, 2 ** 32 - 1),
                      st.integers(0, 2 ** 32 - 1), st.integers(0, 65535),
                      st.integers(0, 65535))
atoms = st.one_of(
    st.integers(-1000, 1000),
    st.integers(min_value=2 ** 127, max_value=2 ** 200),
    st.integers(max_value=-(2 ** 127) - 1, min_value=-(2 ** 200)),
    st.floats(),
    st.booleans(),
    st.text(max_size=6),
    st.binary(max_size=6),
    flow_keys,
)
keys = st.recursive(
    atoms, lambda inner: st.lists(inner, max_size=3).map(tuple),
    max_leaves=8)


def _equal_pairs(n):
    """Keys that compare (and hash) equal but encode differently."""
    return [(n, float(n)), ((n,), (float(n),)), (("k", n), ("k", float(n))),
            ((("k", n),), (("k", float(n)),)), (bool(n % 2), float(n % 2))]


class TestMemoEquivalence:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(keys, max_size=40))
    def test_any_query_order_matches_crc(self, queries):
        space = PartitionSpace(N)
        for key in queries + queries[::-1] + queries:
            assert space.partition_of(key) == crc_partition(key)

    @given(st.one_of(st.integers(-(2 ** 53), 2 ** 53),
                     st.integers(127, 140).map(lambda e: 2 ** e)))
    def test_equal_but_differently_encoded_keys(self, n):
        for a, b in _equal_pairs(n):
            assert a == b
            for first, second in ((a, b), (b, a)):
                space = PartitionSpace(N)
                assert space.partition_of(first) == crc_partition(first)
                assert space.partition_of(second) == crc_partition(second)

    def test_true_and_one_share_a_partition(self):
        space = PartitionSpace(N)
        assert space.partition_of(("k", True)) == space.partition_of(("k", 1))

    def test_partitions_of_goes_through_partition_of(self):
        space = PartitionSpace(N)
        chosen = [("count", 0), "x", 1.5, FlowKey(1, 2, 3, 4)]
        assert space.partitions_of(chosen) == frozenset(
            crc_partition(key) for key in chosen)

    def test_memo_never_exceeds_its_cap(self):
        space = PartitionSpace(N)
        for i in range(3 * _MEMO_CAP + 7):
            assert space.partition_of(("flow", i)) == crc_partition(("flow", i))
            assert len(space._memo) <= _MEMO_CAP

    def test_unmemoizable_keys_are_not_stored(self):
        space = PartitionSpace(N)
        for key in (1.0, ("k", 2.5), FlowKey(1, 2, 3, 4),
                    ("nat", FlowKey(1, 2, 3, 4))):
            space.partition_of(key)
        assert space._memo == {}
