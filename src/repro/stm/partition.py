"""State-space partitioning (§4.2).

FTC simplifies lock management "using state space partitioning, by
using the hash of state variable keys to map keys to partitions, each
with its own lock.  The state partitioning is consistent across all
replicas, and to reduce contention, the number of partitions is
selected to exceed the maximum number of CPU cores."

The hash must therefore be *stable*: identical at the head and at every
replica, and across simulation runs.  We use CRC-32 over a canonical
encoding of the key rather than Python's salted ``hash``.
"""

from __future__ import annotations

import zlib
from typing import Dict, Hashable

__all__ = ["PartitionSpace", "DEFAULT_PARTITIONS"]

#: Paper guidance: more partitions than the server's core count; the
#: testbed CPUs have 8 cores, we default comfortably above that.
DEFAULT_PARTITIONS = 64

#: Entries a :class:`PartitionSpace` memoizes before starting afresh.
_MEMO_CAP = 1024

#: Key types whose equal values always share one canonical encoding
#: (``True == 1`` and both encode as the int 1).  Floats are left out:
#: ``1 == 1.0`` but they encode differently.
_MEMO_ATOMS = frozenset((str, bytes, int, bool))


def _memoizable(key: Hashable) -> bool:
    """True when every key equal to ``key`` maps to the same partition."""
    kind = type(key)
    if kind is tuple:
        for element in key:
            if type(element) not in _MEMO_ATOMS and not (
                    type(element) is tuple and _memoizable(element)):
                return False
        return True
    return kind in _MEMO_ATOMS


def _canonical(key: Hashable) -> bytes:
    """A deterministic byte encoding of a state key."""
    if isinstance(key, bytes):
        return key
    if isinstance(key, str):
        return key.encode()
    if isinstance(key, int):
        try:
            return b"i" + key.to_bytes(16, "big", signed=True)
        except OverflowError:
            # Keys beyond 128 bits get a length-prefixed encoding; the
            # common fixed-width path keeps its historical mapping.
            n = (key.bit_length() + 8) // 8
            return b"I" + n.to_bytes(4, "big") + \
                key.to_bytes(n, "big", signed=True)
    if isinstance(key, tuple):
        parts = bytearray(b"t")
        for element in key:
            encoded = _canonical(element)
            parts += len(encoded).to_bytes(4, "big") + encoded
        return bytes(parts)
    # Fall back to repr for exotic-but-hashable keys (e.g. dataclasses).
    return repr(key).encode()


class PartitionSpace:
    """Maps state keys to a fixed number of lock partitions.

    Keys built from strings, bytes and ints (and tuples of those) are
    memoized in a bounded dict, cleared when it reaches its cap; other
    keys are hashed on every call.
    """

    def __init__(self, n_partitions: int = DEFAULT_PARTITIONS):
        if n_partitions < 1:
            raise ValueError("need at least one partition")
        self.n_partitions = n_partitions
        self._memo: Dict[Hashable, int] = {}

    def partition_of(self, key: Hashable) -> int:
        if not _memoizable(key):
            return zlib.crc32(_canonical(key)) % self.n_partitions
        memo = self._memo
        partition = memo.get(key)
        if partition is None:
            partition = zlib.crc32(_canonical(key)) % self.n_partitions
            if len(memo) >= _MEMO_CAP:
                memo.clear()
            memo[key] = partition
        return partition

    def partitions_of(self, keys) -> frozenset:
        return frozenset(self.partition_of(key) for key in keys)

    def __eq__(self, other):
        if not isinstance(other, PartitionSpace):
            return NotImplemented
        return self.n_partitions == other.n_partitions

    def __repr__(self):
        return f"<PartitionSpace n={self.n_partitions}>"
