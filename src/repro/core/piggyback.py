"""Piggyback logs, commit vectors, and piggyback messages (§4.1, §5.1).

A *piggyback log* carries one packet transaction's state updates for
one middlebox, ordered by a (sparse) dependency vector.  A *commit
vector* is a tail's announcement that everything up to its MAX vector
has been replicated f+1 times.  A *piggyback message* is the container
a packet actually carries: a list of in-flight logs per middlebox plus
the latest commit vector per middlebox.

Byte sizes are estimated from the cost model's serialization constants
so wire and copy costs reflect what a real implementation would pay
(FTC appends the message after the payload and adjusts the IP length).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Dict, Hashable, List, Optional, Tuple

from .costs import CostModel, DEFAULT_COSTS

__all__ = ["PiggybackLog", "CommitVector", "PiggybackMessage", "value_bytes"]

_log_ids = itertools.count(1)


def value_bytes(value: Any, costs: CostModel = DEFAULT_COSTS) -> int:
    """Estimate the serialized size of one state value."""
    if value is None:
        return 1
    if isinstance(value, (bytes, bytearray)):
        return len(value)
    if isinstance(value, str):
        return len(value.encode())
    if isinstance(value, bool):
        return 1
    if isinstance(value, int):
        return 8
    if isinstance(value, float):
        return 8
    if isinstance(value, (tuple, list)):
        return sum(value_bytes(v, costs) for v in value)
    if isinstance(value, dict):
        return sum(costs.key_bytes + value_bytes(v, costs)
                   for v in value.values())
    # Flow keys and other small records serialize to ~a 5-tuple.
    return costs.key_bytes


@dataclass
class PiggybackLog:
    """State updates of one packet transaction at one middlebox.

    ``depvec`` maps accessed partition -> pre-increment sequence
    number; partitions absent from it are "don't care" (§4.3).  A
    read-only transaction produces a no-op log (empty depvec, no
    updates) which replicas skip over.

    A log is *sealed* once built: nothing writes ``depvec`` or
    ``updates`` after construction (the head stamps both before the
    log leaves the transaction).  Its wire size and state-byte count
    are therefore computed on first use and cached on the log, so the
    replicas and messages it travels through never re-walk its values.
    """

    mbox: str
    depvec: Dict[int, int] = field(default_factory=dict)
    updates: Dict[Hashable, Any] = field(default_factory=dict)
    packet_id: int = 0
    log_id: int = field(default_factory=lambda: next(_log_ids))
    #: ``(costs, byte_size, state_bytes)`` once measured under ``costs``.
    _sizes: Optional[Tuple[CostModel, int, int]] = field(
        default=None, init=False, repr=False, compare=False)

    @property
    def is_noop(self) -> bool:
        return not self.depvec and not self.updates

    def _measure(self, costs: CostModel) -> Tuple[CostModel, int, int]:
        sizes = self._sizes
        if sizes is None or sizes[0] is not costs:
            state = 0
            for value in self.updates.values():
                state += value_bytes(value, costs)
            size = (costs.log_header_bytes +
                    len(self.depvec) * costs.depvec_entry_bytes +
                    len(self.updates) * costs.key_bytes + state)
            sizes = self._sizes = (costs, size, state)
        return sizes

    def byte_size(self, costs: CostModel = DEFAULT_COSTS) -> int:
        return self._measure(costs)[1]

    def state_bytes(self, costs: CostModel = DEFAULT_COSTS) -> int:
        """Bytes of raw state values carried (for copy-cost accounting)."""
        return self._measure(costs)[2]

    def __repr__(self):
        return (f"<PBLog {self.mbox} vec={self.depvec} "
                f"updates={len(self.updates)}>")


@dataclass
class CommitVector:
    """A tail's MAX vector: all updates before it are f+1 replicated.

    ``entries`` may be a delta (only partitions that advanced since the
    tail's previous announcement); receivers merge with element-wise max.
    """

    mbox: str
    entries: Dict[int, int] = field(default_factory=dict)

    def byte_size(self, costs: CostModel = DEFAULT_COSTS) -> int:
        return (costs.commit_header_bytes +
                len(self.entries) * costs.depvec_entry_bytes)

    def merge_into(self, target: Dict[int, int]) -> None:
        for partition, seq in self.entries.items():
            if seq > target.get(partition, -1):
                target[partition] = seq

    def covers(self, depvec: Dict[int, int]) -> bool:
        """True when every entry of ``depvec`` is replicated under this vector.

        A log with pre-increment value v on partition p is replicated
        once the commit vector reports MAX[p] >= v + 1.
        """
        return all(self.entries.get(partition, 0) >= seq + 1
                   for partition, seq in depvec.items())

    def __repr__(self):
        return f"<Commit {self.mbox} {self.entries}>"


class PiggybackMessage:
    """The per-packet container of logs and commit vectors.

    ``byte_size()`` is cached until the next ``add_log``, ``take_logs``
    or ``set_commit`` (the only ways the container changes), so the many
    ``Packet.wire_size`` reads along a hop cost one attribute load.
    """

    def __init__(self, costs: CostModel = DEFAULT_COSTS):
        self.costs = costs
        self.logs: Dict[str, List[PiggybackLog]] = {}
        self.commits: Dict[str, CommitVector] = {}
        self._size: Optional[int] = None

    def add_log(self, log: PiggybackLog) -> None:
        self.logs.setdefault(log.mbox, []).append(log)
        self._size = None

    def add_logs(self, logs: List[PiggybackLog]) -> None:
        for log in logs:
            self.add_log(log)

    def take_logs(self, mbox: str) -> List[PiggybackLog]:
        """Remove and return all logs for ``mbox`` (done by its tail)."""
        logs = self.logs.pop(mbox, None)
        if logs is None:
            return []
        self._size = None
        return logs

    def logs_for(self, mbox: str) -> List[PiggybackLog]:
        return self.logs.get(mbox, [])

    def set_commit(self, commit: CommitVector) -> None:
        self.commits[commit.mbox] = commit
        self._size = None

    def commit_for(self, mbox: str) -> Optional[CommitVector]:
        return self.commits.get(mbox)

    @property
    def n_logs(self) -> int:
        return sum(len(logs) for logs in self.logs.values())

    def byte_size(self) -> int:
        size = self._size
        if size is None:
            costs = self.costs
            size = costs.message_header_bytes
            for logs in self.logs.values():
                for log in logs:
                    size += log.byte_size(costs)
            for commit in self.commits.values():
                size += commit.byte_size(costs)
            self._size = size
        return size

    def state_bytes(self) -> int:
        """Bytes of raw state values carried (for copy-cost accounting)."""
        costs = self.costs
        return sum(log.state_bytes(costs)
                   for logs in self.logs.values() for log in logs)

    def __repr__(self):
        return (f"<PBMsg logs={{{', '.join(f'{m}:{len(l)}' for m, l in self.logs.items())}}} "
                f"commits={sorted(self.commits)}>")
