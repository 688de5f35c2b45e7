"""Differential test of the per-partition prune index (§4.1, §4.3).

``ReplicationState`` prunes retained logs through a per-partition index
and checks only the partitions a commit advances (plus those of logs
retained since the previous commit).  :class:`ReferenceState` keeps the
original rule -- re-filter the whole retained list on every commit --
and the two must agree after every step of any protocol history.
"""

from hypothesis import given, settings, strategies as st

from repro.core.depvec import DependencyVector, ProtocolError, ReplicationState
from repro.core.piggyback import CommitVector, PiggybackLog
from repro.telemetry import Telemetry

N_PARTITIONS = 4


class ReferenceState(ReplicationState):
    """Pruning by a full rescan of a plain retained list per commit."""

    def _reindex(self, logs):
        self._ref = list(logs)

    def _retain(self, log):
        self._ref.append(log)

    @property
    def retained(self):
        return list(self._ref)

    def absorb_commit(self, commit):
        commit.merge_into(self.commit_floor)
        floor = self.commit_floor
        before = len(self._ref)
        self._ref = [
            log for log in self._ref
            if not all(seq + 1 <= floor.get(partition, 0)
                       for partition, seq in log.depvec.items())
        ]
        if before != len(self._ref):
            self._m_pruned.inc(before - len(self._ref))
        self._m_commit_lag.set(len(self._ref))


def _pair():
    return (ReplicationState("m", N_PARTITIONS, telemetry=Telemetry()),
            ReferenceState("m", N_PARTITIONS, telemetry=Telemetry()))


def _observe(state):
    return {
        "retained": [id(log) for log in state.retained],
        "pruned": state._m_pruned.value,
        "commit_lag": state._m_commit_lag.value,
        "max": dict(state.max),
        "pending": [id(log) for log in state.pending],
        "floor": dict(state.commit_floor),
    }


partition_sets = st.frozensets(st.integers(0, N_PARTITIONS - 1), max_size=3)

steps = st.one_of(
    st.tuples(st.just("new"), partition_sets),
    st.tuples(st.just("offer"), st.integers(0, 1 << 16)),
    st.tuples(st.just("record"), st.integers(0, 1 << 16)),
    st.tuples(st.just("absorb"),
              st.dictionaries(st.integers(0, N_PARTITIONS - 1),
                              st.integers(0, 12), max_size=N_PARTITIONS)),
    st.tuples(st.just("import"), st.integers(0, 1 << 16)),
    st.tuples(st.just("freeze"), st.none()),
    st.tuples(st.just("thaw"), st.none()),
)


class TestPruneIndexMatchesRescan:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(steps, max_size=60))
    def test_same_retained_counters_and_gauge(self, history):
        head = DependencyVector(N_PARTITIONS)
        made = []
        new, ref = _pair()
        for op, arg in history:
            if op == "new":
                # An empty partition set still writes: an empty-depvec
                # log that any commit covers.
                made.append(PiggybackLog(
                    "m", depvec=head.stamp(sorted(arg)),
                    updates={f"k{len(made)}": len(made)}))
            elif op in ("offer", "record") and made:
                log = made[arg % len(made)]
                outcomes = []
                for state in (new, ref):
                    try:
                        if op == "offer":
                            outcomes.append(state.offer(log))
                        else:
                            outcomes.append(state.record_local(log))
                    except ProtocolError:
                        outcomes.append("error")
                assert outcomes[0] == outcomes[1]
            elif op == "absorb":
                # Full or delta vectors alike: entries merge by max.
                for state in (new, ref):
                    state.absorb_commit(CommitVector("m", dict(arg)))
            elif op == "import" and made:
                # A recovering replica takes over a source's state: the
                # source applied a prefix of the history in order.
                source = ReferenceState("m", N_PARTITIONS)
                for log in made[:arg % (len(made) + 1)]:
                    source.offer(log)
                for state in (new, ref):
                    state.import_state(*source.export_state())
            elif op == "freeze":
                new.freeze()
                ref.freeze()
            elif op == "thaw":
                new.thaw()
                ref.thaw()
            assert _observe(new) == _observe(ref)

    def test_log_covered_on_arrival_is_pruned_next_commit(self):
        new, ref = _pair()
        for state in (new, ref):
            state.absorb_commit(CommitVector("m", {0: 5}))
            state.offer(PiggybackLog("m", depvec={0: 0}, updates={"k": 1}))
            assert len(state.retained) == 1
            state.absorb_commit(CommitVector("m", {}))
            assert state.retained == []

    def test_multi_partition_log_waits_for_every_partition(self):
        new, _ = _pair()
        log = PiggybackLog("m", depvec={0: 0, 2: 0}, updates={"k": 1})
        new.offer(log)
        new.absorb_commit(CommitVector("m", {0: 1}))
        assert new.retained == [log]
        new.absorb_commit(CommitVector("m", {2: 1}))
        assert new.retained == []
