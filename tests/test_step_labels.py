"""Step labels of row-backed sequences, built on read, against eager references.

Covered claims:
    - on session histories (emits, complete, partial and discarded grafts,
      nested to depth 3; every child history in the labels too) and on
      `e0_normalize` of random traces (some declaring types they do not
      use), every label read by positive index, by negative index and by
      slice equals the eager reference (`reference_history_steps`, the
      labels of `reference_e0_normalize`); `steps` compares with tuples, from
      either side, as the reference does; indexing past either end raises
      IndexError,
      and a pickled or deep-copied sequence keeps equal labels
    - `history()` and `e0_normalize` build no `ActionId`, `Emission` or
      `Invocation` until `steps` is indexed, and indexing label `k` builds
      that one label and its own ids only
    - hashing a row-backed sequence builds no graph and agrees with its
      graph-backed copy; its `graphs` and `steps` views are unhashable
"""

import copy
import pickle
from collections import Counter
from collections.abc import Sequence

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cteg import ActionId, Emission, ExecutionSequence, Invocation, e0_normalize
from test_dynamics import ctegs_declaring_types
from test_session import _drive, _scripts, quiet_session
from util import counting_graphs, counting_labels, reference_e0_normalize, reference_history_steps


def assert_labels_match(steps, reference, data) -> None:
    """`steps` against the reference tuple, and so on down every invocation label's subtrace."""
    n = len(reference)
    assert isinstance(steps, Sequence) and not isinstance(steps, tuple)
    assert len(steps) == n
    for k in range(n):
        assert steps[k] == reference[k]
        assert steps[k - n] == reference[k - n]
    for k in (n, -n - 1):
        with pytest.raises(IndexError):
            steps[k]
    cut = data.draw(st.slices(n + 2))
    assert steps[cut] == reference[cut]
    assert steps == reference and reference == steps
    rotated = reference[1:] + reference[:1]
    assert (steps == rotated) is (rotated == steps) is (reference == rotated)
    for got, want in zip(steps, reference):
        if isinstance(want, Invocation):
            assert_labels_match(got.subtrace.steps, want.subtrace.steps, data)


def assert_copies_keep_the_labels(seq: ExecutionSequence, reference, data) -> None:
    for kept in (pickle.loads(pickle.dumps(seq)), copy.deepcopy(seq)):
        assert kept == seq and kept.steps == seq.steps
        assert_labels_match(kept.steps, reference, data)


@given(script=_scripts(3), seed=st.integers(0, 2**32 - 1), data=st.data())
def test_history_labels_match_the_eager_reference(script, seed, data):
    s = quiet_session(seed)
    _drive(s, script)
    history, reference = s.history(), reference_history_steps(s)
    assert_labels_match(history.steps, reference, data)
    assert_copies_keep_the_labels(history, reference, data)


@given(c=ctegs_declaring_types(), data=st.data())
def test_normal_form_labels_match_the_eager_reference(c, data):
    seq, reference = e0_normalize(c), reference_e0_normalize(c).steps
    assert_labels_match(seq.steps, reference, data)
    assert_copies_keep_the_labels(seq, reference, data)


def labelled_session():
    """A session with emits and grafts nested to depth 2, one graft of a bare child root among them."""
    s = quiet_session(7)
    grandchild = [("emit", 0, "c", 2), ("emit", 1, "a", 1)]
    child = [("emit", 0, "b", 2), ("invoke", 1, None, grandchild), ("invoke", 0, None, [])]
    _drive(s, [("emit", 0, "a", 3), ("invoke", 2, None, child), ("emit", 4, "a", 2), ("invoke", 0, None, child)])
    return s


def test_labels_are_built_only_when_indexed_and_one_at_a_time():
    s = labelled_session()
    trace = s.snapshot()
    built, patch = counting_labels()
    with patch:
        pending = [s.history(), e0_normalize(trace)]
        assert built == []
        grafts = 0
        while pending:
            seq = pending.pop()
            for k in range(len(seq.steps)):
                built.clear()
                label = seq.steps[k]
                if isinstance(label, Emission):
                    assert Counter(built) == {Emission: 1, ActionId: 1 + len(label.emitted)}
                else:
                    assert Counter(built) == {Invocation: 1, ActionId: 2}
                    grafts += 1
                    pending.append(label.subtrace)
    assert grafts == 6


def test_hashing_a_row_backed_sequence_builds_no_graph():
    s = labelled_session()
    for seq in (s.history(), e0_normalize(s.snapshot())):
        built, patch = counting_graphs()
        with patch:
            h = hash(seq)
        assert built == []
        assert h == hash(ExecutionSequence._chain(tuple(seq.graphs), None))
        for view in (seq.graphs, seq.steps):
            with pytest.raises(TypeError, match="unhashable"):
                hash(view)
