"""Row-backed execution sequences against their graph-backed copies.

Covered claims:
    - on session histories (emits, complete, partial and discarded grafts,
      nested to depth 3; every child history in the labels too), on
      `e0_normalize` of random traces (some declaring types they do not
      use) and on mutated row lists (a second crossing edge, a child no
      later than its parent, a delta row hanging from a later row, a
      non-trivial first state, a mark below the one before it), a
      row-backed sequence and its graph-backed copy get the same membership
      diagnostics, codes and messages; every graph indexed equals the
      copy's; the two are equal, hash equal and make one set element
    - where no graph-backed copy can be built (a repeated id, a type
      outside the declared set), membership raises the copy's ValueError
    - two row-backed sequences, each declaring no type set, the types in
      use or more, compare equal exactly when their graph-backed copies do
    - `history()` plus membership builds no graph, not even the final of
      an invocation label, at any depth; slices of a row-backed sequence
      are row-backed and build nothing
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cteg import (
    ExecutionSequence,
    Invocation,
    e0_normalize,
    is_member_e_infinity,
)
from cteg.dynamics import _Prefixes
from test_dynamics import ctegs_declaring_types
from test_session import _drive, _scripts, quiet_session
from util import counting_graphs, ty


def assert_matches_its_copy(seq: ExecutionSequence) -> ExecutionSequence | None:
    """Check `seq` against its graph-backed copy and return the copy, or None when no copy can be built."""
    assert isinstance(seq.graphs, _Prefixes)
    try:
        copy = ExecutionSequence._chain(tuple(seq.graphs), seq.steps)
    except ValueError as exc:
        with pytest.raises(ValueError) as caught:
            is_member_e_infinity(seq)
        assert str(caught.value) == str(exc)
        return None
    assert is_member_e_infinity(seq) == is_member_e_infinity(copy)
    assert len(seq) == len(copy)
    for k in range(len(copy)):
        assert seq.graphs[k] == copy.graphs[k]
    assert seq == copy and copy == seq
    assert hash(seq) == hash(copy)
    assert len({seq, copy}) == 1
    return copy


def _every_history(seq: ExecutionSequence):
    """A history and, depth first, every child history its labels carry."""
    yield seq
    for label in seq.steps or ():
        if isinstance(label, Invocation):
            yield from _every_history(label.subtrace)


@given(script=_scripts(3), seed=st.integers(0, 2**32 - 1))
def test_session_histories_match_their_graph_backed_copies(script, seed):
    s = quiet_session(seed)
    _drive(s, script)
    for seq in _every_history(s.history()):
        assert_matches_its_copy(seq)
        assert is_member_e_infinity(seq).ok


@given(ctegs_declaring_types())
def test_normal_forms_match_their_graph_backed_copies(c):
    seq = e0_normalize(c)
    assert_matches_its_copy(seq)
    assert all(g.type_set == c.graph.type_set for g in seq.graphs)


MUTATIONS = (
    "second-crossing-edge",
    "not-later",
    "hangs-from-a-later-row",
    "non-trivial-start",
    "falling-mark",
    "repeated-id",
    "undeclared-type",
)


@st.composite
def mutated_sequences(draw):
    """A session history's rows and marks, mutated, as a row-backed sequence; and the
    same rows or the unmutated history as another.

    Each declares no type set, the types in use, or more, drawn apart. The
    last two mutations leave a state that no graph can represent.
    """
    s = quiet_session(draw(st.integers(0, 2**32 - 1)))
    _drive(s, draw(_scripts(2)))
    base = s.history()
    rows, marks = list(base.graphs.rows[: base.graphs.marks[-1]]), list(base.graphs.marks)
    used = frozenset(row[3] for row in rows)
    type_sets = st.sampled_from([None, used, used | {ty("spare")}])
    type_set = draw(type_sets)
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    for kind in draw(st.lists(st.sampled_from(MUTATIONS), min_size=1, max_size=3)):
        steps = [(k, lo, hi) for k, (lo, hi) in enumerate(zip(marks, marks[1:])) if hi > lo]
        if not steps:
            continue
        k, lo, hi = rng.choice(steps)
        j = rng.randrange(lo, hi)
        node, parent, stamp, event_type, payload = rows[j]
        if kind == "second-crossing-edge" and hi - lo > 1:
            j = rng.randrange(lo + 1, hi)
            rows[j] = (rows[j][0], rows[rng.randrange(lo)][0], *rows[j][2:])
        elif kind == "not-later":
            # A repeated id drawn before may have renamed the parent's own row away.
            parent_stamp = next((row[2] for row in rows if row[0] == parent), None)
            if parent_stamp is not None:
                rows[j] = (node, parent, parent_stamp, event_type, payload)
        elif kind == "hangs-from-a-later-row":
            rows[lo:hi] = rng.sample(rows[lo:hi], hi - lo)
        elif kind == "non-trivial-start" and len(marks) > 1:
            marks = marks[1:]
        elif kind == "falling-mark":
            marks[k], marks[k + 1] = hi, lo
        elif kind == "repeated-id":
            rows[j] = (rows[rng.randrange(j)][0], parent, stamp, event_type, payload)
        elif kind == "undeclared-type" and type_set is not None:
            rows[j] = (node, parent, stamp, ty("undeclared"), payload)
    steps = base.steps[len(base) - len(marks) :]
    mutated = ExecutionSequence._rows(rows, tuple(marks), steps, type_set)
    if draw(st.booleans()):
        return mutated, ExecutionSequence._rows(rows, tuple(marks), steps, draw(type_sets))
    return mutated, ExecutionSequence._rows(base.graphs.rows, base.graphs.marks, base.steps, draw(type_sets))


@settings(max_examples=200)
@given(mutated_sequences())
def test_mutated_rows_match_their_graph_backed_copies(pair):
    seq, base = pair
    copy, base_copy = assert_matches_its_copy(seq), assert_matches_its_copy(base)
    if copy is not None:
        assert (seq == base) is (copy == base_copy)
        assert (base == seq) is (base_copy == copy)


def test_history_and_membership_build_no_graph():
    s = quiet_session(7)
    grandchild = [("emit", 0, "c", 2), ("emit", 1, "a", 1)]
    child = [("emit", 0, "b", 2), ("invoke", 1, None, grandchild), ("invoke", 0, None, [])]
    _drive(s, [("emit", 0, "a", 3), ("invoke", 2, None, child), ("emit", 4, "a", 2), ("invoke", 0, None, child)])
    built, patch = counting_graphs()
    with patch:
        history = s.history()
        assert is_member_e_infinity(history).ok
        labels = [label for seq in _every_history(history) for label in seq.steps if isinstance(label, Invocation)]
        sliced = history.graphs[1:-1]
    assert len(labels) == 6
    assert built == []
    assert isinstance(sliced, _Prefixes) and len(sliced) == len(history) - 2
