"""Immutable values: one slotted layout, and no private state handed out.

Covered claims:
    - every frozen value class (timestamps, types, violations, diagnostics,
      graphs, both step labels, execution sequences of both forms, bounds,
      open reports, simulation configs) and every trace has no instance
      `__dict__`, and refuses to set a field or to set or delete a new
      attribute with AttributeError (FrozenInstanceError for the
      dataclasses), never TypeError
    - graphs, both kinds of step label and graph-backed sequences survive
      pickling, `copy.copy` and `copy.deepcopy` equal and hash equal, also
      once their hashes are cached; a graph and a sequence pickled under
      another hash seed load with the hash of this process
    - `parent_map`, `children_map` and `in_degrees` return a new dict on
      each call: a caller that edits one, as a Kahn peel edits degrees,
      changes neither the next call nor `causal_path`, `validate_cteg`, the
      attach check of `Invocation` or `apply_invocation`
"""

import copy
import dataclasses
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from cteg import (
    AttachPointError,
    Cteg,
    Emission,
    ExecutionSequence,
    Invocation,
    Timestamp,
    UniverseBounds,
    apply_invocation,
    begin_session,
    causal_path,
    validate_cteg,
)
from cteg.cli import SimulationConfig
from cteg.core import Diagnostics, Violation
from cteg.persistence import OpenReport
from util import aid, cteg, graph, ts, ty

CHAIN = cteg({1: 0, 2: 1, 3: 2, 4: 3}, {(1, 2), (2, 3), (2, 4)}, root=1)  # 1 -> 2 -> {3, 4}


def _session_history() -> ExecutionSequence:
    """A row-backed history with one emission and one graft."""
    ids, clock = iter(range(1, 100)), iter(range(1, 100))
    kw = dict(wall_clock=lambda: next(clock), id_factory=lambda: next(ids).to_bytes(16, "big"))
    session = begin_session(ty("task"), **kw)
    (child_parent,) = session.emit(session.root, [(ty("tool"), b"x")])
    handle, child = session.invoke_subagent(child_parent, ty("sub"))
    child.emit(child.root, [(ty("tool"), b"")])
    session.complete_subagent(handle, child)
    return session.history()


def _values() -> list:
    g0 = graph({1: 0}, set())
    g1 = graph({1: 0, 2: 1}, {(1, 2)}, payloads={2: b"p"})
    sub = ExecutionSequence((graph({5: 4}, set()),), ())
    return [
        Timestamp(3),
        ty("task"),
        Violation("cycle", "a cycle"),
        Diagnostics((Violation("cycle", "a cycle"),)),
        g1,
        Emission(aid(1), frozenset({aid(2)})),
        Invocation(aid(1), sub, aid(5)),
        ExecutionSequence((g0, g1), (Emission(aid(1), frozenset({aid(2)})),)),
        _session_history(),
        UniverseBounds((aid(1), aid(2)), (ts(0), ts(1)), frozenset({ty("evt")}), 2),
        OpenReport(3, 1, 0, False),
        SimulationConfig(seed=1),
        CHAIN,
    ]


@pytest.mark.parametrize("value", _values(), ids=lambda v: type(v).__name__)
def test_values_have_no_instance_dict_and_take_no_new_attribute(value):
    assert not hasattr(value, "__dict__")
    field = "root" if isinstance(value, Cteg) else dataclasses.fields(value)[0].name
    with pytest.raises(AttributeError):
        setattr(value, field, getattr(value, field))
    with pytest.raises(AttributeError):
        value.other = 1
    with pytest.raises(AttributeError):
        del value.other
    assert not hasattr(value, "other")


def _copyable() -> list:
    g1 = graph({1: 0, 2: 1}, {(1, 2)}, types={2: "tool"}, payloads={2: b"p"}, type_set={"spare"})
    sub = ExecutionSequence((graph({5: 4}, set()), graph({5: 4, 6: 5}, {(5, 6)})), None)
    emission = Emission(aid(1), frozenset({aid(2)}))
    return [
        g1,
        emission,
        Invocation(aid(2), sub, aid(5)),
        ExecutionSequence((graph({1: 0}, set(), type_set={"tool", "spare"}), g1), (emission,)),
        sub,
    ]


@pytest.mark.parametrize("value", _copyable(), ids=lambda v: type(v).__name__)
@pytest.mark.parametrize("hashed_first", [False, True], ids=["fresh", "hashed"])
def test_pickle_and_copies_round_trip(value, hashed_first):
    if hashed_first:
        hash(value)
    for other in (pickle.loads(pickle.dumps(value)), copy.copy(value), copy.deepcopy(value)):
        assert type(other) is type(value)
        assert other == value and value == other and hash(other) == hash(value)


PICKLE_UNDER_ANOTHER_SEED = """
import pickle, sys
from util import graph
from cteg import ExecutionSequence
g = graph({1: 0, 2: 1}, {(1, 2)})
seq = ExecutionSequence((graph({1: 0}, set()), g), None)
hash(g), hash(seq)  # cached under this process's seed before pickling
sys.stdout.buffer.write(pickle.dumps((g, seq)))
"""


def test_a_cached_hash_does_not_travel_in_a_pickle():
    seed = os.environ.get("PYTHONHASHSEED", "")
    other = "1" if seed in ("", "random", "0") else "0"
    tests = Path(__file__).resolve().parent
    env = {**os.environ, "PYTHONHASHSEED": other, "PYTHONPATH": os.pathsep.join((str(tests.parent / "src"), str(tests)))}
    made = subprocess.run([sys.executable, "-c", PICKLE_UNDER_ANOTHER_SEED], env=env, capture_output=True, timeout=60)
    assert made.returncode == 0, made.stderr.decode()
    g, seq = pickle.loads(made.stdout)
    here = graph({1: 0, 2: 1}, {(1, 2)})
    assert hash(g) == hash(here) and g in {here}
    assert hash(seq) == hash(ExecutionSequence((graph({1: 0}, set()), here), None))


class TestMapsAreTheCallersOwn:
    def test_an_edited_parent_map_changes_neither_the_next_nor_causal_path(self):
        parents = CHAIN.parent_map()
        expected = dict(parents)
        parents[aid(3)] = CHAIN.root
        del parents[aid(4)]
        assert CHAIN.parent_map() == expected
        assert causal_path(CHAIN, aid(3)) == (aid(1), aid(2), aid(3))
        assert causal_path(CHAIN, aid(4)) == (aid(1), aid(2), aid(4))

    def test_an_edited_children_map_changes_neither_the_next_nor_validation(self):
        g = CHAIN.graph
        children = g.children_map()
        expected = dict(children)
        children[aid(1)] = ()
        children[aid(2)] = (aid(1),)
        assert g.children_map() == expected
        assert validate_cteg(g, CHAIN.root).ok

    def test_a_peeled_in_degree_map_changes_neither_the_next_nor_validation(self):
        g = CHAIN.graph
        degrees = g.in_degrees()
        expected = dict(degrees)
        for n in degrees:  # what a Kahn peel leaves behind
            degrees[n] = 0
        degrees[aid(1)] = 1
        assert g.in_degrees() == expected
        assert g.in_degree(aid(3)) == 1 and g.in_degree(aid(1)) == 0
        assert validate_cteg(g, CHAIN.root).ok

    def test_edited_in_degrees_change_no_attach_check(self):
        sub = ExecutionSequence((graph({5: 4}, set()), graph({5: 4, 6: 5}, {(5, 6)})), None)
        host = graph({1: 0}, set())
        degrees = sub.final.in_degrees()
        degrees[aid(5)], degrees[aid(6)] = 1, 0
        assert Invocation(aid(1), sub, aid(5)).attach == aid(5)
        with pytest.raises(AttachPointError, match="does not have in-degree zero"):
            Invocation(aid(1), sub, aid(6))
        assert apply_invocation(host, aid(1), sub) == graph({1: 0, 5: 4, 6: 5}, {(1, 5), (5, 6)})
        with pytest.raises(AttachPointError, match="does not have in-degree zero"):
            apply_invocation(host, aid(1), sub, attach=aid(6))
