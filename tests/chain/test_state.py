"""World state versioning and MVCC snapshot semantics."""

import pytest

from repro.chain.state import WorldState


@pytest.fixture
def state():
    s = WorldState()
    s.apply_write_set({"a": 1, "b": {"nested": True}})
    return s


def test_get_and_contains(state):
    assert state.get("a") == 1
    assert "a" in state and "missing" not in state
    assert state.get("missing") is None


def test_versions_increase_per_commit(state):
    v1 = state.version("a")
    state.apply_write_set({"a": 2})
    assert state.version("a") == v1 + 1


def test_absent_key_has_sentinel_version(state):
    assert state.version("missing") == -1


def test_get_returns_copy(state):
    value = state.get("b")
    value["nested"] = False
    assert state.get("b") == {"nested": True}


def test_apply_deletes_with_none(state):
    state.apply_write_set({"a": None})
    assert "a" not in state


def test_snapshot_records_reads(state):
    snap = state.snapshot()
    snap.get("a")
    snap.get("missing")
    assert snap.read_set == {"a": state.version("a"), "missing": -1}


def test_snapshot_read_your_writes(state):
    snap = state.snapshot()
    snap.put("a", 99)
    assert snap.get("a") == 99
    # Buffered read does not add to the read set.
    assert "a" not in snap.read_set


def test_snapshot_delete_visible(state):
    snap = state.snapshot()
    snap.delete("a")
    assert snap.get("a") is None


def test_snapshot_put_none_rejected(state):
    with pytest.raises(ValueError):
        state.snapshot().put("a", None)


def test_validate_read_set_fresh(state):
    snap = state.snapshot()
    snap.get("a")
    assert state.validate_read_set(snap.read_set)


def test_validate_read_set_stale_after_write(state):
    snap = state.snapshot()
    snap.get("a")
    state.apply_write_set({"a": 2})
    assert not state.validate_read_set(snap.read_set)


def test_validate_read_of_absent_key_stale_after_create(state):
    snap = state.snapshot()
    snap.get("new-key")
    state.apply_write_set({"new-key": 1})
    assert not state.validate_read_set(snap.read_set)


def test_prefix_scan_committed(state):
    state.apply_write_set({"p:1": 1, "p:2": 2, "q:1": 3})
    snap = state.snapshot()
    assert snap.keys_with_prefix("p:") == ["p:1", "p:2"]


def test_prefix_scan_merges_buffered_writes(state):
    state.apply_write_set({"p:1": 1})
    snap = state.snapshot()
    snap.put("p:2", 2)
    snap.delete("p:1")
    assert snap.keys_with_prefix("p:") == ["p:2"]


def test_prefix_scan_records_reads_for_mvcc(state):
    state.apply_write_set({"p:1": 1})
    snap = state.snapshot()
    snap.keys_with_prefix("p:")
    state.apply_write_set({"p:1": 2})
    assert not state.validate_read_set(snap.read_set)


def test_len_counts_keys(state):
    assert len(state) == 2


# -- values are copied structurally (dict / list), deep-copied otherwise -------


def _nested():
    return [{"rows": [1, {"tags": ["a", "b"]}]}, "tail"]


def _tamper(value):
    value[0]["rows"][1]["tags"].append("TAMPERED")
    value[0]["rows"].append("TAMPERED")
    value.append("TAMPERED")


def test_nested_value_is_isolated_on_get_put_apply_and_dump():
    state = WorldState()
    handed_in = _nested()
    state.apply_write_set({"k": handed_in})
    digest = state.state_digest()
    _tamper(handed_in)                       # what apply_write_set was given
    _tamper(state.get("k"))                  # what get handed out
    assert state.get("k") == _nested() and state.state_digest() == digest

    snapshot = state.snapshot()
    put = _nested()
    snapshot.put("k2", put)
    _tamper(put)                             # what put was given
    _tamper(snapshot.get("k2"))              # read-your-writes hands out a copy
    _tamper(snapshot.get("k"))               # and so does a read through to the base
    assert snapshot.get("k2") == _nested() and snapshot.write_buffer["k2"] == _nested()
    assert state.get("k") == _nested() and state.state_digest() == digest

    dumped = state.dump()
    restored = WorldState.from_dump(dumped)
    _tamper(dumped["entries"][0][1])         # the dump aliases the source by design ...
    assert restored.get("k") == _nested()    # ... the restored state does not
    assert restored.state_digest() == digest


class _Record(dict):
    """Not an exact dict: takes the deepcopy branch."""


@pytest.mark.parametrize("value, inner", [
    ((1, [2, 3]), lambda v: v[1]),
    ({"x", "y"}, None),
    (_Record(a=[1, 2]), lambda v: v["a"]),
    ({"outer": (1, [2])}, lambda v: v["outer"][1]),
])
def test_non_json_values_come_back_equal_and_unshared(value, inner):
    state = WorldState()
    state.apply_write_set({"k": value})
    first, second = state.get("k"), state.get("k")
    assert first == value and type(first) is type(value)
    assert first is not value and first is not second
    if inner is not None:
        assert inner(first) is not inner(value) and inner(first) is not inner(second)
        inner(first).append("TAMPERED")
        inner(value).append("TAMPERED")
        assert state.get("k") == second
