"""Tests for per-key version chains."""

import pytest

from repro.storage.versions import Version, VersionChain, newest_rows


def _chain(*pairs):
    chain = VersionChain("k")
    for ts, value in pairs:
        chain.install(Version(commit_ts=ts, value=value, txn_id=ts))
    return chain


def test_empty_chain():
    chain = VersionChain("k")
    assert len(chain) == 0
    assert chain.latest is None
    assert chain.latest_commit_ts == 0
    assert chain.visible_at(100) is None


def test_install_and_latest():
    chain = _chain((1, "a"), (3, "b"))
    assert chain.latest.value == "b"
    assert chain.latest_commit_ts == 3
    assert len(chain) == 2


def test_install_out_of_order_rejected():
    chain = _chain((5, "a"))
    with pytest.raises(ValueError, match="out of order"):
        chain.install(Version(commit_ts=5, value="b", txn_id=2))
    with pytest.raises(ValueError, match="out of order"):
        chain.install(Version(commit_ts=3, value="c", txn_id=3))


def test_visible_at_exact_and_between():
    chain = _chain((2, "a"), (5, "b"), (9, "c"))
    assert chain.visible_at(1) is None
    assert chain.visible_at(2).value == "a"
    assert chain.visible_at(4).value == "a"
    assert chain.visible_at(5).value == "b"
    assert chain.visible_at(8).value == "b"
    assert chain.visible_at(9).value == "c"
    assert chain.visible_at(1000).value == "c"


def test_value_at_with_tombstone():
    chain = VersionChain("k")
    chain.install(Version(commit_ts=1, value="a", txn_id=1))
    chain.install(Version(commit_ts=2, value=None, txn_id=2, deleted=True))
    chain.install(Version(commit_ts=3, value="b", txn_id=3))
    assert chain.value_at(1) == (True, "a")
    assert chain.value_at(2) == (False, None)
    assert chain.value_at(3) == (True, "b")
    assert chain.value_at(0) == (False, None)


def test_truncate_after():
    chain = _chain((1, "a"), (2, "b"), (3, "c"))
    removed = chain.truncate_after(1)
    assert removed == 2
    assert chain.latest_commit_ts == 1
    assert chain.value_at(3) == (True, "a")


def test_truncate_after_noop():
    chain = _chain((1, "a"))
    assert chain.truncate_after(5) == 0
    assert len(chain) == 1


def test_copy_is_independent():
    chain = _chain((1, "a"))
    clone = chain.copy()
    chain.install(Version(commit_ts=2, value="b", txn_id=2))
    assert len(clone) == 1
    assert len(chain) == 2


def test_iteration_in_commit_order():
    chain = _chain((1, "a"), (4, "b"), (9, "c"))
    assert [v.commit_ts for v in chain] == [1, 4, 9]


def test_version_is_slot_backed_value_object():
    """Versions are not frozen (construction is plain attribute stores);
    they are immutable by contract, so what is guarded is the shape:
    no ``__dict__``, no stray attributes, equality and repr by field."""
    version = Version(commit_ts=3, value="v", txn_id=7)
    assert not hasattr(version, "__dict__")
    with pytest.raises(AttributeError):
        version.scratch = 1
    assert version == Version(3, "v", 7, False)
    assert version != Version(3, "v", 7, True)
    assert repr(version) == \
        "Version(commit_ts=3, value='v', txn_id=7, deleted=False)"


def test_reads_leave_installed_versions_untouched():
    chain = _chain((1, "a"), (4, "b"), (9, "c"))
    before = [repr(v) for v in chain]
    for ts in range(12):
        chain.visible_at(ts)
        chain.value_at(ts)
    chain.copy().truncate_after(1)
    assert [repr(v) for v in chain] == before


# ---------------------------------------------------------------------------
# The memoised newest row
# ---------------------------------------------------------------------------

def test_newest_row_is_memoised_and_reset_by_install():
    chain = _chain((1, "a"))
    assert chain._row is None               # nothing computed yet
    row = chain.newest_row()
    assert row == ("k", "a")
    assert chain.newest_row() is row        # same object until a write
    chain.install(Version(commit_ts=2, value="b", txn_id=2))
    assert chain._row is None
    assert chain.newest_row() == ("k", "b")


def test_newest_row_of_a_tombstone_is_falsy_but_computed():
    chain = _chain((1, "a"))
    chain.install(Version(commit_ts=2, value=None, txn_id=2, deleted=True))
    row = chain.newest_row()
    assert not row and row is not None
    assert chain._row is row
    assert not VersionChain("empty").newest_row()


def test_newest_row_is_reset_by_truncate_after():
    chain = _chain((1, "a"), (2, "b"))
    assert chain.newest_row() == ("k", "b")
    chain.truncate_after(1)
    assert chain._row is None
    assert chain.newest_row() == ("k", "a")


def test_newest_row_survives_prune_before():
    chain = _chain((1, "a"), (2, "b"), (3, "c"))
    row = chain.newest_row()
    assert chain.prune_before(3) == 2       # the newest version stays
    assert chain._row is row
    assert chain.newest_row() == ("k", chain.latest.value)


def test_copy_carries_the_row_and_resets_its_own():
    chain = _chain((1, "a"))
    row = chain.newest_row()
    clone = chain.copy()
    assert clone._row is row
    clone.install(Version(commit_ts=2, value="b", txn_id=2))
    assert clone._row is None and chain._row is row
    assert VersionChain("fresh").copy()._row is None


def test_newest_rows_fills_the_gaps_and_drops_tombstones():
    chains = []
    for key in ("a", "b", "c", "d"):
        chain = VersionChain(key)
        chain.install(Version(commit_ts=1, value=key.upper(), txn_id=1))
        chains.append(chain)
    chains[1].install(Version(commit_ts=2, value=None, txn_id=2,
                              deleted=True))
    chains[0].newest_row()                  # one memoised, three not
    assert newest_rows(chains) == [("a", "A"), ("c", "C"), ("d", "D")]
    assert all(chain._row is not None for chain in chains)
    assert newest_rows(chains) == [("a", "A"), ("c", "C"), ("d", "D")]
    assert newest_rows([]) == []
