"""Tests for the functional bookstore workload."""

import pytest

from repro.core.guarantees import Guarantee
from repro.core.system import ReplicatedSystem
from repro.errors import ConfigurationError
from repro.workload.generator import BookstoreWorkload, run_bookstore_workload
from repro.workload.tpcw import BROWSING_MIX


def make_system(**kwargs):
    defaults = dict(num_secondaries=2, propagation_delay=1.0)
    defaults.update(kwargs)
    return ReplicatedSystem(**defaults)


def test_populate_loads_catalogue_everywhere():
    system = make_system()
    shop = BookstoreWorkload(n_books=5, initial_stock=10)
    shop.populate(system)
    assert system.primary_state()["book:0:stock"] == 10
    assert system.secondary_state(0)["book:4:price"] == \
        system.primary_state()["book:4:price"]


def test_purchase_decrements_stock_and_records_order():
    system = make_system()
    shop = BookstoreWorkload(n_books=2, initial_stock=10)
    shop.populate(system)
    with system.session() as s:
        n, bought = s.execute_update(shop.purchase("alice", 1, 3))
    assert (n, bought) == (1, 3)
    assert system.primary_state()["book:1:stock"] == 7
    assert system.primary_state()["order:alice:1"]["qty"] == 3


def test_purchase_caps_at_available_stock():
    system = make_system()
    shop = BookstoreWorkload(n_books=1, initial_stock=2)
    shop.populate(system)
    with system.session() as s:
        _, bought = s.execute_update(shop.purchase("bob", 0, 5))
    assert bought == 2
    assert system.primary_state()["book:0:stock"] == 0


def test_check_status_sees_own_purchase_under_session_si():
    system = make_system(propagation_delay=4.0)
    shop = BookstoreWorkload(n_books=1)
    shop.populate(system)
    with system.session(Guarantee.STRONG_SESSION_SI) as s:
        s.execute_update(shop.purchase("carol", 0, 1))
        n, last = s.execute_read_only(shop.check_status("carol"))
    assert n == 1
    assert last["status"] == "placed"


def test_check_status_stale_under_weak_si():
    system = make_system(propagation_delay=4.0)
    shop = BookstoreWorkload(n_books=1)
    shop.populate(system)
    with system.session(Guarantee.WEAK_SI) as s:
        s.execute_update(shop.purchase("dave", 0, 1))
        n, last = s.execute_read_only(shop.check_status("dave"))
    assert n == 0 and last is None


def test_restock_increases_stock():
    system = make_system()
    shop = BookstoreWorkload(n_books=1, initial_stock=5)
    shop.populate(system)
    with system.session() as s:
        s.execute_update(shop.restock(0, amount=20))
    assert system.primary_state()["book:0:stock"] == 25


def test_browse_returns_range():
    system = make_system()
    shop = BookstoreWorkload(n_books=10)
    shop.populate(system)
    with system.session() as s:
        rows = s.execute_read_only(shop.browse(3, width=2))
    keys = [k for k, _ in rows]
    assert all(k.startswith(("book:3", "book:4", "book:5")) for k in keys)
    assert keys == sorted(keys)


def test_run_workload_counts_add_up():
    system = make_system()
    report = run_bookstore_workload(system, sessions=4, txns_per_session=10)
    assert report.transactions == 40
    assert report.updates + report.reads == 40
    assert report.purchases + report.restocks == report.updates
    assert report.status_checks + report.browses == report.reads


def test_run_workload_no_stale_checks_under_session_si():
    system = make_system(propagation_delay=3.0)
    report = run_bookstore_workload(
        system, guarantee=Guarantee.STRONG_SESSION_SI, sessions=4,
        txns_per_session=10)
    assert report.stale_status_checks == 0


def test_run_workload_reproducible():
    reports = []
    for _ in range(2):
        system = make_system()
        reports.append(run_bookstore_workload(system, sessions=3,
                                              txns_per_session=8, seed=3))
    assert reports[0].purchases == reports[1].purchases
    assert reports[0].stale_status_checks == reports[1].stale_status_checks


def test_run_workload_browsing_mix_mostly_reads():
    system = make_system()
    report = run_bookstore_workload(system, sessions=5, txns_per_session=20,
                                    mix=BROWSING_MIX)
    assert report.reads > report.updates * 4


def test_oversell_reported_when_stock_exhausted():
    system = make_system()
    shop = BookstoreWorkload(n_books=1, initial_stock=1)
    report = run_bookstore_workload(system, sessions=3, txns_per_session=12,
                                    workload=shop, seed=5)
    # With one book and one copy, purchases beyond the first must cap.
    assert report.purchases >= 2
    assert report.oversells >= 1


@pytest.mark.parametrize("txns", [0, -1])
def test_run_workload_rejects_fewer_than_one_txn_per_session(txns):
    """Zero used to never return: every pick drove the session's
    remaining count below zero, so no session ever left the active set."""
    with pytest.raises(ConfigurationError, match="txns_per_session"):
        run_bookstore_workload(make_system(), sessions=2,
                               txns_per_session=txns)


def test_report_summary_string():
    system = make_system()
    report = run_bookstore_workload(system, sessions=2, txns_per_session=5)
    text = report.summary()
    assert "txns" in text and "stale" in text
