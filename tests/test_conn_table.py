"""Tests for CoreEngine's connection table (Fig. 6 semantics)."""

import pytest

from repro.core.conn_table import ConnectionTable, ConnectionTableError


class TestConnectionTable:
    def test_insert_then_complete_flow(self):
        table = ConnectionTable()
        vm_tuple = (1, 0, 42)
        entry = table.insert(vm_tuple, nsm_id=7, nsm_queue_set=2)
        assert not entry.complete
        assert table.lookup_vm(vm_tuple) is entry
        assert table.lookup_nsm((7, 2, 55)) is None

        table.complete(vm_tuple, nsm_socket_id=55)
        assert entry.complete
        assert entry.nsm_tuple == (7, 2, 55)
        assert table.lookup_nsm((7, 2, 55)) is entry

    def test_duplicate_vm_tuple_rejected(self):
        table = ConnectionTable()
        table.insert((1, 0, 1), 1, 0)
        with pytest.raises(ConnectionTableError):
            table.insert((1, 0, 1), 1, 0)

    def test_complete_unknown_tuple_rejected(self):
        table = ConnectionTable()
        with pytest.raises(ConnectionTableError):
            table.complete((9, 9, 9), 1)

    def test_complete_twice_same_id_is_idempotent(self):
        table = ConnectionTable()
        table.insert((1, 0, 1), 1, 0)
        table.complete((1, 0, 1), 10)
        table.complete((1, 0, 1), 10)  # no error

    def test_complete_conflicting_id_rejected(self):
        table = ConnectionTable()
        table.insert((1, 0, 1), 1, 0)
        table.complete((1, 0, 1), 10)
        with pytest.raises(ConnectionTableError):
            table.complete((1, 0, 1), 11)

    def test_remove_cleans_both_directions(self):
        table = ConnectionTable()
        table.insert((1, 0, 1), 1, 0)
        table.complete((1, 0, 1), 10)
        table.remove_vm((1, 0, 1))
        assert table.lookup_vm((1, 0, 1)) is None
        assert table.lookup_nsm((1, 0, 10)) is None
        assert len(table) == 0

    def test_remove_unknown_is_noop(self):
        table = ConnectionTable()
        table.remove_vm((5, 5, 5))  # silently ignored

    def test_one_nsm_serves_many_vms(self):
        """The multiplexing property: same NSM, distinct tuples."""
        table = ConnectionTable()
        for vm in range(1, 6):
            table.insert((vm, 0, 1), nsm_id=1, nsm_queue_set=0)
            table.complete((vm, 0, 1), nsm_socket_id=100 + vm)
        assert len(table) == 5
        for vm in range(1, 6):
            assert table.lookup_nsm((1, 0, 100 + vm)).vm_tuple == (vm, 0, 1)

    def test_entries_for_vm(self):
        table = ConnectionTable()
        table.insert((1, 0, 1), 1, 0)
        table.insert((1, 0, 2), 1, 0)
        table.insert((2, 0, 1), 1, 0)
        assert len(table.entries_for_vm(1)) == 2
        assert len(table.entries_for_vm(2)) == 1

    def test_counters(self):
        table = ConnectionTable()
        table.insert((1, 0, 1), 1, 0)
        table.remove_vm((1, 0, 1))
        assert table.inserted == 1
        assert table.removed == 1

    def test_nsm_loads(self):
        table = ConnectionTable()
        assert table.nsm_loads() == {}
        table.insert((1, 0, 1), nsm_id=7, nsm_queue_set=0)
        table.insert((1, 0, 2), nsm_id=7, nsm_queue_set=0)
        table.insert((2, 0, 1), nsm_id=8, nsm_queue_set=0)
        assert table.nsm_loads() == {7: 2, 8: 1}
        table.remove_vm((1, 0, 1))
        assert table.nsm_loads() == {7: 1, 8: 1}


class TestNsmTupleCollisions:
    """Regressions for the silent-aliasing bug: complete()/rebind_vm()
    used to overwrite _by_nsm[nsm_tuple] last-writer-wins, so two live
    connections could claim one NSM socket and reverse lookups would
    route one VM's traffic to the other."""

    def test_complete_collision_rejected_and_rolled_back(self):
        table = ConnectionTable()
        table.insert((1, 0, 1), nsm_id=7, nsm_queue_set=0)
        table.complete((1, 0, 1), nsm_socket_id=50)
        victim = table.insert((2, 0, 1), nsm_id=7, nsm_queue_set=0)
        with pytest.raises(ConnectionTableError):
            table.complete((2, 0, 1), nsm_socket_id=50)
        # The original binding survives; the colliding entry stays
        # pending rather than half-bound.
        assert table.lookup_nsm((7, 0, 50)).vm_tuple == (1, 0, 1)
        assert not victim.complete

    def test_same_socket_id_on_distinct_nsms_is_fine(self):
        table = ConnectionTable()
        table.insert((1, 0, 1), nsm_id=7, nsm_queue_set=0)
        table.complete((1, 0, 1), nsm_socket_id=50)
        table.insert((2, 0, 1), nsm_id=8, nsm_queue_set=0)
        table.complete((2, 0, 1), nsm_socket_id=50)
        assert table.lookup_nsm((7, 0, 50)).vm_tuple == (1, 0, 1)
        assert table.lookup_nsm((8, 0, 50)).vm_tuple == (2, 0, 1)

    def test_rebind_collision_rejected(self):
        table = ConnectionTable()
        table.insert((1, 0, 1), nsm_id=7, nsm_queue_set=0)
        table.complete((1, 0, 1), nsm_socket_id=50)
        table.insert((2, 0, 1), nsm_id=8, nsm_queue_set=0)
        table.complete((2, 0, 1), nsm_socket_id=50)
        # Migrating VM 2 onto NSM 7 would land its socket 50 on top of
        # VM 1's established (7, 0, 50) binding.
        with pytest.raises(ConnectionTableError):
            table.rebind_vm(2, 7, lambda vm_tuple: 0)
        assert table.lookup_nsm((7, 0, 50)).vm_tuple == (1, 0, 1)


class _NoScan(dict):
    """A dict that refuses to be iterated: installed over the main maps
    to prove owner-scoped queries are served from the per-owner indexes,
    never by scanning the whole table."""

    def _scan(self, *_):
        raise AssertionError("full-table scan")

    __iter__ = items = values = keys = _scan


class TestNoFullScans:
    def test_owner_queries_never_scan_the_main_maps(self):
        table = ConnectionTable()
        for vm in range(1, 5):
            table.insert((vm, 0, 1), nsm_id=1 + vm % 2, nsm_queue_set=0)
            table.complete((vm, 0, 1), nsm_socket_id=10 + vm)
        table._by_vm = _NoScan(table._by_vm)
        table._by_nsm = _NoScan(table._by_nsm)
        assert [e.vm_tuple for e in table.entries_for_vm(1)] == [(1, 0, 1)]
        assert len(table.entries_for_nsm(1)) == 2
        assert table.vms_for_nsm(2) == [1, 3]
        assert table.nsm_loads() == {1: 2, 2: 2}
        assert table.rebind_vm(1, 1, lambda vm_tuple: 0) == 1
        assert table.nsm_loads() == {1: 3, 2: 1}
        table.remove_vm((2, 0, 1))
        assert table.nsm_loads() == {1: 2, 2: 1}


class TestLoadBalancedAssignment:
    def test_assign_vm_auto_uses_live_connection_counts(self):
        """assign_vm_auto balances on the public nsm_loads() signal."""
        from repro.core.coreengine import CoreEngine
        from repro.cpu.core import Core
        from repro.sim import Simulator

        sim = Simulator()
        engine = CoreEngine(sim, [Core(sim)])
        nsm_a, _ = engine.register_nsm("a", queue_sets=1)
        nsm_b, _ = engine.register_nsm("b", queue_sets=1)
        nsm_c, _ = engine.register_nsm("c", queue_sets=1)
        # a: 2 connections, b: 1, c: 0 -> c wins, then b.
        engine.table.insert((90, 0, 1), nsm_a, 0)
        engine.table.insert((90, 0, 2), nsm_a, 0)
        engine.table.insert((91, 0, 1), nsm_b, 0)
        vm1, _ = engine.register_vm("vm1", queue_sets=1)
        vm2, _ = engine.register_vm("vm2", queue_sets=1)
        assert engine.assign_vm_auto(vm1) == nsm_c
        # Assignment alone adds no table entries, so c still has zero
        # live connections and wins again (ties break by id order).
        assert engine.assign_vm_auto(vm2) == nsm_c
