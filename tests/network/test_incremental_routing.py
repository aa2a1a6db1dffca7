"""Incremental routing-state reconfiguration.

A gate-off or gate-on only changes the tables of routers next to a
changed link, so :meth:`GreediestRouting.rebuild` builds just those,
views survive wherever the usable window is unchanged, and a live
multi-node operation updates routing once.  Every test here ends by
comparing the whole routing state against a from-scratch build.
"""

from __future__ import annotations

import pytest

from repro.core.reconfig import ReconfigurationManager
from repro.core.routing import AdaptiveGreediestRouting, GreediestRouting
from repro.core.routing_table import RoutingTable
from repro.core.topology import StringFigureTopology
from repro.faults.detector import TableRepair
from repro.network.config import NetworkConfig
from repro.network.elastic import LiveReconfigurator
from repro.network.policies import GreedyPolicy
from repro.network.simulator import NetworkSimulator
from tests.core.routing_equivalence import assert_routing_fresh

CONFIG = NetworkConfig(emergency_stall_threshold=16)

#: RoutingTable.build calls the 8-node live gate-off plus gate-on below
#: cost when every power_gate/power_on rebuilt its whole radius-2
#: neighborhood.  Incremental reconfiguration must stay under a quarter
#: of that.
FULL_REBUILD_BUILDS = 2178


def live_stack(nodes=144, seed=3):
    topo = StringFigureTopology(nodes, 8, seed=seed)
    routing = AdaptiveGreediestRouting(topo)
    policy = GreedyPolicy(routing)
    sim = NetworkSimulator(topo, policy, CONFIG)
    manager = ReconfigurationManager(topo, routing)
    live = LiveReconfigurator(sim, manager, policy)
    return topo, routing, policy, sim, manager, live


def run_op(sim, live, op, nodes):
    op(nodes, at=sim.now + 1)
    sim.run(until=sim.now + 100_000)
    assert live.pending_operations == 0


@pytest.fixture
def count_builds(monkeypatch):
    calls = []
    original = RoutingTable.build.__func__

    def counting(cls, topology, owner):
        calls.append(owner)
        return original(cls, topology, owner)

    monkeypatch.setattr(RoutingTable, "build", classmethod(counting))
    return calls


class TestLiveEquivalence:
    def test_gate_cycle_with_link_failures_matches_fresh_build(self):
        topo, routing, policy, sim, manager, live = live_stack()
        repair = TableRepair(routing, policy)
        live.on_complete.append(lambda _event: repair.reapply())
        victims = live.select_victims(count=8)
        assert len(victims) == 8
        spared = [v for v in topo.active_nodes if v not in victims]
        # A failed wire near (not at) the victims, one far away.
        u = next(v for v in topo.neighbors(victims[0]) if v in spared)
        w = next(x for x in topo.neighbors(u) if x in spared)
        far = next(v for v in spared if all(v not in topo.neighbors(x) for x in victims))
        far_peer = next(x for x in topo.neighbors(far) if x in spared)
        repair.route_around_link(u, w)
        assert_routing_fresh(routing, repair.failed_links)

        run_op(sim, live, live.gate_off, victims)
        assert_routing_fresh(routing, repair.failed_links)

        repair.route_around_link(far, far_peer)
        repair.restore_link(u, w)
        assert_routing_fresh(routing, repair.failed_links)

        run_op(sim, live, live.gate_on, victims)
        assert sorted(topo.active_nodes) == list(range(144))
        assert_routing_fresh(routing, repair.failed_links)

        repair.restore_link(far, far_peer)
        assert_routing_fresh(routing)

    def test_hold_set_is_the_radius2_neighborhood(self):
        """Coalescing changes which tables are built, never the event
        records the revalidate hold window reads."""
        topo, routing, _policy, sim, manager, live = live_stack(nodes=64, seed=5)
        victims = live.select_victims(count=4)
        run_op(sim, live, live.gate_off, victims)
        run_op(sim, live, live.gate_on, victims)

        shadow_topo = StringFigureTopology(64, 8, seed=5)
        shadow = ReconfigurationManager(shadow_topo, GreediestRouting(shadow_topo))
        expected = [shadow.power_gate(v) for v in victims]
        expected += [shadow.power_on(v) for v in reversed(victims)]
        got = [e for event in live.events for e in event.offline_events]
        assert [(e.kind, e.node) for e in got] == [(e.kind, e.node) for e in expected]
        for mine, theirs in zip(got, expected):
            assert mine.tables_updated == theirs.tables_updated
            assert mine.blocked_routers == theirs.blocked_routers


class TestBuildCounts:
    def test_gate_cycle_builds_ratchet(self, count_builds):
        topo, routing, _policy, sim, _manager, live = live_stack()
        count_builds.clear()
        victims = live.select_victims(count=8)
        run_op(sim, live, live.gate_off, victims)
        run_op(sim, live, live.gate_on, victims)
        assert 0 < len(count_builds) <= FULL_REBUILD_BUILDS // 4
        assert_routing_fresh(routing)

    def test_unchanged_inputs_skip_the_build(self, count_builds):
        topo = StringFigureTopology(64, 4, seed=1)
        routing = GreediestRouting(topo)
        manager = ReconfigurationManager(topo, routing)
        victim = manager.gate_candidates(1)[0]
        manager.power_gate(victim)
        count_builds.clear()
        # Every partial rebuild after the first has recorded inputs:
        # with nothing changed, no table is built and no view replaced.
        routing.rebuild(topo.active_nodes)
        routing.rebuild(topo.active_nodes)
        first = len(count_builds)
        version, views = routing.version, dict(routing._views)
        for table in routing.tables.values():
            table.block_all()
        routing.rebuild(topo.active_nodes)
        assert len(count_builds) == first
        assert routing.version == version
        assert all(routing._views[v] is views[v] for v in views)
        assert_routing_fresh(routing)

    def test_repair_edit_forces_the_build(self, count_builds):
        topo = StringFigureTopology(64, 4, seed=1)
        routing = GreediestRouting(topo)
        nodes = topo.active_nodes
        routing.rebuild(nodes)
        router = nodes[0]
        entry = routing.tables[router].two_hop()[0]
        routing.tables[router].drop_via(entry.node, next(iter(entry.vias)))
        count_builds.clear()
        routing.rebuild(nodes)
        assert count_builds == [router]
        assert_routing_fresh(routing)


class TestViewReuse:
    def test_refresh_keeps_views_of_untouched_tables(self):
        topo = StringFigureTopology(64, 4, seed=2)
        routing = GreediestRouting(topo)
        before = dict(routing._views)
        version = routing.version
        routing.refresh_views()
        assert routing.version == version
        assert all(routing._views[v] is before[v] for v in before)

    def test_block_round_trip_restores_an_equal_view(self):
        topo = StringFigureTopology(64, 4, seed=2)
        routing = GreediestRouting(topo)
        router = topo.active_nodes[0]
        neighbor = topo.neighbors(router)[0]
        original = routing._views[router]
        routing.tables[router].block(neighbor)
        routing.refresh_views([router])
        assert routing._views[router] is not original
        assert neighbor not in routing.usable_neighbors(router)
        routing.tables[router].unblock(neighbor)
        routing.refresh_views([router])
        assert_routing_fresh(routing)
