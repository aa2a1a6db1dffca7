"""Shared check: live routing state equals a from-scratch build.

Incremental reconfiguration rebuilds only the tables whose inputs
changed and keeps every view whose usable window did not; the contract
is that the result is indistinguishable, entry by entry and array by
array, from building every table and view anew on the current topology
(with any live link failures re-imposed the same way).
"""

from __future__ import annotations

import numpy as np

from repro.core.routing import GreediestRouting, _NodeView
from repro.faults.detector import TableRepair
from repro.network.policies import GreedyPolicy

VIEW_ARRAYS = (
    "nbr_ids",
    "nbr_coords",
    "win_ids",
    "win_hop",
    "via_mask",
    "inf_mask",
    "all_coords",
)


def table_rows(table):
    return [
        (e.node, e.hop, e.coords, set(e.vias), e.valid, e.blocked)
        for e in table.entries()
    ]


def assert_views_equal(view: _NodeView, fresh: _NodeView, router: int) -> None:
    assert view.k == fresh.k, router
    for name in VIEW_ARRAYS:
        got, want = getattr(view, name), getattr(fresh, name)
        assert got.dtype == want.dtype and got.shape == want.shape, (router, name)
        assert np.array_equal(got, want), (router, name)
    assert len(view.via_idx) == len(fresh.via_idx), router
    for got, want in zip(view.via_idx, fresh.via_idx):
        assert got.dtype == want.dtype and np.array_equal(got, want), router
    assert view.id_to_nbr_index == fresh.id_to_nbr_index, router


def assert_routing_fresh(routing: GreediestRouting, failed_links=()) -> None:
    """Every active router's table and view match a fresh build.

    *failed_links* are re-imposed on the fresh build through the same
    :class:`TableRepair` pass the fault layer runs after a rebuild.
    """
    topo = routing.topology
    fresh = GreediestRouting(topo, use_two_hop=routing.use_two_hop)
    if failed_links:
        repair = TableRepair(fresh, GreedyPolicy(fresh))
        repair.failed_links = set(failed_links)
        repair.reapply()
    active = set(topo.active_nodes)
    assert set(routing.tables) == active
    for v in sorted(active):
        assert table_rows(routing.tables[v]) == table_rows(fresh.tables[v]), v
        assert_views_equal(routing._views[v], fresh._views[v], v)
        # The view must also be what the router's own table gives now.
        own = _NodeView(routing.tables[v], routing._coord_matrix[v])
        assert_views_equal(routing._views[v], own, v)
