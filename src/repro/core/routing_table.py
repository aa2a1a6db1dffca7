"""Per-router routing tables (paper §IV-B, Figure 6b).

Each router keeps a small table describing only its one- and two-hop
neighborhood — this is what makes String Figure's routing state
*constant* in the network size, unlike k-shortest-path schemes whose
tables grow superlinearly.  A hardware entry stores:

* the neighbor's memory-node number (``log2 N`` bits),
* a 1-bit *blocking* flag (set during atomic reconfiguration),
* a 1-bit *valid* flag (cleared when the neighbor is gated off),
* a 1-bit hop count (0 = one-hop, 1 = two-hop),
* the virtual-space id (``ceil(log2 p/2)`` bits) and a 7-bit coordinate
  per space.

The table is bounded by ``p(p+1)`` entries for ``p``-port routers: at
most ``p`` one-hop neighbors, each contributing at most ``p`` of its own
one-hop neighbors.

This module models the table at entry granularity (a software entry
carries the full coordinate vector) and provides bit-accurate size
accounting so the storage-overhead claims can be checked in tests and
benches.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

__all__ = ["TableEntry", "RoutingTable", "entry_bits", "table_bits"]


@dataclass
class TableEntry:
    """One neighbor record in a router's table.

    ``vias`` lists the one-hop neighbors through which a two-hop entry
    is reachable (multiple vias = path diversity); for a one-hop entry
    it contains the neighbor itself.
    """

    node: int
    hop: int
    coords: tuple[float, ...]
    vias: set[int] = field(default_factory=set)
    valid: bool = True
    blocked: bool = False

    @property
    def usable(self) -> bool:
        """Entries take part in forwarding only when valid and unblocked."""
        return self.valid and not self.blocked


class RoutingTable:
    """The one- and two-hop neighbor table of a single router."""

    def __init__(self, owner: int, num_ports: int) -> None:
        self.owner = owner
        self.num_ports = num_ports
        self._entries: dict[int, TableEntry] = {}
        #: Bumped by every primitive that touches an entry, so a cached
        #: snapshot of the table (a routing view) can tell in O(1) that
        #: nothing changed since it was taken.
        self.generation = 0
        #: Set once a repair primitive (``invalidate``, ``validate``,
        #: ``set_hop``, ``drop_via``) edits an entry: the table is then
        #: no longer what :meth:`build` gives, even with blocks cleared.
        self.edited = False

    # -- construction --------------------------------------------------------

    @classmethod
    def build(cls, topology, owner: int) -> "RoutingTable":
        """Populate a table from a topology's current active neighborhood."""
        table = cls(owner, topology.num_ports)
        one_hop = [v for v in topology.neighbors(owner) if topology.is_active(v)]
        for w in one_hop:
            table._entries[w] = TableEntry(
                node=w, hop=1, coords=topology.coords.vector(w), vias={w}
            )
        for w in one_hop:
            for x in topology.neighbors(w):
                if x == owner or not topology.is_active(x):
                    continue
                existing = table._entries.get(x)
                if existing is None:
                    table._entries[x] = TableEntry(
                        node=x, hop=2, coords=topology.coords.vector(x), vias={w}
                    )
                elif existing.hop == 2:
                    existing.vias.add(w)
        return table

    # -- queries ---------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, node: int) -> bool:
        return node in self._entries

    def lookup(self, node: int) -> TableEntry | None:
        """Entry for *node*, or None."""
        return self._entries.get(node)

    def entries(self) -> list[TableEntry]:
        """All entries in deterministic (node-id) order."""
        return [self._entries[k] for k in sorted(self._entries)]

    def one_hop(self, usable_only: bool = True) -> list[TableEntry]:
        """One-hop entries (the forwarding candidates)."""
        return [
            e
            for e in self.entries()
            if e.hop == 1 and (e.usable or not usable_only)
        ]

    def two_hop(self, usable_only: bool = True) -> list[TableEntry]:
        """Two-hop entries (the look-ahead information)."""
        return [
            e
            for e in self.entries()
            if e.hop == 2 and (e.usable or not usable_only)
        ]

    @property
    def max_entries(self) -> int:
        """The paper's p(p+1) capacity bound."""
        return self.num_ports * (self.num_ports + 1)

    def check_capacity(self) -> None:
        """Assert the table fits the hardware bound."""
        assert len(self) <= self.max_entries, (
            f"router {self.owner}: {len(self)} entries exceed "
            f"p(p+1) = {self.max_entries}"
        )

    # -- reconfiguration primitives (paper §III-C) -----------------------------

    def _touch(self, node: int, edit: bool = False) -> TableEntry | None:
        entry = self._entries.get(node)
        if entry is not None:
            self.generation += 1
            self.edited |= edit
        return entry

    def block(self, node: int) -> None:
        """Set the blocking bit on the entry for *node* (step 1/4)."""
        entry = self._touch(node)
        if entry is not None:
            entry.blocked = True

    def unblock(self, node: int) -> None:
        """Clear the blocking bit on the entry for *node* (step 4/4)."""
        entry = self._touch(node)
        if entry is not None:
            entry.blocked = False

    def block_all(self) -> None:
        """Block every entry (coarse atomic-reconfiguration window)."""
        self.generation += 1
        for entry in self._entries.values():
            entry.blocked = True

    def unblock_all(self) -> None:
        """Unblock every entry."""
        self.generation += 1
        for entry in self._entries.values():
            entry.blocked = False

    def invalidate(self, node: int) -> None:
        """Clear the valid bit on the entry for *node* (step 3/4)."""
        entry = self._touch(node, edit=True)
        if entry is not None:
            entry.valid = False

    def validate(self, node: int) -> None:
        """Set the valid bit on the entry for *node* (step 3/4, reverse)."""
        entry = self._touch(node, edit=True)
        if entry is not None:
            entry.valid = True

    def set_hop(self, node: int, hop: int, vias: set[int] | None = None) -> None:
        """Flip an entry's hop bit (2-hop neighbor promoted to 1-hop etc.)."""
        entry = self._touch(node, edit=True)
        if entry is None:
            raise KeyError(f"router {self.owner} has no entry for node {node}")
        entry.hop = hop
        if vias is not None:
            entry.vias = set(vias)

    def drop_via(self, node: int, via: int) -> None:
        """Remove a via from a 2-hop entry; invalidate if none remain."""
        entry = self._touch(node, edit=True)
        if entry is None:
            return
        entry.vias.discard(via)
        if not entry.vias:
            entry.valid = False


def entry_bits(num_nodes: int, num_ports: int, coord_bits: int = 7) -> int:
    """Hardware bits of one table entry (paper §IV-B accounting).

    node id + blocking + valid + hop + (space id + coordinate) per the
    entry's space field.  The paper stores one space/coordinate pair per
    entry row; we follow that accounting.
    """
    node_bits = max(1, math.ceil(math.log2(num_nodes)))
    spaces = max(1, num_ports // 2)
    space_bits = max(1, math.ceil(math.log2(spaces)))
    return node_bits + 1 + 1 + 1 + space_bits + coord_bits


def table_bits(num_nodes: int, num_ports: int, coord_bits: int = 7) -> int:
    """Worst-case hardware bits of one router's full table.

    ``p(p+1)`` entries, each carrying one (space, coordinate) row per
    virtual space.
    """
    spaces = max(1, num_ports // 2)
    rows = num_ports * (num_ports + 1) * spaces
    return rows * entry_bits(num_nodes, num_ports, coord_bits)
