"""Mesh network-on-chip with weighted-round-robin QoS routers (iNoC-like).

The KIT target platform uses the invasive NoC (iNoC) with a scalable router
providing QoS through weighted round robin scheduling (Heisswolf et al.,
reference [12] of the paper); it offers the bandwidth and latency guarantees
the system-level WCET analysis needs.  This module reproduces that behaviour
analytically:

* 2-D mesh topology with deterministic XY routing;
* per-link weighted-round-robin arbitration -- a flow with weight ``w`` out of
  a total active weight ``W`` on a link is guaranteed at least ``w / W`` of
  the link bandwidth and a worst-case per-flit waiting time of
  ``(W - w)`` flit slots;
* worst-case end-to-end latency = per-hop router latency plus the per-hop WRR
  waiting time, accumulated over the XY route, plus serialization of the
  packet's flits at the injection rate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.adl.interconnect import Interconnect


@dataclass(frozen=True)
class NocLink:
    """A directed link between two adjacent routers (or router and local port)."""

    src: tuple[int, int]
    dst: tuple[int, int]

    def __str__(self) -> str:
        return f"{self.src}->{self.dst}"


def xy_route(src: tuple[int, int], dst: tuple[int, int]) -> list[NocLink]:
    """Deterministic XY (dimension-ordered) route from ``src`` to ``dst``.

    X is routed first, then Y; the route is returned as the list of directed
    links traversed.  Deterministic routing is essential for computing
    worst-case contention: the set of flows crossing each link is known
    statically.
    """
    links: list[NocLink] = []
    x, y = src
    dx, dy = dst
    while x != dx:
        nxt = x + (1 if dx > x else -1)
        links.append(NocLink((x, y), (nxt, y)))
        x = nxt
    while y != dy:
        nxt = y + (1 if dy > y else -1)
        links.append(NocLink((x, y), (x, nxt)))
        y = nxt
    return links


@dataclass
class MeshNoC(Interconnect):
    """A ``width`` x ``height`` mesh NoC with WRR-arbitrated links."""

    width: int = 2
    height: int = 2
    router_latency: int = 3          # cycles per hop through a router
    link_latency: int = 1            # cycles per hop on the wire
    flit_bytes: int = 8              # payload bytes per flit
    flit_cycles: int = 1             # cycles to forward one flit once granted
    #: Default WRR weight for best-effort flows; guaranteed-service flows can
    #: be given larger weights via ``flow_weights``.
    default_weight: int = 1
    flow_weights: dict[str, int] = field(default_factory=dict)
    name: str = "mesh_noc"
    bytes_per_beat: int = 8

    def __post_init__(self) -> None:
        if self.width <= 0 or self.height <= 0:
            raise ValueError("mesh dimensions must be positive")
        self.bytes_per_beat = self.flit_bytes

    # ------------------------------------------------------------------ #
    # topology helpers
    # ------------------------------------------------------------------ #
    @property
    def num_tiles(self) -> int:
        return self.width * self.height

    def tile_coords(self, tile_index: int) -> tuple[int, int]:
        """Map a linear tile index to (x, y) mesh coordinates."""
        if not 0 <= tile_index < self.num_tiles:
            raise ValueError(f"tile index {tile_index} out of range")
        return (tile_index % self.width, tile_index // self.width)

    def hop_count(self, src_tile: int, dst_tile: int) -> int:
        sx, sy = self.tile_coords(src_tile)
        dx, dy = self.tile_coords(dst_tile)
        return abs(sx - dx) + abs(sy - dy)

    def route(self, src_tile: int, dst_tile: int) -> list[NocLink]:
        return xy_route(self.tile_coords(src_tile), self.tile_coords(dst_tile))

    # ------------------------------------------------------------------ #
    # worst-case latency model (WRR guarantees)
    # ------------------------------------------------------------------ #

    def flits_for(self, num_bytes: int) -> int:
        return max(1, math.ceil(num_bytes / self.flit_bytes))

    def per_hop_waiting(self, contenders: int, weight: int = 1, total_weight: int | None = None) -> float:
        """Worst-case WRR waiting time (cycles) at one router output port.

        With ``contenders`` other flows of total weight ``total_weight - weight``
        sharing the port, a flit of our flow waits at most one service slot per
        unit of competing weight before its turn comes around.
        """
        if contenders < 0:
            raise ValueError("contenders must be non-negative")
        if total_weight is None:
            total_weight = weight + contenders * self.default_weight
        competing = max(0, total_weight - weight)
        return competing * self.flit_cycles

    def worst_case_access_delay(self, contenders: int) -> float:
        """Interconnect-interface view: one-hop worst-case grant delay."""
        return self.router_latency + self.per_hop_waiting(contenders)

    def worst_case_packet_latency(
        self,
        num_bytes: int,
        src_tile: int,
        dst_tile: int,
        contenders: int,
        weight: int = 1,
    ) -> float:
        """Worst-case end-to-end latency of one packet between two tiles.

        The head flit pays router + link + WRR waiting per hop; the remaining
        flits stream behind it (wormhole switching) at one flit per
        ``flit_cycles`` times the worst-case WRR slowdown.
        """
        hops = max(1, self.hop_count(src_tile, dst_tile))
        flits = self.flits_for(num_bytes)
        per_hop = self.router_latency + self.link_latency + self.per_hop_waiting(contenders, weight)
        head_latency = hops * per_hop
        total_weight = weight + contenders * self.default_weight
        serialization = (flits - 1) * self.flit_cycles * max(1.0, total_weight / weight)
        return head_latency + serialization

    def worst_case_transfer_delay(self, num_bytes: int, contenders: int) -> float:
        """Conservative transfer bound when tile placement is unknown.

        Assumes the longest possible route in the mesh (the diameter).
        """
        diameter_src = 0
        diameter_dst = self.num_tiles - 1
        return self.worst_case_packet_latency(num_bytes, diameter_src, diameter_dst, contenders)

    def guaranteed_bandwidth(self, weight: int, total_weight: int) -> float:
        """Fraction of link bandwidth guaranteed to a flow by WRR arbitration."""
        if total_weight <= 0:
            raise ValueError("total weight must be positive")
        return min(1.0, weight / total_weight)

    def is_predictable(self) -> bool:
        return True
