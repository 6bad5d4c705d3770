"""Memory regions of the ADL: scratchpads, shared on-chip SRAM, external DRAM.

Scratchpad memories are preferred over caches (paper Section III-B) because
they make every access latency statically known.  A cache-equipped region can
still be described (``MemoryKind.CACHED_DRAM``) but fails the predictability
check unless it is locked/partitioned.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass


class MemoryKind(enum.Enum):
    """Classes of memory regions with different predictability properties."""

    SCRATCHPAD = "scratchpad"       # core-private, single-cycle-ish, private
    SHARED_SRAM = "shared_sram"     # on-chip shared memory behind interconnect
    DRAM = "dram"                   # external memory behind interconnect
    CACHED_DRAM = "cached_dram"     # DRAM behind a cache (unpredictable)


@dataclass(frozen=True)
class MemoryRegion:
    """A memory region with worst-case access latencies.

    ``read_latency``/``write_latency`` are per-access worst-case latencies in
    cycles *excluding* interconnect contention, which the system-level WCET
    analysis adds separately for shared regions.
    """

    name: str
    kind: MemoryKind
    size_bytes: int
    read_latency: int
    write_latency: int
    #: True when only one core can ever access the region (no interference).
    private: bool = False
    #: For CACHED_DRAM: whether the cache is locked/partitioned per core,
    #: which restores predictability at the price of capacity.
    cache_locked: bool = False

    def __post_init__(self) -> None:
        if self.size_bytes <= 0:
            raise ValueError("memory size must be positive")
        if self.read_latency < 0 or self.write_latency < 0:
            raise ValueError("latencies must be non-negative")

    @property
    def is_shared(self) -> bool:
        return not self.private

    @property
    def is_predictable(self) -> bool:
        """True when every access has a statically bounded latency."""
        if self.kind is MemoryKind.CACHED_DRAM:
            return self.cache_locked
        return True


def scratchpad(name: str, size_kib: int = 64, latency: int = 1) -> MemoryRegion:
    """A core-private scratchpad region."""
    return MemoryRegion(
        name=name,
        kind=MemoryKind.SCRATCHPAD,
        size_bytes=size_kib * 1024,
        read_latency=latency,
        write_latency=latency,
        private=True,
    )


def shared_sram(name: str = "shared_sram", size_kib: int = 1024, latency: int = 8) -> MemoryRegion:
    """An on-chip shared SRAM region behind the interconnect."""
    return MemoryRegion(
        name=name,
        kind=MemoryKind.SHARED_SRAM,
        size_bytes=size_kib * 1024,
        read_latency=latency,
        write_latency=latency,
        private=False,
    )


def external_dram(name: str = "dram", size_mib: int = 256, latency: int = 40) -> MemoryRegion:
    """External DRAM; high worst-case latency but large capacity."""
    return MemoryRegion(
        name=name,
        kind=MemoryKind.DRAM,
        size_bytes=size_mib * 1024 * 1024,
        read_latency=latency,
        write_latency=latency + 5,
        private=False,
    )
