"""Platform-level ADL objects: cores, tiles and the whole platform.

A :class:`Platform` bundles the processors, the memory hierarchy and the
interconnect, and can audit itself against the predictable-architecture
guidelines of paper Section III-B (:meth:`Platform.check_predictability`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.adl.interconnect import Interconnect
from repro.adl.memory import MemoryKind, MemoryRegion
from repro.adl.noc import MeshNoC
from repro.adl.processor import ProcessorModel


@dataclass
class Core:
    """One processing core with its private scratchpad."""

    core_id: int
    processor: ProcessorModel
    scratchpad: MemoryRegion
    #: Tile index for NoC-based platforms (several cores may share a tile).
    tile: int = 0
    name: str = ""

    def __post_init__(self) -> None:
        if not self.name:
            self.name = f"core{self.core_id}"
        if not self.scratchpad.private:
            raise ValueError(
                f"core {self.core_id}: scratchpad region must be private"
            )

    @property
    def scratchpad_bytes(self) -> int:
        return self.scratchpad.size_bytes


@dataclass
class PredictabilityReport:
    """Result of auditing a platform against the Section III-B guidelines."""

    passed: bool
    violations: list[str] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)

    def __bool__(self) -> bool:  # pragma: no cover - convenience
        return self.passed


@dataclass
class Platform:
    """A complete multi-/many-core platform description.

    Parameters
    ----------
    name:
        Platform identifier used in reports.
    cores:
        The processing cores.
    shared_memory:
        The shared memory region all cores can reach through ``interconnect``.
    interconnect:
        Interconnect between cores and shared memory (bus, crossbar or NoC).
    noc:
        Optional distinct NoC used for core-to-core communication; when absent
        inter-core messages also go through ``interconnect``.
    """

    name: str
    cores: list[Core]
    shared_memory: MemoryRegion
    interconnect: Interconnect
    noc: MeshNoC | None = None
    description: str = ""

    def __post_init__(self) -> None:
        if not self.cores:
            raise ValueError("a platform needs at least one core")
        ids = [c.core_id for c in self.cores]
        if len(set(ids)) != len(ids):
            raise ValueError("core ids must be unique")
        if self.shared_memory.private:
            raise ValueError("the shared memory region cannot be private")

    # ------------------------------------------------------------------ #
    @property
    def num_cores(self) -> int:
        return len(self.cores)

    def core(self, core_id: int) -> Core:
        for core in self.cores:
            if core.core_id == core_id:
                return core
        raise KeyError(f"no core with id {core_id} on platform {self.name!r}")

    def communication_fabric(self) -> Interconnect:
        """The fabric used for core-to-core data transfers."""
        return self.noc if self.noc is not None else self.interconnect

    def is_homogeneous(self) -> bool:
        names = {c.processor.name for c in self.cores}
        return len(names) == 1

    def min_scratchpad_bytes(self) -> int:
        return min(c.scratchpad_bytes for c in self.cores)

    # ------------------------------------------------------------------ #
    # worst-case delay helpers used by the WCET analyses and the simulator
    # ------------------------------------------------------------------ #
    def shared_read_latency(self, contenders: int) -> float:
        """Worst-case latency of one shared-memory read with ``contenders``."""
        return (
            self.shared_memory.read_latency
            + self.interconnect.worst_case_access_delay(contenders)
        )

    def shared_write_latency(self, contenders: int) -> float:
        return (
            self.shared_memory.write_latency
            + self.interconnect.worst_case_access_delay(contenders)
        )

    def shared_access_penalty(self, contenders: int) -> float:
        """Extra cycles per shared access caused by ``contenders`` competitors.

        The interconnect's worst-case delay of gaining access with that many
        contending cores, above its uncontended delay: the price the
        system-level analysis multiplies by each task's worst-case shared
        access count.  It reads the interconnect only, so it is the same
        for every core.
        """
        if contenders <= 0:
            return 0.0
        base = self.interconnect.worst_case_access_delay(0)
        contended = self.interconnect.worst_case_access_delay(contenders)
        return max(0.0, contended - base)

    def communication_latency(
        self, num_bytes: int, src_core: int, dst_core: int, contenders: int = 0
    ) -> float:
        """Worst-case latency to move ``num_bytes`` between two cores."""
        if src_core == dst_core:
            return 0.0
        fabric = self.communication_fabric()
        if isinstance(fabric, MeshNoC):
            src_tile = self.core(src_core).tile
            dst_tile = self.core(dst_core).tile
            if src_tile == dst_tile:
                # Same tile: transfer through the tile-local memory.
                return fabric.flits_for(num_bytes) * fabric.flit_cycles
            return fabric.worst_case_packet_latency(num_bytes, src_tile, dst_tile, contenders)
        return fabric.worst_case_transfer_delay(num_bytes, contenders)

    # ------------------------------------------------------------------ #
    def check_predictability(self) -> PredictabilityReport:
        """Audit the platform against the Section III-B design guidelines.

        Checks performed:

        1. every processor is time-predictable (no dynamic branch prediction,
           prefetching, write buffers or cache coherence);
        2. every processor is fully timing compositional;
        3. cores use scratchpads (not caches) as local memory;
        4. the shared memory is predictable (no unlocked cache in front);
        5. the interconnect provides worst-case access and transfer delays.
        """
        violations: list[str] = []
        warnings: list[str] = []
        for core in self.cores:
            if not core.processor.is_predictable:
                violations.append(
                    f"{core.name}: processor {core.processor.name!r} enables "
                    "hard-to-predict speculative features"
                )
            if not core.processor.timing_compositional:
                violations.append(
                    f"{core.name}: processor {core.processor.name!r} is not "
                    "fully timing compositional"
                )
            if core.scratchpad.kind is not MemoryKind.SCRATCHPAD:
                violations.append(
                    f"{core.name}: local memory is {core.scratchpad.kind.value}, "
                    "expected a scratchpad"
                )
        if not self.shared_memory.is_predictable:
            violations.append(
                f"shared memory {self.shared_memory.name!r} has an unlocked "
                "cache in front of it"
            )
        if not self.interconnect.is_predictable():
            violations.append(
                f"interconnect {self.interconnect.name!r} provides no "
                "worst-case delay bounds"
            )
        if self.num_cores > 16 and self.noc is None:
            warnings.append(
                "more than 16 cores on a single bus: WCET estimates will be "
                "very pessimistic; consider a NoC-based platform"
            )
        return PredictabilityReport(passed=not violations, violations=violations, warnings=warnings)
