"""Hardware cost model, and the one cost semantics every analysis reads.

This is the reproduction's stand-in for a binary-level analyzer's pipeline
and memory models (aiT in the real ARGO flow): every IR operation and every
array access gets a worst-case cycle cost derived from the platform
description.  Contention is *not* included here -- code-level WCET is defined
as the isolated WCET (paper Section II-D); the system-level analysis adds
interference separately, as each task's shared-access count times
:meth:`~repro.adl.architecture.Platform.shared_access_penalty`, a price of
the platform's interconnect that no core changes.

Cost semantics
--------------
What the machine charges per construct.  The structural analysis
(:func:`repro.wcet.code_level.statement_wcet`) applies these rules to the
worst case, IPET (:func:`repro.wcet.ipet.block_costs`) spreads them over the
CFG's blocks, and the simulator (:mod:`repro.sim.executor`) applies them to
the executed trace.  Every price is a member of :class:`HardwareCostModel`.
``[e]`` is what evaluating expression ``e`` costs: ``op_cycles`` of each of
its operations plus ``read_cycles`` of each of its array reads (index
expressions included), and one shared access per read of a shared array.

=========================  =======================================  ===========================
construct                  cycles                                   shared accesses
=========================  =======================================  ===========================
``a(i) = e``               ``[e] + [i] + write_cycles(a)``          ``[e] + [i]``, +1 if shared
``x = e`` (scalar ``x``)   ``[e] + scalar_assign_cycles``           ``[e]``
``return e``, ``e;``       ``[e]``                                  ``[e]``
``S1; S2``                 ``S1 + S2``                              ``S1 + S2``
``if c then A else B``     ``[c] + branch_cycles + max(A, B)``      ``[c] + max(A, B)``
``for i = lo:hi``, trip n  ``[lo] + [hi]``                          ``[lo] + [hi]``
                           ``+ n * (body + loop_overhead_cycles)``  ``+ n * body``
``while c``, bound n       ``(n + 1) * [c]``                        ``(n + 1) * [c]``
                           ``+ n * (body + loop_overhead_cycles)``  ``+ n * body``
=========================  =======================================  ===========================

An ``if`` is charged the cycles of its arm with more cycles, but the larger
of its arms' shared-access counts whatever their cycles: the interference
bound multiplies the count, so a cheaper arm with more shared accesses can
be the worse one.  ``n`` is the loop's trip bound in the analyses and its
executed iteration count in the simulator.  The average-case variant that
``acet_list`` schedules by follows the same rules with the ``average_*``
prices.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.adl.architecture import Platform
from repro.ir.program import Function, Storage


@dataclass
class HardwareCostModel:
    """Worst-case cost provider for one core of one platform.

    Parameters
    ----------
    platform:
        The target platform (ADL description).
    core_id:
        The core the analysed code runs on (cores may differ in processor
        model on heterogeneous platforms).

    An array's price follows its declared storage class; the
    scratchpad-allocation pass moves an array by rewriting its declaration
    (:class:`~repro.transforms.scratchpad.ScratchpadAllocationPass`).
    """

    platform: Platform
    core_id: int = 0

    def __post_init__(self) -> None:
        self._core = self.platform.core(self.core_id)

    # ------------------------------------------------------------------ #
    @property
    def processor(self):
        return self._core.processor

    def op_cycles(self, op: str) -> float:
        return float(self.processor.cycles_for_op(op))

    @property
    def branch_cycles(self) -> float:
        return float(self.processor.branch_cycles)

    @property
    def loop_overhead_cycles(self) -> float:
        return float(self.processor.loop_overhead_cycles)

    @property
    def scalar_assign_cycles(self) -> float:
        """One assignment to a scalar: a register write."""
        return 1.0

    # ------------------------------------------------------------------ #
    def storage_of(self, function: Function, name: str) -> Storage:
        decl = function.lookup(name)
        if decl is None:
            return Storage.LOCAL
        return decl.storage

    def is_shared(self, function: Function, name: str) -> bool:
        return self.storage_of(function, name) in (Storage.SHARED, Storage.INPUT, Storage.OUTPUT)

    def read_cycles(self, function: Function, name: str) -> float:
        """Worst-case cycles for one element read of array ``name``
        (uncontended: the system-level analysis adds interference)."""
        storage = self.storage_of(function, name)
        if storage is Storage.LOCAL:
            return 1.0
        if storage is Storage.SCRATCHPAD:
            return float(self._core.scratchpad.read_latency)
        return self.platform.shared_read_latency(0)

    def write_cycles(self, function: Function, name: str) -> float:
        """Worst-case cycles for one element write of array ``name``
        (uncontended, like :meth:`read_cycles`)."""
        storage = self.storage_of(function, name)
        if storage is Storage.LOCAL:
            return 1.0
        if storage is Storage.SCRATCHPAD:
            return float(self._core.scratchpad.write_latency)
        return self.platform.shared_write_latency(0)

    def average_read_cycles(self, function: Function, name: str) -> float:
        """Optimistic (average-case) read cost used by the baseline scheduler.

        Assumes no contention and charges half the worst-case shared latency,
        which is how an average-case-oriented flow would budget memory.
        """
        worst = self.read_cycles(function, name)
        if self.is_shared(function, name):
            return max(1.0, worst / 2.0)
        return worst

    def average_write_cycles(self, function: Function, name: str) -> float:
        """Optimistic write cost, budgeted like :meth:`average_read_cycles`."""
        worst = self.write_cycles(function, name)
        if self.is_shared(function, name):
            return max(1.0, worst / 2.0)
        return worst

    def average_op_cycles(self, op: str) -> float:
        return max(1.0, self.op_cycles(op) / 2.0)
