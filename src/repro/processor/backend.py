"""Backend timing model: distributed trace-processor execution engine.

Models the paper's §4.1 configuration:

* four processing elements, each holding one trace (16-instruction
  window each, 64 total);
* two-way issue per PE with *windowed dynamic scheduling*: each cycle a
  PE issues up to two ready instructions from among the oldest
  ``issue_lookahead`` unissued instructions of its trace.  A lookahead
  of 1 degenerates to strict in-order issue; 16 is full out-of-order
  within the trace.  The default (5) models a small select window —
  this is why the preprocessing scheduler earns its keep by moving
  ready work into view;
* full internal bypassing (dependent ops back-to-back within a PE);
* global result buses (8 total) for cross-PE register communication: a
  result produced in cycle N is broadcast in cycle N+1 and usable by
  other PEs in cycle N+2 — one extra cycle beyond completion, plus
  possible bus contention;
* in-order trace retirement (enforced by the timing driver).

Intra-trace ordering constraints (RAW dataflow, load/store order,
control order) come from :mod:`repro.preprocess.dependence` so the
backend and the preprocessing scheduler agree on what is legal.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from repro.caches.dcache import DataCache, DCacheConfig
from repro.isa import Instruction, Kind
from repro.preprocess.dependence import build_dependence_graph
from repro.processor.latencies import instruction_latency


@dataclass(frozen=True)
class BackendConfig:
    """Execution-engine geometry (paper §4.1 defaults)."""

    num_pes: int = 4
    issue_per_pe: int = 2
    issue_lookahead: int = 5
    result_buses: int = 8
    cross_pe_delay: int = 1    # extra cycles beyond completion
    redirect_penalty: int = 1  # fetch redirect after a resolved mispredict

    def __post_init__(self) -> None:
        if min(self.num_pes, self.issue_per_pe, self.result_buses,
               self.issue_lookahead) <= 0:
            raise ValueError("backend geometry must be positive")


class _RegValue:
    """Producer record for one architectural register."""

    __slots__ = ("ready", "pe", "broadcast")

    def __init__(self, ready: int, pe: int) -> None:
        self.ready = ready
        self.pe = pe
        self.broadcast: int | None = None  # bus slot, allocated lazily


@dataclass
class TraceTiming:
    """Timing outcome of executing one trace."""

    dispatch: int
    done: int              # all instructions complete
    last_control: int      # last control transfer resolved
    issue_stalls: int = 0  # instruction-cycles spent waiting to issue


class BackendModel:
    """Shared backend state across the whole run."""

    def __init__(self, config: BackendConfig | None = None,
                 dcache: DataCache | None = None) -> None:
        self.config = config or BackendConfig()
        self.dcache = dcache if dcache is not None else DataCache(
            DCacheConfig())
        self._regs: dict[int, _RegValue] = {}
        self._bus_load: Counter = Counter()
        self._graph_cache: dict = {}
        self.pe_free: list[int] = [0] * self.config.num_pes
        self.bus_conflicts = 0

    # ------------------------------------------------------------------
    def _operand_ready(self, reg: int, pe: int, dispatch: int) -> int:
        """Availability of a register produced *outside* this trace."""
        value = self._regs.get(reg)
        if value is None:
            return 0
        if value.pe == pe or value.ready <= dispatch:
            # Same PE (bypassed) or already architected when we started.
            return value.ready
        # Cross-PE: needs a global result bus.
        if value.broadcast is None:
            slot = value.ready
            while self._bus_load[slot] >= self.config.result_buses:
                slot += 1
                self.bus_conflicts += 1
            self._bus_load[slot] += 1
            value.broadcast = slot
        return value.broadcast + self.config.cross_pe_delay

    # ------------------------------------------------------------------
    def execute_trace(self, instructions: tuple[Instruction, ...],
                      dispatch: int, pe: int,
                      mem_addrs: tuple[int, ...] = ()) -> TraceTiming:
        """Timestamp one trace's execution on ``pe`` starting at
        ``dispatch``; updates shared register/bus state.

        ``mem_addrs`` holds the effective addresses of the trace's
        memory instructions in program order (preprocessing preserves
        relative memory order, so the mapping survives scheduling).
        Loads complete through the data-cache timing model; stores
        retire into the write buffer after their port access.
        """
        config = self.config
        n = len(instructions)
        graph = self._graph_cache.get(instructions)
        if graph is None:
            graph = build_dependence_graph(instructions)
            self._graph_cache[instructions] = graph

        # External operand availability per instruction: sources with no
        # in-trace producer read backend register state.
        produced_in_trace: dict[int, int] = {}
        external_ready = [dispatch] * n
        for i, inst in enumerate(instructions):
            for reg in inst.sources:
                if reg not in produced_in_trace:
                    ready = self._operand_ready(reg, pe, dispatch)
                    if ready > external_ready[i]:
                        external_ready[i] = ready
            dest = inst.dest
            if dest is not None:
                produced_in_trace.setdefault(dest, i)

        # Map each memory instruction (by its position among memory
        # instructions) to its effective address.
        mem_index = [0] * n
        k = 0
        for i, inst in enumerate(instructions):
            if inst.kind in (Kind.LOAD, Kind.STORE):
                mem_index[i] = k
                k += 1

        complete = [0] * n
        issued = [False] * n
        pending = list(range(n))
        cycle = dispatch
        stalls = 0
        guard = 0
        while pending:
            guard += 1
            if guard > 100_000:  # pragma: no cover - model bug backstop
                raise RuntimeError("backend issue loop failed to converge")
            slots = config.issue_per_pe
            window = pending[:config.issue_lookahead]
            for index in window:
                if slots == 0:
                    break
                if external_ready[index] > cycle:
                    continue
                deps = graph.preds[index]
                if any(not issued[d] or complete[d] > cycle for d in deps):
                    continue
                issued[index] = True
                inst = instructions[index]
                if inst.kind in (Kind.LOAD, Kind.STORE) and mem_addrs:
                    pos = mem_index[index]
                    addr = (mem_addrs[pos] if pos < len(mem_addrs) else 0)
                    latency = self.dcache.access(
                        addr, inst.kind is Kind.STORE, cycle, pe)
                    if inst.kind is Kind.STORE:
                        latency = 1  # retires into the write buffer
                    complete[index] = cycle + latency
                else:
                    complete[index] = cycle + instruction_latency(inst)
                slots -= 1
            newly = [i for i in pending if issued[i]]
            if newly:
                pending = [i for i in pending if not issued[i]]
            stalls += min(len(window), config.issue_per_pe) - (
                config.issue_per_pe - slots)
            cycle += 1

        done = dispatch
        last_control = dispatch
        for i, inst in enumerate(instructions):
            if complete[i] > done:
                done = complete[i]
            dest = inst.dest
            if dest is not None:
                self._regs[dest] = _RegValue(complete[i], pe)
            if ((inst.is_control or inst.is_conditional_branch)
                    and complete[i] > last_control):
                last_control = complete[i]
        return TraceTiming(dispatch=dispatch, done=done,
                           last_control=last_control, issue_stalls=stalls)
