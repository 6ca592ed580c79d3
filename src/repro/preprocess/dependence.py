"""Intra-trace dependence analysis.

Preprocessing operates on one trace at a time (the fill unit transforms
instructions "before they are fed into the normal processing phases").
This module builds the register dataflow graph of a trace plus the
ordering constraints that any rewrite must respect:

* RAW register dependences (true dataflow);
* memory order — loads may not move across stores, stores may not move
  across loads or stores (no disambiguation at fill time);
* control order — control-transfer instructions keep their relative
  order, and nothing may move past the trace-terminating transfer.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.isa import Instruction, Kind


@dataclass
class DependenceGraph:
    """Predecessor/successor sets over instruction indices of a trace."""

    instructions: tuple[Instruction, ...]
    preds: list[set[int]] = field(default_factory=list)
    succs: list[set[int]] = field(default_factory=list)

    @property
    def size(self) -> int:
        return len(self.instructions)

    def add_edge(self, src: int, dst: int) -> None:
        if src != dst:
            self.preds[dst].add(src)
            self.succs[src].add(dst)

    def critical_heights(self, latency_fn=None) -> list[int]:
        """Dependence height of each instruction: the longest latency
        chain from it to the end of the trace (higher = more urgent)."""
        if latency_fn is None:
            latency_fn = lambda inst: inst.latency
        heights = [0] * self.size
        for index in range(self.size - 1, -1, -1):
            below = [heights[s] for s in self.succs[index]]
            heights[index] = latency_fn(self.instructions[index]) + \
                (max(below) if below else 0)
        return heights

    def depth(self) -> int:
        """Critical-path latency of the whole trace."""
        heights = self.critical_heights()
        return max(heights) if heights else 0


def build_dependence_graph(instructions: tuple[Instruction, ...]
                           ) -> DependenceGraph:
    """Construct the constraint graph for one trace's instructions."""
    graph = DependenceGraph(instructions=tuple(instructions))
    n = len(graph.instructions)
    graph.preds = [set() for _ in range(n)]
    graph.succs = [set() for _ in range(n)]

    last_writer: dict[int, int] = {}
    last_store: int | None = None
    last_mem: int | None = None
    last_control: int | None = None

    for i, inst in enumerate(graph.instructions):
        # RAW register dependences.
        for reg in inst.sources:
            if reg in last_writer:
                graph.add_edge(last_writer[reg], i)
        # Memory ordering: conservative (no fill-time disambiguation).
        kind = inst.kind
        if kind is Kind.LOAD:
            if last_store is not None:
                graph.add_edge(last_store, i)
            last_mem = i
        elif kind is Kind.STORE:
            if last_mem is not None:
                graph.add_edge(last_mem, i)
            last_store = i
            last_mem = i
        # Control transfers stay ordered among themselves.
        if inst.is_control:
            if last_control is not None:
                graph.add_edge(last_control, i)
            last_control = i
        dest = inst.dest
        if dest is not None:
            last_writer[dest] = i

    # Nothing may move past a trace-terminating control transfer.
    if n and graph.instructions[-1].is_control:
        for i in range(n - 1):
            graph.add_edge(i, n - 1)
    return graph
