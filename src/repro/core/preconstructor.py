"""Trace constructors: walk static code and build candidate traces.

Implements the paper's §3.4 algorithm.  A constructor is assigned a
trace start point from a region's worklist and then:

* fetches and decodes static instructions (through the region's
  prefetch cache, falling back to the shared I-cache port);
* follows strongly-biased conditional branches only in their dominant
  direction, consulting the slow-path bimodal predictor's counters;
* at a weakly-biased branch, follows the not-taken path first and
  pushes the decision point onto a small internal stack; after a trace
  completes it pops the stack and re-walks the alternative direction;
* follows direct calls (remembering the return point on an internal
  call stack so the matching return is resolvable), and terminates the
  path at register-indirect transfers whose target is unknown;
* delimits traces with the *same* :class:`TraceBuilder` rules as the
  processor, so preconstructed traces align with demand traces.

The constructor is incremental: :meth:`step` performs one instruction's
worth of work and reports its port cost, so the engine can meter
progress against the processor's idle slow-path cycles.

Walk scripts.  A walk depends only on its start point, the image, the
configs and the bimodal bias answers read at conditional branches; the
prefetch cache, the I-cache port and the engine's scheduling decide
only *when* its steps run and whether it is cut short.  So every walk
is recorded, once, as a script in a dict shared by the engine's
constructors (keyed by start pc and call stack).  A script is a tree
of :class:`_ScriptNode` s split at each bias consult, children keyed by
the answer.  A constructor assigned a known start point replays the
script: per step it does the live prefetch-cache and I-cache work and
returns the recorded events; at a node's end it follows the child for
the live bias.  With no such child, or at the end of a recording cut
short, it rebuilds its live walk state from the node's start snapshot
and continues live, recording the new part.  Replay is exact: the
bimodal only trains between engine ticks, so a replayed consult reads
the answer the live walk would read.

A correctness invariant enforced here: the constructor never emits a
*partial* trace.  A trace identity is (start PC, branch outcomes), so a
trace cut short by a resource bound would collide with the properly
delimited trace the processor will later ask for; partial work is
always discarded instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.branch import Bias, BimodalPredictor
from repro.caches import InstructionCache
from repro.core.region import Region, StartPoint
from repro.isa import INSTRUCTION_BYTES, Instruction, Kind
from repro.program import ProgramImage
from repro.trace import SelectionConfig, Trace, TraceBuilder


@dataclass(frozen=True)
class ConstructorConfig:
    """Bounds and policies for one constructor's work per start point.

    ``branch_policy`` selects the path-pruning heuristic at conditional
    branches (an ablation axis for the paper's §2.1 heuristic):

    * ``"biased"`` (the paper): follow strongly-biased branches in their
      dominant direction only; fork both ways at weak branches;
    * ``"both"``: fork at every branch (no pruning);
    * ``"taken"`` / ``"not_taken"``: static single-direction policies.
    """

    max_decision_depth: int = 4
    max_traces_per_start: int = 8
    max_walk_instructions: int = 96
    max_call_depth: int = 8
    branch_policy: str = "biased"

    def __post_init__(self) -> None:
        if self.branch_policy not in ("biased", "both", "taken",
                                      "not_taken"):
            raise ValueError(f"unknown branch_policy "
                             f"{self.branch_policy!r}")


@dataclass(slots=True)
class StepResult:
    """Outcome of one constructor step (one decode slot)."""

    port_cost: int = 0
    completed: Optional[Trace] = None
    new_start_point: Optional[StartPoint] = None
    finished: bool = False            # start point fully explored
    region_fetch_bound: bool = False  # prefetch cache filled up
    notable: bool = False
    """True when any engine-visible event field above is set — the
    engine's one-load gate for dispatching to its slow handler."""


@dataclass(slots=True)
class _DecisionPoint:
    """Saved walk state at a weakly-biased branch (not-taken explored
    first; this snapshot resumes the taken direction)."""

    entries: list
    entry_stacks: list
    pc: int                # the branch pc itself
    taken_target: int
    call_stack: tuple[int, ...]
    walked: int


class _ScriptNode:
    """One stretch of a recorded walk that reads no bias after its
    first step.

    ``steps`` holds one ``(post_pc, fetches, events)`` record per step:
    the constructor's ``_pc`` after the step, whether the step reached
    the line-fetch check, and a never-mutated :class:`StepResult`
    carrying its completed trace / new start point / finished flag
    (:data:`_PLAIN` for a quiet step).  ``answer`` is the bias the
    first step read (``None`` for a script's root) and ``snapshot`` the
    walk state before that step.  When the walk went on to consult the bias at
    ``consult_pc``, the node ends there and ``children`` maps each
    answer seen to the node that continues the walk.
    """

    __slots__ = ("answer", "snapshot", "steps", "consult_pc", "children",
                 "ended", "recorder")

    def __init__(self, answer: Optional[Bias], snapshot: tuple,
                 recorder: Optional["TraceConstructor"]) -> None:
        self.answer = answer
        self.snapshot = snapshot
        self.steps: list[tuple[Optional[int], bool, StepResult]] = []
        self.consult_pc: Optional[int] = None
        self.children: dict[Bias, _ScriptNode] = {}
        #: The walk finished at the last recorded step.
        self.ended = False
        #: The constructor appending to ``steps``, while one is.
        self.recorder = recorder


class NoWalkScripts(dict):
    """A walk-script store that never serves a script: a constructor
    given it walks every start point live (and records nothing)."""

    def get(self, key, default=None):
        return default

    def __setitem__(self, key, value) -> None:
        pass


#: The all-quiet result of every plain step (no port use, nothing
#: completed) — the overwhelmingly common case, returned without
#: touching any field.  Never mutated.
_PLAIN = StepResult()

#: Sentinel distinguishing "never decoded" from a cached out-of-bounds
#: ``None`` in the shared decode cache.
_UNDECODED = object()


class TraceConstructor:
    """One of the (four) parallel trace construction units."""

    def __init__(self, image: ProgramImage, icache: InstructionCache,
                 bimodal: BimodalPredictor,
                 selection: SelectionConfig | None = None,
                 config: ConstructorConfig | None = None,
                 decode_cache: Optional[dict] = None,
                 scripts: Optional[dict] = None,
                 cid: int = 0) -> None:
        self.image = image
        self.icache = icache
        self.bimodal = bimodal
        self.selection = selection or SelectionConfig()
        self.config = config or ConstructorConfig()
        self.cid = cid
        self.region: Optional[Region] = None
        self._builder = TraceBuilder(self.selection)
        # PC -> decoded instruction (or None when out of bounds).  The
        # image never changes during a run, and the engine shares one
        # cache across its constructors so each static instruction is
        # index-translated once rather than once per walk step.
        self._decode: dict = decode_cache if decode_cache is not None else {}
        #: Walk scripts by (start pc, call stack); the engine shares one
        #: dict across its constructors, like the decode cache.
        self.scripts: dict = scripts if scripts is not None else {}
        #: Steps served from a script rather than walked.
        self.replayed_steps = 0
        #: Observability clock at the last assignment (construction
        #: latency of the traces this walk emits).
        self._obs_assigned = 0
        self._branch_policy = self.config.branch_policy
        # One StepResult reused across steps: the engine consumes each
        # result before the next step, and allocating ~1 per walked
        # instruction showed up in profiles.
        self._result = StepResult()
        # Call-stack state *after* each buffered entry, aligned with the
        # builder's buffer; needed to restart correctly after truncation.
        self._entry_stacks: list[tuple[int, ...]] = []
        self._pc: Optional[int] = None
        self._call_stack: tuple[int, ...] = ()
        self._decisions: list[_DecisionPoint] = []
        self._traces_emitted = 0
        self._walked = 0
        # Script position: the node being replayed and the index of its
        # next step, or the node live steps are appended to (at most
        # one of the two is set; neither on an unrecorded live walk).
        self._replay: Optional[_ScriptNode] = None
        self._index = 0
        self._record: Optional[_ScriptNode] = None

    # ------------------------------------------------------------------
    @property
    def busy(self) -> bool:
        return self.region is not None

    def assign(self, region: Region, start: StartPoint) -> None:
        """Begin exploring ``start`` on behalf of ``region``."""
        if self.busy:
            raise RuntimeError("constructor already assigned")
        self.region = region
        self._pc = start.pc
        self._call_stack = start.call_stack
        self._reset_buffer()
        self._decisions.clear()
        self._traces_emitted = 0
        self._walked = 0
        key = (start.pc, start.call_stack)
        root = self.scripts.get(key)
        if root is not None:
            self._replay = root
            self._index = 0
        else:
            root = _ScriptNode(None, self._snapshot(), self)
            self.scripts[key] = root
            self._record = root

    def release(self) -> None:
        if self._record is not None:
            self._record.recorder = None
            self._record = None
        self._replay = None
        self.region = None
        self._pc = None
        self._reset_buffer()
        self._decisions.clear()

    def _fresh_result(self) -> StepResult:
        """Reset and return the reused per-constructor StepResult."""
        result = self._result
        result.port_cost = 0
        result.completed = None
        result.new_start_point = None
        result.finished = False
        result.region_fetch_bound = False
        result.notable = False
        return result

    # ------------------------------------------------------------------
    def step(self, needs_fetch: Optional[bool] = None) -> StepResult:
        """Perform one instruction's worth of construction work.

        ``needs_fetch`` lets the engine pass the result of its own
        prefetch-cache probe of ``_pc`` so the cache is not probed
        twice per step; ``None`` probes here.
        """
        node = self._replay
        if node is None:
            return self._live_step(needs_fetch)
        index = self._index
        if index == len(node.steps):
            node = self._follow(node)
            if node is None:
                return self._live_step(needs_fetch)
            index = 0
        post_pc, fetches, events = node.steps[index]
        if fetches and (needs_fetch if needs_fetch is not None else
                        not self.region.prefetch_cache.contains(self._pc)):
            pc = self._pc
            if not self.region.prefetch_cache.add_line(pc):
                return self._fetch_bound()
            result = self._fresh_result()
            result.port_cost = self.icache.fetch_line(pc, "preconstruct")[0]
        else:
            result = None
        self._index = index + 1
        self._pc = post_pc
        self.replayed_steps += 1
        if result is None:
            return events
        if events.notable:
            result.completed = events.completed
            result.new_start_point = events.new_start_point
            result.finished = events.finished
            result.notable = True
        return result

    def _live_step(self, needs_fetch: Optional[bool]) -> StepResult:
        """Walk one step, appending it to the recorded node (if any)."""
        region = self.region
        if region is None:
            raise RuntimeError("step on idle constructor")
        pc = self._pc
        fetches = (pc is not None
                   and self._walked < self.config.max_walk_instructions)
        result: Optional[StepResult] = None
        # Fetch through the prefetch cache; a fresh line uses the port.
        if fetches and (needs_fetch if needs_fetch is not None
                        else not region.prefetch_cache.contains(pc)):
            if not region.prefetch_cache.add_line(pc):
                return self._fetch_bound()
            result = self._fresh_result()
            result.port_cost = self.icache.fetch_line(pc, "preconstruct")[0]
        result = self._walk(result, None)
        node = self._record
        if node is not None:
            events = _PLAIN
            if result.notable:
                events = StepResult(completed=result.completed,
                                    new_start_point=result.new_start_point,
                                    finished=result.finished, notable=True)
            node.steps.append((self._pc, fetches, events))
            if result.finished:
                node.ended = True
                node.recorder = None
                self._record = None
        return result

    def _fetch_bound(self) -> StepResult:
        """The region's prefetch cache is full: the walk ends here,
        discarding its partial trace."""
        self._reset_buffer()
        self._pc = None
        result = self._fresh_result()
        result.finished = True
        result.region_fetch_bound = True
        result.notable = True
        return result

    def _walk(self, result: Optional[StepResult],
              answer: Optional[Bias]) -> StepResult:
        """Everything a step does after the line fetch.

        ``answer`` overrides the bias read at a conditional branch (a
        rebuild re-walking a recorded consult); ``None`` reads the
        bimodal.
        """
        pc = self._pc
        if pc is None:
            return self._backtrack_or_finish()
        if self._walked >= self.config.max_walk_instructions:
            self._reset_buffer()  # never emit a partial trace
            self._pc = None
            return self._backtrack_or_finish()

        inst = self._decode.get(pc, _UNDECODED)
        if inst is _UNDECODED:
            inst = self.image.try_fetch(pc)
            self._decode[pc] = inst
        if inst is None or inst.kind is Kind.HALT:
            self._reset_buffer()
            self._pc = None
            return result if result is not None else _PLAIN

        taken, next_pc, path_ends = self._advance(pc, inst, answer)
        self._walked += 1
        completed = self._builder.add(pc, inst, taken,
                                      next_pc if next_pc is not None else 0)
        self._entry_stacks.append(self._call_stack)
        if completed is None:
            self._pc = None if path_ends else next_pc
            return result if result is not None else _PLAIN
        if result is None:
            result = self._fresh_result()
        self._complete(completed, result)
        self._pc = None
        return result

    # ------------------------------------------------------------------
    # Walk scripts.
    # ------------------------------------------------------------------
    def _snapshot(self) -> tuple:
        """The walk state a rebuild restores (lists copied)."""
        return (self._pc, self._call_stack,
                self._builder.snapshot_entries(), list(self._entry_stacks),
                list(self._decisions), self._traces_emitted, self._walked)

    def _follow(self, node: _ScriptNode) -> Optional[_ScriptNode]:
        """At the end of a replayed node: continue into the child the
        live bias selects, or rebuild the live walk state and return
        ``None`` (recording from here unless another constructor is
        already recording this node)."""
        if node.consult_pc is not None:
            child = node.children.get(self.bimodal.bias(node.consult_pc))
            if child is not None:
                self._replay = child
                self._index = 0
                return child
        self._rebuild(node)
        if node.consult_pc is not None:
            self._record = node  # the next step splits into a new child
        elif node.recorder is None and not node.ended:
            node.recorder = self
            self._record = node
        return None

    def _rebuild(self, node: _ScriptNode) -> None:
        """Leave replay with the live state after ``node``'s recorded
        steps: restore its start snapshot and silently re-walk them."""
        self._replay = None
        (self._pc, self._call_stack, entries, entry_stacks, decisions,
         self._traces_emitted, self._walked) = node.snapshot
        self._builder.restore_entries(entries)
        self._entry_stacks = list(entry_stacks)
        self._decisions = list(decisions)
        answer = node.answer
        for _ in node.steps:
            self._walk(None, answer)
            answer = None

    def _split(self, pc: int, answer: Bias) -> None:
        """The recorded walk consults the bias at ``pc``: end the node
        being recorded there and record on in the child for ``answer``
        (or stop recording, when another walk already made it)."""
        parent = self._record
        parent.consult_pc = pc
        parent.recorder = None
        if answer in parent.children:
            self._record = None
            return
        child = _ScriptNode(answer, self._snapshot(), self)
        parent.children[answer] = child
        self._record = child

    # ------------------------------------------------------------------
    def _complete(self, completed: Trace, result: StepResult) -> None:
        """Populate ``result`` for an emitted trace."""
        self._traces_emitted += 1
        result.completed = completed
        result.notable = True
        cut = len(completed)
        if completed.next_pc:
            result.new_start_point = StartPoint(
                pc=completed.next_pc,
                call_stack=self._entry_stacks[cut - 1])
        self._reset_buffer()  # drop any truncation leftover
        if self._traces_emitted >= self.config.max_traces_per_start:
            self._decisions.clear()
            result.finished = True

    def _reset_buffer(self) -> None:
        self._builder.reset()
        self._entry_stacks.clear()

    # ------------------------------------------------------------------
    def _backtrack_or_finish(self) -> StepResult:
        """Resume a saved decision point, or report the start point done."""
        result = self._fresh_result()
        if (self._decisions
                and self._traces_emitted < self.config.max_traces_per_start):
            point = self._decisions.pop()
            self._builder.restore_entries(point.entries)
            self._entry_stacks = list(point.entry_stacks)
            self._call_stack = point.call_stack
            self._walked = point.walked + 1
            inst = self._decode.get(point.pc)
            if inst is None:
                inst = self.image.fetch(point.pc)
            completed = self._builder.add(point.pc, inst, True,
                                          point.taken_target)
            self._entry_stacks.append(self._call_stack)
            if completed is not None:
                self._complete(completed, result)
                self._pc = None
            else:
                self._pc = point.taken_target
            return result
        result.finished = True
        result.notable = True
        return result

    # ------------------------------------------------------------------
    def _advance(self, pc: int, inst: Instruction, answer: Optional[Bias]
                 ) -> tuple[bool, Optional[int], bool]:
        """Decide (taken, next_pc, path_ends) for the walked instruction.

        Mutates the call stack for calls and resolved returns, so the
        post-instruction stack snapshot taken by the caller is correct.
        """
        fall = pc + INSTRUCTION_BYTES
        if not inst.is_control:
            return False, fall, False
        kind = inst.kind
        if kind is Kind.BRANCH:
            policy = self._branch_policy
            if policy == "taken":
                return True, pc + inst.imm, False
            if policy == "not_taken":
                return False, fall, False
            if policy == "biased":
                if answer is None:
                    answer = self.bimodal.bias(pc)
                if self._record is not None:
                    self._split(pc, answer)
                if answer is Bias.STRONG_TAKEN:
                    return True, pc + inst.imm, False
                if answer is Bias.STRONG_NOT_TAKEN:
                    return False, fall, False
            # Weakly biased (or policy "both"): not-taken first,
            # remember the taken path.
            if len(self._decisions) < self.config.max_decision_depth:
                self._decisions.append(_DecisionPoint(
                    entries=self._builder.snapshot_entries(),
                    entry_stacks=list(self._entry_stacks),
                    pc=pc,
                    taken_target=pc + inst.imm,
                    call_stack=self._call_stack,
                    walked=self._walked,
                ))
            return False, fall, False
        if kind is Kind.JUMP:
            return False, inst.imm, False
        if kind is Kind.CALL:
            if len(self._call_stack) >= self.config.max_call_depth:
                return False, None, True  # too deep; end the path
            self._call_stack = self._call_stack + (fall,)
            return False, inst.imm, False
        if kind is Kind.JUMP_INDIRECT:
            if inst.is_return and self._call_stack:
                target = self._call_stack[-1]
                self._call_stack = self._call_stack[:-1]
                return False, target, False
            return False, None, True  # statically opaque target
        if kind is Kind.CALL_INDIRECT:
            return False, None, True
        return False, fall, False
