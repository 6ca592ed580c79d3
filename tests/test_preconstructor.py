"""Tests for the static-code trace constructor (paper §3.4).

The program under test mirrors the paper's Figure 2/3 example: a caller
invokes a procedure containing a loop and an if-then-else diamond, then
continues with a loop of its own.  The key property verified is
*alignment*: traces the constructor builds from the region start point
(the instruction after the JAL) must be exactly the traces the
processor later needs, identity-for-identity.
"""

import pytest

from repro.branch import BimodalPredictor
from repro.caches import InstructionCache
from repro.core import ConstructorConfig, Region, StartPoint, TraceConstructor
from repro.core.preconstructor import NoWalkScripts
from repro.core.region import RegionState
from repro.caches import PrefetchCache
from repro.engine import FunctionalEngine
from repro.isa import assemble
from repro.program import ProgramImage
from repro.trace import traces_of_stream

# Figure 2/3 analogue: main calls f (loop + diamond), then h/i-loop/j.
EXAMPLE = """
main:
    addi r9, r0, 3        # outer repetitions
outer:
    addi r1, r0, 0
    jal  f                # <- pushes region start point (after_call)
after_call:
    addi r5, r0, 0        # block h
loop_i:
    addi r5, r5, 1        # block i
    addi r6, r5, 0
    addi r7, r6, 1
    blt  r5, r2, loop_i   # i loop back edge (Br2 analogue)
    addi r8, r0, 7        # block j
    addi r9, r9, -1
    bne  r9, r0, outer
    jr   ra

f:
    addi r2, r0, 4        # block b
loop_c:
    addi r1, r1, 1        # block c
    blt  r1, r2, loop_c   # loop back edge (Br1 analogue)
    andi r3, r1, 1        # diamond entry, block d
    beq  r3, r0, f_else
    addi r4, r0, 1        # block e
    j    f_join
f_else:
    addi r4, r0, 2        # block f
f_join:
    add  r4, r4, r1       # block g
    jr   ra
"""


@pytest.fixture(scope="module")
def example():
    insts, labels = assemble(EXAMPLE, base=0x1000)
    image = ProgramImage(instructions=insts, code_base=0x1000, entry=0x1000,
                        labels=labels)
    stream = FunctionalEngine(image).run(10_000)
    return image, labels, stream


def _trained_bimodal(stream) -> BimodalPredictor:
    predictor = BimodalPredictor(entries=4096, initial=1)
    for record in stream:
        if record.inst.is_conditional_branch:
            predictor.update(record.pc, record.taken)
    return predictor


def _run_constructor(image, bimodal, start_pc, *,
                     config=None, capacity=256):
    icache = InstructionCache()
    region = Region(seq=0, start_pc=start_pc,
                    prefetch_cache=PrefetchCache(capacity))
    constructor = TraceConstructor(image, icache, bimodal, config=config)
    built = []
    while True:
        if not constructor.busy:
            point = region.pop_start_point()
            if point is None or not region.active:
                break
            constructor.assign(region, point)
        result = constructor.step()
        if result.completed is not None:
            built.append(result.completed)
        if result.new_start_point is not None:
            region.push_start_point(result.new_start_point)
        if result.region_fetch_bound:
            region.complete()
        if result.finished:
            constructor.release()
    return built, region, icache


class TestConstructorAlignment:
    def test_preconstructed_traces_align_with_demand(self, example):
        """Every trace the processor needs from the region start point
        onward (until leaving the region) is among the preconstructed
        traces, with an exactly matching identity."""
        image, labels, stream = example
        bimodal = _trained_bimodal(stream)
        start_pc = labels["after_call"]
        built, _, _ = _run_constructor(image, bimodal, start_pc)
        built_ids = {t.trace_id for t in built}

        demand = traces_of_stream(stream)
        # Demand traces that begin exactly at the region start point:
        region_demand = [t for t in demand if t.start_pc == start_pc]
        assert region_demand, "stream never reaches the start point?"
        matched = [t for t in region_demand if t.trace_id in built_ids]
        assert matched, (
            "no demand trace at the region start point was preconstructed")

    def test_constructed_content_matches_demand_content(self, example):
        """Identity match implies content match (no ID collisions)."""
        image, labels, stream = example
        bimodal = _trained_bimodal(stream)
        built, _, _ = _run_constructor(image, bimodal, labels["after_call"])
        demand_by_id = {t.trace_id: t for t in traces_of_stream(stream)}
        overlap = 0
        for trace in built:
            if trace.trace_id in demand_by_id:
                overlap += 1
                assert demand_by_id[trace.trace_id].pcs == trace.pcs
        assert overlap > 0

    def test_strongly_biased_branches_follow_single_path(self, example):
        """With all branches trained strongly, the constructor never
        backtracks, so each start point yields a linear set of traces."""
        image, labels, stream = example
        bimodal = _trained_bimodal(stream)
        # Saturate every branch counter further (make everything strong).
        for record in stream:
            if record.inst.is_conditional_branch:
                for _ in range(3):
                    bimodal.update(record.pc, record.taken)
        built, _, _ = _run_constructor(image, bimodal, labels["after_call"])
        # Weak-branch forks are impossible; outcome vectors must be
        # consistent with the trained directions.
        for trace in built:
            index = 0
            for pc, inst in zip(trace.pcs, trace.instructions):
                if inst.is_conditional_branch:
                    # Strong bias: trace follows the trained direction.
                    assert trace.trace_id.outcomes[index] == \
                        bimodal.peek(pc)
                    index += 1

    def test_untrained_branches_fork_both_paths(self, example):
        """With a cold (weak) predictor, the constructor explores both
        directions of the diamond and produces sibling traces."""
        image, labels, stream = example
        bimodal = BimodalPredictor(entries=4096, initial=1)  # all weak
        built, _, _ = _run_constructor(image, bimodal, labels["f"])
        starts = {}
        for trace in built:
            starts.setdefault(trace.start_pc, set()).add(
                trace.trace_id.outcomes)
        # At least one start point produced differing outcome vectors.
        assert any(len(vectors) > 1 for vectors in starts.values())

    def test_never_emits_partial_traces(self, example):
        """Resource bounds discard partial work instead of emitting a
        colliding short trace."""
        image, labels, stream = example
        bimodal = _trained_bimodal(stream)
        config = ConstructorConfig(max_walk_instructions=6)
        built, _, _ = _run_constructor(image, bimodal, labels["after_call"],
                                       config=config)
        demand_by_id = {t.trace_id: t for t in traces_of_stream(stream)}
        for trace in built:
            if trace.trace_id in demand_by_id:
                assert demand_by_id[trace.trace_id].pcs == trace.pcs

    def test_fetch_bound_terminates_region(self, example):
        image, labels, stream = example
        bimodal = BimodalPredictor(entries=4096, initial=1)  # cold: forks
        # One-line prefetch cache: walking procedure f crosses a 64-byte
        # line boundary, so the fill-up bound must fire.
        built, region, _ = _run_constructor(
            image, bimodal, labels["f"], capacity=16)
        assert region.state is RegionState.COMPLETED
        assert region.prefetch_cache.full

    def test_icache_traffic_attributed_to_preconstruct(self, example):
        image, labels, stream = example
        bimodal = _trained_bimodal(stream)
        _, _, icache = _run_constructor(image, bimodal, labels["after_call"])
        traffic = icache.client_traffic("preconstruct")
        assert traffic.lines_accessed > 0
        assert traffic.misses > 0  # cold I-cache

    def test_indirect_termination(self, example):
        """Paths terminate at returns whose calls were not observed in
        the region (statically opaque targets)."""
        image, labels, stream = example
        bimodal = _trained_bimodal(stream)
        # Region rooted at f's entry: its final `jr ra` has no matching
        # call inside the region, so no start point beyond it may exist.
        built, region, _ = _run_constructor(image, bimodal, labels["f"])
        f_first = labels["f"]
        f_end = max(pc for trace in built for pc in trace.pcs)
        for trace in built:
            for pc in trace.pcs:
                assert pc >= f_first, "constructor escaped through a return"


# ----------------------------------------------------------------------
# Walk scripts: a replaying constructor must return exactly the step
# results of one that walks every start point live.
# ----------------------------------------------------------------------
class _Walker:
    """Drives one constructor over a region the way the engine does:
    the prefetch-cache probe decides the fetch, results feed the
    worklist, and a finished or fetch-bound walk releases it."""

    def __init__(self, image, bimodal, scripts, start_pc, *, config=None,
                 capacity=256, explore=True):
        self.region = Region(seq=0, start_pc=start_pc,
                             prefetch_cache=PrefetchCache(capacity))
        self.constructor = TraceConstructor(image, InstructionCache(),
                                            bimodal, config=config,
                                            scripts=scripts)
        self.explore = explore
        self.results = []
        self.hit_walk_limit = False
        self._assigned = 0

    def step(self) -> bool:
        """One step; False once the region has no work left."""
        constructor, region = self.constructor, self.region
        if not constructor.busy:
            if (not self.explore and self._assigned) or not region.active:
                return False
            point = region.pop_start_point()
            if point is None:
                return False
            constructor.assign(region, point)
            self._assigned += 1
        pc = constructor._pc
        if (pc is not None and constructor._walked
                >= constructor.config.max_walk_instructions):
            self.hit_walk_limit = True
        result = constructor.step(
            pc is not None and not region.prefetch_cache.contains(pc))
        self.results.append((result.port_cost, result.completed,
                             result.new_start_point, result.finished,
                             result.region_fetch_bound, result.notable))
        if result.new_start_point is not None:
            region.push_start_point(result.new_start_point)
        if result.region_fetch_bound:
            region.complete()
        if result.finished or not region.active:
            constructor.release()
        return True

    def run(self, steps=None) -> "_Walker":
        while (steps is None or steps > 0) and self.step():
            if steps is not None:
                steps -= 1
        return self

    @property
    def replayed(self) -> int:
        return self.constructor.replayed_steps


def _lockstep(replaying: _Walker, live: _Walker, between=None) -> None:
    """Step both walkers alternately; ``between(i)`` runs before step i
    (a bias change between engine ticks)."""
    index = 0
    while True:
        if between is not None:
            between(index)
        more = replaying.step()
        assert live.step() == more
        if not more:
            break
        index += 1
    assert replaying.results == live.results
    assert replaying.results


def _set_bias(bimodal, pc, taken, strong):
    """Drive the counter at ``pc`` to (strong|weak, taken|not-taken)."""
    for _ in range(3):
        bimodal.update(pc, not taken)
    bimodal.update(pc, taken)
    bimodal.update(pc, taken)
    if strong:
        bimodal.update(pc, taken)


class TestWalkScripts:
    @pytest.mark.parametrize("recorded, flipped", [
        ((True, True), (True, False)),    # strong taken -> weak taken
        ((False, False), (True, True)),   # weak not-taken -> strong taken
    ])
    def test_bias_flip_between_ticks(self, example, recorded, flipped):
        image, labels, _ = example
        branch = labels["after_call"] + 4 * 4   # blt r5, r2, loop_i
        bimodal = BimodalPredictor(entries=4096, initial=1)
        start = labels["after_call"]
        scripts = {}
        _set_bias(bimodal, branch, *recorded)
        _Walker(image, bimodal, scripts, start).run()

        # Rebuild path: the flipped answer has no child yet.
        _set_bias(bimodal, branch, *flipped)
        flipped_walk = _Walker(image, bimodal, scripts, start)
        _lockstep(flipped_walk, _Walker(image, bimodal, NoWalkScripts(),
                                        start))
        assert 0 < flipped_walk.replayed < len(flipped_walk.results)

        # Existing-child path, for either answer: both are recorded.
        for bias in (flipped, recorded):
            _set_bias(bimodal, branch, *bias)
            again = _Walker(image, bimodal, scripts, start)
            _lockstep(again, _Walker(image, bimodal, NoWalkScripts(), start))
            assert again.replayed == len(again.results)

        # A flip between ticks in the middle of a replay.
        def flip_midway(index):
            if index == 10:
                _set_bias(bimodal, branch, *flipped)
        _set_bias(bimodal, branch, *recorded)
        _lockstep(_Walker(image, bimodal, scripts, start),
                  _Walker(image, bimodal, NoWalkScripts(), start),
                  between=flip_midway)

    def test_start_point_still_being_recorded(self, example):
        image, labels, stream = example
        bimodal = _trained_bimodal(stream)
        start = labels["after_call"]
        scripts = {}
        first = _Walker(image, bimodal, scripts, start, explore=False)
        second = _Walker(image, bimodal, scripts, start, explore=False)
        first_live = _Walker(image, bimodal, NoWalkScripts(), start,
                             explore=False)
        second_live = _Walker(image, bimodal, NoWalkScripts(), start,
                              explore=False)
        first.run(5)
        first_live.run(5)
        assert first.constructor.busy
        # The second walk overtakes the recording: it replays the five
        # recorded steps, then walks live without recording.
        second.run()
        second_live.run()
        assert second.results == second_live.results
        assert second.replayed == 5
        first.run()
        first_live.run()
        assert first.results == first_live.results
        assert first.replayed == 0
        # The completed recording now serves a whole walk.
        third = _Walker(image, bimodal, scripts, start, explore=False)
        _lockstep(third, _Walker(image, bimodal, NoWalkScripts(), start,
                                 explore=False))
        assert third.replayed == len(third.results) == len(first.results)

    def test_fetch_bound_mid_replay(self, example):
        image, labels, _ = example
        bimodal = BimodalPredictor(entries=4096, initial=1)  # cold: forks
        scripts = {}
        _Walker(image, bimodal, scripts, labels["f"]).run()
        replaying = _Walker(image, bimodal, scripts, labels["f"],
                            capacity=16)
        live = _Walker(image, bimodal, NoWalkScripts(), labels["f"],
                       capacity=16)
        _lockstep(replaying, live)
        assert replaying.results[-1][4], "no fetch bound"
        assert replaying.replayed == len(replaying.results) - 1

    def test_walk_beyond_max_walk_instructions(self, example):
        image, labels, stream = example
        bimodal = _trained_bimodal(stream)
        config = ConstructorConfig(max_walk_instructions=6)
        start = labels["after_call"]
        scripts = {}
        recording = _Walker(image, bimodal, scripts, start, config=config)
        _lockstep(recording, _Walker(image, bimodal, NoWalkScripts(), start,
                                     config=config))
        assert recording.hit_walk_limit
        replaying = _Walker(image, bimodal, scripts, start, config=config)
        _lockstep(replaying, _Walker(image, bimodal, NoWalkScripts(), start,
                                     config=config))
        assert replaying.replayed == len(replaying.results)

    def test_replayed_steps_counted_outside_the_summary(self):
        from repro.runner.spec import build_frontend_config
        from repro.sim import run_frontend
        from repro.workloads.spec95 import build_workload

        config = build_frontend_config(256, 128)
        result = run_frontend(build_workload("gcc").image, config, 60_000)
        stats = result.preconstruction.stats
        # Measured 0.66-0.68 at the seed-0 Figure-5 gcc points (compress
        # replays 0.97; the two together 0.87).
        assert stats.replayed_steps >= 0.6 * stats.decode_steps
        assert stats.replayed_steps < stats.decode_steps
        assert "replayed_steps" not in result.stats.summary()
