"""Unit tests for the generic dataflow engine and its analyses.

Small hand-assembled programs with facts worked out by hand: the
engine's direction semantics, each analysis' transfer functions, the
interprocedural summaries, trip-count bounds, and the dataflow-driven
jump-table resolver (differentially checked against the pattern
matcher it subsumes).
"""

import pytest

import repro.static.analyses as analyses_mod
from repro.isa import INSTRUCTION_BYTES, assemble
from repro.isa.registers import RA, SP
from repro.program import ProgramImage
from repro.static import (
    ALL_REGS_MASK,
    ENTRY_DEF,
    TOP,
    ConstantRangeAnalysis,
    Direction,
    Interval,
    LivenessAnalysis,
    ProcedureSummaries,
    ReachingDefsAnalysis,
    StaticFacts,
    build_flow_graph,
    resolve_table_via_dataflow,
    solve,
)
from repro.static.analyses import mask_of
from repro.static.recovery import resolve_indirect_table
from repro.workloads import generate, profile_for

BASE = 0x1000


def _facts(source: str, procs: list[str]) -> StaticFacts:
    insts, labels = assemble(source, base=BASE)
    image = ProgramImage(instructions=insts, code_base=BASE,
                         entry=BASE, labels={p: labels[p] for p in procs})
    return StaticFacts(image)


def _proc(facts: StaticFacts, name: str):
    return facts.cfg.procedure(name)


STRAIGHT = """
main:
    addi r1, r0, 5
    addi r2, r1, 3
    add  r3, r1, r2
    halt
"""


class TestEngine:
    def test_flow_graph_is_sorted_and_rpo_starts_at_entry(self):
        facts = _facts(STRAIGHT, ["main"])
        graph = build_flow_graph(facts.cfg, _proc(facts, "main"))
        assert list(graph.nodes) == sorted(graph.nodes)
        assert graph.rpo[0] == graph.entry == BASE

    def test_forward_rows_carry_fact_before_each_instruction(self):
        facts = _facts(STRAIGHT, ["main"])
        proc = _proc(facts, "main")
        result = facts.reaching(proc)
        assert result.analysis.direction is Direction.FORWARD
        rows = result.instruction_facts(facts.cfg, proc.start)
        # At the first instruction nothing has been defined yet.
        pc0, _, fact0 = rows[0]
        assert pc0 == BASE
        assert fact0.get(1) == frozenset({ENTRY_DEF})
        # At the second instruction r1's definition has landed.
        _, _, fact1 = rows[1]
        assert fact1.get(1) == frozenset({BASE})

    def test_backward_rows_carry_fact_after_each_instruction(self):
        facts = _facts(STRAIGHT, ["main"])
        proc = _proc(facts, "main")
        result = facts.liveness(proc)
        assert result.analysis.direction is Direction.BACKWARD
        rows = {pc: fact for pc, _, fact
                in result.instruction_facts(facts.cfg, proc.start)}
        # After ``addi r1, r0, 5`` the value is still awaited by the
        # two readers below, so r1 must be live in the fact *after* it.
        assert (rows[BASE] >> 1) & 1
        # After the last reader redefines nothing, r1 stays live only
        # because the exit boundary is all-live; the intra-procedural
        # variant kills it.
        local = facts.liveness_local(proc)
        local_rows = {pc: fact for pc, _, fact
                      in local.instruction_facts(facts.cfg, proc.start)}
        assert not (local_rows[BASE + 2 * INSTRUCTION_BYTES] >> 1) & 1

    def test_fixpoint_converges_and_is_reproducible(self):
        source = """
        main:
            addi r1, r0, 0
        loop:
            addi r1, r1, 1
            blt r1, r2, loop
            halt
        """
        for analysis_cls in (LivenessAnalysis, ReachingDefsAnalysis,
                             ConstantRangeAnalysis):
            runs = []
            for _ in range(2):
                facts = _facts(source, ["main"])
                proc = _proc(facts, "main")
                analysis = analysis_cls(facts.cfg.image,
                                        facts.summaries.call_effects)
                result = solve(analysis, facts.cfg,
                               graph=facts.flow_graph(proc))
                assert result.converged
                runs.append((result.in_facts, result.out_facts))
            assert runs[0] == runs[1]


class TestLiveness:
    def test_exit_boundary_variants(self):
        facts = _facts(STRAIGHT, ["main"])
        proc = _proc(facts, "main")
        assert facts.liveness(proc).out_facts[proc.start] == ALL_REGS_MASK
        assert facts.liveness_local(proc).out_facts[proc.start] == 0

    def test_branch_operands_are_live_in(self):
        facts = _facts("""
        main:
            beq r5, r6, out
            addi r1, r0, 1
        out:
            halt
        """, ["main"])
        proc = _proc(facts, "main")
        live_in = facts.liveness(proc).in_facts[proc.start]
        assert (live_in >> 5) & 1 and (live_in >> 6) & 1


class TestReachingDefs:
    def test_redefinition_kills_earlier_def(self):
        facts = _facts("""
        main:
            addi r1, r0, 1
            addi r1, r0, 2
            add  r2, r1, r1
            halt
        """, ["main"])
        proc = _proc(facts, "main")
        rows = facts.reaching(proc).instruction_facts(facts.cfg,
                                                      proc.start)
        _, _, at_use = rows[2]
        assert at_use.get(1) == frozenset({BASE + INSTRUCTION_BYTES})

    def test_join_unions_defs_from_both_arms(self):
        facts = _facts("""
        main:
            beq r9, r0, other
            addi r1, r0, 1
            j out
        other:
            addi r1, r0, 2
        out:
            halt
        """, ["main"])
        proc = _proc(facts, "main")
        # The join block (the one holding ``halt``) is the last block;
        # both arms' definitions of r1 must reach it.
        halt_start = max(facts.reaching(proc).in_facts)
        fact = facts.reaching(proc).in_facts[halt_start]
        assert len(fact.get(1, frozenset())) == 2


class TestConstantRange:
    def test_straight_line_intervals_are_exact(self):
        facts = _facts(STRAIGHT, ["main"])
        proc = _proc(facts, "main")
        out = facts.constants(proc).out_facts[proc.start]
        assert out[1] == Interval(5, 5)
        assert out[2] == Interval(8, 8)
        assert out[3] == Interval(13, 13)

    def test_loop_counter_widens_to_top_but_converges(self):
        facts = _facts("""
        main:
            addi r1, r0, 0
        loop:
            addi r1, r1, 1
            beq r9, r0, loop
            halt
        """, ["main"])
        proc = _proc(facts, "main")
        result = facts.constants(proc)
        assert result.converged
        header = next(b for b in result.in_facts
                      if b != proc.start)
        fact = result.in_facts[header]
        assert fact.get(1, TOP) is TOP


class TestSPDelta:
    def test_balanced_and_unbalanced_deltas(self):
        facts = _facts("""
        main:
            jal f
            jal g
            halt
        f:
            addi sp, sp, -16
            addi sp, sp, 16
            jr ra
        g:
            addi sp, sp, -8
            jr ra
        """, ["main", "f", "g"])
        f, g = _proc(facts, "f"), _proc(facts, "g")
        assert facts.sp_delta(f).out_facts[f.start] == 0
        assert facts.sp_delta(g).out_facts[g.start] == -8
        assert facts.summaries["f"].sp_balanced
        assert not facts.summaries["g"].sp_balanced


class TestSummaries:
    SOURCE = """
    main:
        addi r2, r0, 1
        jal outer
        halt
    outer:
        addi r4, r0, 2
        jal inner
        jr ra
    inner:
        add r5, r6, r6
        jr ra
    """

    def test_clobbers_propagate_transitively(self):
        facts = _facts(self.SOURCE, ["main", "outer", "inner"])
        outer = facts.summaries["outer"]
        # outer writes r4 itself and r5 transitively via inner; the
        # implicit RA write of ``jal`` is handled at call sites, not
        # carried in the summary mask.
        assert (outer.clobbered >> 4) & 1
        assert (outer.clobbered >> 5) & 1
        assert not (outer.clobbered >> 2) & 1

    def test_used_is_upward_exposed_not_may_read(self):
        facts = _facts(self.SOURCE, ["main", "outer", "inner"])
        inner = facts.summaries["inner"]
        assert (inner.used >> 6) & 1       # reads caller's r6
        outer = facts.summaries["outer"]
        assert (outer.used >> 6) & 1       # exposed through the call
        # r4 is defined locally before any use: not upward-exposed.
        assert not (outer.used >> 4) & 1


def _regs(*regs: int) -> int:
    return mask_of(iter(regs))


class TestRecursiveSummaries:
    """Summaries over cyclic call graphs, checked against masks derived
    by hand as the least fixpoint of the summary equations."""

    # a <-> b, both reaching c; c saves, writes and restores r16.
    MUTUAL = """
    main:
        addi r2, r0, 1
        jal a
        halt
    a:
        addi r4, r2, 1
        beq r4, r0, a_out
        jal b
    a_out:
        jal c
        jr ra
    b:
        addi r5, r3, 0
        jal a
        jr ra
    c:
        addi sp, sp, -4
        sw r16, 0(sp)
        addi r16, r6, 1
        lw r16, 0(sp)
        addi sp, sp, 4
        jr ra
    """

    SELF = """
    main:
        jal f
        halt
    f:
        addi sp, sp, -8
        sw ra, 0(sp)
        beq r7, r0, f_out
        addi r7, r7, -1
        jal f
    f_out:
        lw ra, 0(sp)
        addi sp, sp, 8
        jr ra
    """

    # g calls through a register no table feeds: no resolvable target.
    INDIRECT = """
    main:
        jal g
        halt
    g:
        addi r8, r9, 0
        jalr ra, r8
        jr ra
    """

    @staticmethod
    def _table(facts: StaticFacts) -> dict[str, tuple[int, int, int, bool]]:
        return {name: (s.clobbered, s.used, s.preserved, s.sp_balanced)
                for name, s in facts.summaries.summaries.items()}

    def test_mutual_recursion_through_a_callee_saving_helper(self):
        facts = _facts(self.MUTUAL, ["main", "a", "b", "c"])
        # c's own r16 write is restored, so no caller may inherit it:
        # the cycle a <-> b must not keep r16 alive between its members.
        ab_used = _regs(2, 3, 6, 16, SP)
        assert self._table(facts) == {
            "c": (_regs(SP), _regs(6, 16, SP, RA), _regs(16), True),
            "a": (_regs(4, 5, SP), ab_used, 0, True),
            "b": (_regs(4, 5, SP), ab_used, 0, True),
            "main": (_regs(2, 4, 5, SP), _regs(3, 6, 16, SP), 0, True),
        }

    def test_self_recursion(self):
        facts = _facts(self.SELF, ["main", "f"])
        assert self._table(facts) == {
            "f": (_regs(7, SP), _regs(7, SP, RA), _regs(RA), True),
            "main": (_regs(7, SP), _regs(7, SP), 0, True),
        }

    def test_unresolved_indirect_call_is_conservative(self):
        facts = _facts(self.INDIRECT, ["main", "g"])
        jalr_pc = facts.cfg.procedure("g").start + INSTRUCTION_BYTES
        assert facts.summaries.site_targets[jalr_pc] == ()
        effects = facts.summaries.call_effects[jalr_pc]
        assert (effects.clobbered, effects.used, effects.sp_balanced) \
            == (ALL_REGS_MASK, ALL_REGS_MASK, False)
        used = ALL_REGS_MASK & ~_regs(8, RA)
        assert self._table(facts) == {
            "g": (ALL_REGS_MASK, used, 0, False),
            "main": (ALL_REGS_MASK, used, 0, True),
        }

    def test_served_local_liveness_matches_a_fresh_solve(self):
        facts = _facts(self.MUTUAL, ["main", "a", "b", "c"])
        for proc in facts.cfg.procedures:
            served = facts.liveness_local(proc)
            fresh = solve(LivenessAnalysis(facts.image,
                                           facts.summaries.call_effects,
                                           exit_boundary=0),
                          facts.cfg, graph=facts.flow_graph(proc))
            assert served.in_facts == fresh.in_facts
            assert served.out_facts == fresh.out_facts

    def test_gcc_solves_each_procedure_about_once(self, monkeypatch):
        """The callee-first worklist re-solves a procedure only when a
        callee's summary changed, so a call graph without recursion
        costs about one exits-dead liveness solve per procedure."""
        image = generate(profile_for("gcc"), verify=False).image
        facts = StaticFacts(image)
        cfg, callgraph = facts.cfg, facts.callgraph
        solves = []
        real_solve = analyses_mod.solve

        def counting_solve(analysis, *args, **kwargs):
            if isinstance(analysis, LivenessAnalysis):
                solves.append(analysis)
            return real_solve(analysis, *args, **kwargs)

        monkeypatch.setattr(analyses_mod, "solve", counting_solve)
        ProcedureSummaries(cfg, callgraph)
        assert len(cfg.procedures) <= len(solves) \
            <= 2 * len(cfg.procedures)


class TestTripBounds:
    def test_counted_loop_bounds_are_exact(self):
        facts = _facts("""
        main:
            addi r1, r0, 0
            addi r2, r0, 5
        loop:
            addi r1, r1, 1
            blt r1, r2, loop
            halt
        """, ["main"])
        proc = _proc(facts, "main")
        bounds = facts.trip_bounds(proc)
        assert len(bounds) == 1
        (bound,) = bounds.values()
        assert (bound.lo, bound.hi) == (5, 5)
        assert not bound.is_degenerate

    def test_non_canonical_loop_left_unbounded(self):
        facts = _facts("""
        main:
            addi r1, r0, 0
        loop:
            addi r1, r1, 1
            beq r9, r0, loop
            halt
        """, ["main"])
        assert facts.trip_bounds(_proc(facts, "main")) == {}


class TestTableResolution:
    @pytest.mark.parametrize("name", ["perl", "gcc", "fuzz-7", "fuzz-11"])
    def test_dataflow_resolver_matches_pattern_matcher(self, name):
        """The dataflow-driven resolver must agree with the ad-hoc
        backward pattern matcher it subsumes on every indirect site
        the matcher can resolve."""
        image = generate(profile_for(name)).image
        facts = StaticFacts(image)
        cfg = facts.cfg
        checked = 0
        for proc in facts.live_procedures():
            for start in sorted(cfg.reachable_blocks(proc)):
                block = cfg.blocks[start]
                pc = block.end - INSTRUCTION_BYTES
                inst = image.try_fetch(pc)
                if inst is None or not inst.is_indirect \
                        or inst.is_return:
                    continue
                pattern = resolve_indirect_table(image, pc,
                                                 cfg.reloc_targets)
                dataflow = resolve_table_via_dataflow(facts, proc, pc)
                if pattern is not None and dataflow is not None:
                    assert sorted(set(pattern)) == sorted(set(dataflow))
                    checked += 1
        assert checked > 0, f"no resolvable indirect sites in {name}"


class TestStaticFacts:
    def test_results_are_memoised(self):
        facts = _facts(STRAIGHT, ["main"])
        proc = _proc(facts, "main")
        assert facts.liveness(proc) is facts.liveness(proc)
        assert facts.reaching(proc) is facts.reaching(proc)
        assert facts.constants(proc) is facts.constants(proc)
        assert facts.cfg is facts.cfg

    def test_live_procedures_in_address_order(self):
        facts = _facts(TestSummaries.SOURCE, ["main", "outer", "inner"])
        names = [p.name for p in facts.live_procedures()]
        assert names == ["main", "outer", "inner"]
