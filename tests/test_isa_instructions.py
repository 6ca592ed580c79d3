"""Unit tests for the ISA: opcodes, instruction classification, registers."""

import dataclasses
import itertools

import pytest

from repro.isa import (
    INSTRUCTION_BYTES,
    Instruction,
    Kind,
    Opcode,
    RA,
    ZERO,
    info,
    parse_register,
    register_name,
    ret,
)
from repro.isa.opcodes import OP_INFO


class TestRegisters:
    def test_named_registers_parse(self):
        assert parse_register("ra") == RA
        assert parse_register("zero") == ZERO
        assert parse_register("r5") == 5
        assert parse_register("$7") == 7

    def test_register_names_round_trip(self):
        for reg in range(32):
            assert parse_register(register_name(reg)) == reg

    def test_unknown_register_raises(self):
        with pytest.raises(ValueError):
            parse_register("r32")
        with pytest.raises(ValueError):
            parse_register("bogus")


class TestClassification:
    def test_branch_is_conditional(self):
        inst = Instruction(Opcode.BNE, rs1=1, rs2=2, imm=-16)
        assert inst.is_conditional_branch
        assert inst.is_control
        assert inst.is_backward_branch()

    def test_forward_branch_is_not_backward(self):
        inst = Instruction(Opcode.BEQ, rs1=1, rs2=2, imm=32)
        assert not inst.is_backward_branch()

    def test_jal_is_direct_call(self):
        inst = Instruction(Opcode.JAL, imm=0x2000)
        assert inst.is_call
        assert not inst.is_indirect
        assert inst.taken_target(0x1000) == 0x2000

    def test_jalr_is_indirect_call(self):
        inst = Instruction(Opcode.JALR, rd=RA, rs1=5)
        assert inst.is_call
        assert inst.is_indirect
        assert inst.taken_target(0x1000) is None

    def test_ret_is_jr_ra(self):
        inst = ret()
        assert inst.op is Opcode.JR
        assert inst.is_return
        assert inst.is_indirect

    def test_jr_through_other_register_is_not_return(self):
        inst = Instruction(Opcode.JR, rs1=9)
        assert not inst.is_return
        assert inst.is_indirect

    def test_branch_target_is_pc_relative(self):
        inst = Instruction(Opcode.BLT, rs1=1, rs2=2, imm=-64)
        assert inst.taken_target(0x1100) == 0x1100 - 64

    def test_fall_through(self):
        inst = Instruction(Opcode.ADD, rd=1, rs1=2, rs2=3)
        assert inst.fall_through(0x1000) == 0x1000 + INSTRUCTION_BYTES


class TestRegisterUsage:
    def test_alu_sources_and_destination(self):
        inst = Instruction(Opcode.ADD, rd=3, rs1=1, rs2=2)
        assert inst.source_registers() == (1, 2)
        assert inst.destination_register() == 3

    def test_zero_register_is_filtered(self):
        inst = Instruction(Opcode.ADD, rd=0, rs1=0, rs2=2)
        assert inst.source_registers() == (2,)
        assert inst.destination_register() is None

    def test_store_reads_both_but_writes_nothing(self):
        inst = Instruction(Opcode.SW, rs1=4, rs2=5, imm=8)
        assert set(inst.source_registers()) == {4, 5}
        assert inst.destination_register() is None

    def test_immediate_op_reads_one(self):
        inst = Instruction(Opcode.ADDI, rd=1, rs1=2, imm=7)
        assert inst.source_registers() == (2,)


def _expected_use_def(inst):
    """Register use/def derived from :data:`OP_INFO` on the spot."""
    meta = OP_INFO[inst.op]
    sources = tuple(reg for reads, reg in ((meta.reads_rs1, inst.rs1),
                                           (meta.reads_rs2, inst.rs2))
                    if reads and reg != ZERO)
    dest = inst.rd if meta.writes_rd and inst.rd != ZERO else None
    return sources, dest


class TestDecodedUseDef:
    """``sources``/``dest`` are decoded once in ``__post_init__``."""

    @pytest.mark.parametrize("op", list(Opcode), ids=lambda op: op.value)
    def test_match_op_info_for_every_operand_shape(self, op):
        for rd, rs1, rs2 in itertools.product((0, 7), (0, 9), (0, 11)):
            inst = Instruction(op, rd=rd, rs1=rs1, rs2=rs2)
            sources, dest = _expected_use_def(inst)
            assert inst.sources == sources
            assert inst.dest == dest
            assert inst.source_registers() == sources
            assert inst.destination_register() == dest

    def test_excluded_from_eq_hash_and_repr(self):
        fields = {f.name: f for f in dataclasses.fields(Instruction)}
        for name in ("sources", "dest"):
            assert not fields[name].init
            assert not fields[name].compare
            assert not fields[name].repr
        inst = Instruction(Opcode.ADD, rd=3, rs1=1, rs2=2)
        assert "sources" not in repr(inst) and "dest" not in repr(inst)
        assert repr(inst) == ("Instruction(op=<Opcode.ADD: 'add'>, rd=3, "
                              "rs1=1, rs2=2, imm=0, sh1=0, sh2=0)")
        twin = Instruction(Opcode.ADD, rd=3, rs1=1, rs2=2)
        assert inst == twin and hash(inst) == hash(twin)

    def test_rewrites_recompute_them(self):
        inst = Instruction(Opcode.ADD, rd=3, rs1=1, rs2=2)
        store = inst.with_fields(op=Opcode.SW)
        assert (store.sources, store.dest) == ((1, 2), None)
        cleared = dataclasses.replace(inst, rd=0, rs1=0)
        assert (cleared.sources, cleared.dest) == ((2,), None)
        immediate = dataclasses.replace(inst, op=Opcode.ADDI, rs2=0)
        assert (immediate.sources, immediate.dest) == ((1,), 3)


class TestOpInfo:
    def test_latencies_match_r10000_model(self):
        assert info(Opcode.ADD).latency == 1
        assert info(Opcode.MUL).latency == 3
        assert info(Opcode.DIV).latency == 20
        assert info(Opcode.LW).latency == 2

    def test_every_opcode_has_info(self):
        for op in Opcode:
            assert info(op) is not None

    def test_kind_partitions(self):
        assert info(Opcode.JAL).kind is Kind.CALL
        assert info(Opcode.JR).kind is Kind.JUMP_INDIRECT
        assert info(Opcode.LW).kind is Kind.LOAD
        assert info(Opcode.HALT).kind is Kind.HALT

    def test_with_fields_rewrite(self):
        inst = Instruction(Opcode.ADD, rd=3, rs1=1, rs2=2)
        fused = inst.with_fields(op=Opcode.SADD, sh1=2)
        assert fused.op is Opcode.SADD
        assert fused.sh1 == 2
        assert inst.op is Opcode.ADD  # original untouched
