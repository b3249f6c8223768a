/**
 * @file
 * Unit and property tests for the MISA instruction set: encoding,
 * decoding, latencies, the program builder and the assembler.
 */

#include <gtest/gtest.h>

#include <iterator>
#include <set>

#include "isa/assembler.hh"
#include "isa/isa.hh"
#include "isa/program.hh"
#include "sim/random.hh"

using namespace misp;
using namespace misp::isa;

namespace {

/** A random well-formed @p op instruction: any registers and
 *  immediate, and a `sub` legal for the opcode's format. */
Instruction
randomInstruction(Rng &rng, Opcode op)
{
    Instruction inst;
    inst.op = op;
    inst.rd = static_cast<std::uint8_t>(rng.below(kNumRegs));
    inst.rs1 = static_cast<std::uint8_t>(rng.below(kNumRegs));
    inst.rs2 = static_cast<std::uint8_t>(rng.below(kNumRegs));
    inst.imm = rng.next();
    switch (opInfo(inst.op).format) {
      case Format::Load:
      case Format::Store:
        inst.sub = static_cast<std::uint8_t>(1u << rng.below(4));
        break;
      case Format::CondTarget:
        inst.sub = static_cast<std::uint8_t>(
            rng.below(static_cast<std::uint64_t>(Cond::NumConds)));
        break;
      case Format::Monitor:
        inst.sub = static_cast<std::uint8_t>(
            rng.below(static_cast<std::uint64_t>(Scenario::NumScenarios)));
        break;
      default:
        inst.sub = static_cast<std::uint8_t>(rng.below(256));
        break;
    }
    return inst;
}

/** @p inst with every field its format does not name cleared: the
 *  instruction the assembler produces from its disassembly. */
Instruction
canonical(Instruction inst)
{
    bool rd = false, rs1 = false, rs2 = false, sub = false, imm = false;
    switch (opInfo(inst.op).format) {
      case Format::None: break;
      case Format::Rd: rd = true; break;
      case Format::Rs: rs1 = true; break;
      case Format::RdRs: rd = rs1 = true; break;
      case Format::RdRsRs: rd = rs1 = rs2 = true; break;
      case Format::RdRsImm: rd = rs1 = imm = true; break;
      case Format::RdImm: rd = imm = true; break;
      case Format::RsRs: rs1 = rs2 = true; break;
      case Format::RsImm: rs1 = imm = true; break;
      case Format::Load: rd = rs1 = imm = sub = true; break;
      case Format::Store: rs1 = rs2 = imm = sub = true; break;
      case Format::RdMem: rd = rs1 = imm = true; break;
      case Format::RdAt: rd = rs1 = true; break;
      case Format::RdAtRs: rd = rs1 = rs2 = true; break;
      case Format::Target: imm = true; break;
      case Format::CondTarget: sub = imm = true; break;
      case Format::Imm: imm = true; break;
      case Format::ImmRs: imm = rs1 = true; break;
      case Format::Signal: rd = rs1 = rs2 = true; break;
      case Format::Monitor: sub = imm = true; break;
    }
    if (!rd) inst.rd = 0;
    if (!rs1) inst.rs1 = 0;
    if (!rs2) inst.rs2 = 0;
    if (!sub) inst.sub = 0;
    if (!imm) inst.imm = 0;
    return inst;
}

} // namespace

// ---------------------------------------------------------------------
// Encode/decode
// ---------------------------------------------------------------------

TEST(IsaEncoding, RoundTripProperty)
{
    // Property: decode(encode(i)) == i for every well-formed instruction.
    Rng rng(2024);
    for (int trial = 0; trial < 2000; ++trial) {
        const Instruction inst = randomInstruction(
            rng, static_cast<Opcode>(rng.below(
                     static_cast<std::uint64_t>(Opcode::NumOpcodes))));
        auto bytes = encode(inst);
        Instruction out;
        ASSERT_TRUE(decode(bytes.data(), &out));
        EXPECT_EQ(inst, out);
    }
}

TEST(IsaEncoding, RejectsBadOpcode)
{
    std::uint8_t bytes[kInstBytes] = {};
    bytes[0] = 0xFF;
    Instruction out;
    EXPECT_FALSE(decode(bytes, &out));
}

TEST(IsaEncoding, RejectsBadRegister)
{
    Instruction inst;
    inst.op = Opcode::Mov;
    inst.rd = 3;
    auto bytes = encode(inst);
    bytes[2] = 99; // rs1 out of range
    Instruction out;
    EXPECT_FALSE(decode(bytes.data(), &out));
}

// Malformed `sub` fields: decode rejects them (the sequencer then
// raises InvalidOpcode) instead of handing the executor a memory size
// the MMU cannot serve, a condition no flag test matches, or a trigger
// index past the end of the trigger table.
TEST(IsaEncoding, RejectsSubOutOfRangeForFormat)
{
    auto decodes = [](Opcode op, std::uint8_t sub) {
        Instruction inst{op, 1, 2, 3, sub, 0x1000};
        auto bytes = encode(inst);
        Instruction out;
        return decode(bytes.data(), &out);
    };
    for (Opcode op : {Opcode::Ld, Opcode::St}) {
        for (unsigned size = 0; size < 256; ++size) {
            const bool legal =
                size == 1 || size == 2 || size == 4 || size == 8;
            EXPECT_EQ(decodes(op, std::uint8_t(size)), legal)
                << opcodeName(op) << " size " << size;
        }
    }
    for (unsigned cond = 0; cond < 256; ++cond)
        EXPECT_EQ(decodes(Opcode::Jcc, std::uint8_t(cond)), cond < 8)
            << "cond " << cond;
    for (unsigned sc = 0; sc < 256; ++sc)
        EXPECT_EQ(decodes(Opcode::Semonitor, std::uint8_t(sc)), sc < 2)
            << "scenario " << sc;
    // Other formats do not read `sub`.
    EXPECT_TRUE(decodes(Opcode::Add, 0xFF));
}

TEST(IsaLatency, EveryOpcodeHasNonzeroLatency)
{
    for (unsigned op = 0;
         op < static_cast<unsigned>(Opcode::NumOpcodes); ++op) {
        EXPECT_GE(baseLatency(static_cast<Opcode>(op)), 1u)
            << opcodeName(static_cast<Opcode>(op));
    }
}

TEST(IsaLatency, RelativeCostsSane)
{
    EXPECT_LT(baseLatency(Opcode::Add), baseLatency(Opcode::Mul));
    EXPECT_LT(baseLatency(Opcode::Mul), baseLatency(Opcode::Div));
    EXPECT_GT(baseLatency(Opcode::CmpXchg), baseLatency(Opcode::Ld));
}

// Every table row's latency, pinned to the literal cost model (the
// simulated results of every scenario depend on these numbers).
TEST(IsaLatency, TableRowsPinned)
{
    const Cycles kExpected[] = {
        1,  1,  1,  1,              // nop halt movi mov
        1,  1,  3,  20, 20,         // add sub mul div rem
        1,  1,  1,  1,  1,  1,      // and or xor shl shr sar
        1,  1,  3,  20,             // addi subi muli divi
        1,  1,  1,  1,  1,          // andi ori xori shli shri
        1,  1,                      // cmp cmpi
        1,  1,  1,  1,  1,          // ld st push pop lea
        2,  2,  2,  3,  3,  3,      // jmp jmpr jcc call callr ret
        20, 20, 20, 10, 1,          // xchg cmpxchg fetchadd pause compute
        10, 5,                      // syscall rtcall
        1,  1,  1,                  // seqid numseq rdtick
        2,  2,  3,                  // signal semonitor yret
    };
    ASSERT_EQ(std::size(kExpected),
              static_cast<std::size_t>(Opcode::NumOpcodes));
    for (unsigned op = 0; op < std::size(kExpected); ++op)
        EXPECT_EQ(baseLatency(static_cast<Opcode>(op)), kExpected[op])
            << opcodeName(static_cast<Opcode>(op));
}

TEST(IsaNames, AllOpcodesNamed)
{
    for (unsigned op = 0;
         op < static_cast<unsigned>(Opcode::NumOpcodes); ++op) {
        EXPECT_STRNE(opcodeName(static_cast<Opcode>(op)), "???");
        for (unsigned other = 0; other < op; ++other)
            EXPECT_STRNE(opcodeName(static_cast<Opcode>(op)),
                         opcodeName(static_cast<Opcode>(other)));
    }
    EXPECT_STREQ(opcodeName(Opcode::NumOpcodes), "???");
}

// The superblock engine's handler ids: each Inline op, each Ld/St
// width and each Jcc condition has an id of its own, so do Jmp and
// JmpR, and every other op shares Generic.
TEST(IsaHandlers, IdsFollowTheTable)
{
    std::set<Handler> seen;
    auto own = [&](const Instruction &inst) {
        const Handler h = handlerOf(inst);
        EXPECT_NE(h, Handler::Generic) << disassemble(inst);
        EXPECT_TRUE(seen.insert(h).second) << disassemble(inst);
    };
    for (unsigned op = 0;
         op < static_cast<unsigned>(Opcode::NumOpcodes); ++op) {
        Instruction inst;
        inst.op = static_cast<Opcode>(op);
        if (inst.op == Opcode::Ld || inst.op == Opcode::St) {
            for (std::uint8_t width : {1, 2, 4, 8}) {
                inst.sub = width;
                own(inst);
            }
        } else if (inst.op == Opcode::Jcc) {
            for (unsigned c = 0;
                 c < static_cast<unsigned>(Cond::NumConds); ++c) {
                inst.sub = static_cast<std::uint8_t>(c);
                own(inst);
            }
        } else if (opClass(inst.op) == OpClass::Inline ||
                   inst.op == Opcode::Jmp || inst.op == Opcode::JmpR) {
            own(inst);
        } else {
            EXPECT_EQ(handlerOf(inst), Handler::Generic)
                << opcodeName(inst.op);
        }
    }
    // Every id but Generic is some instruction's.
    EXPECT_EQ(seen.size(), static_cast<std::size_t>(Handler::Generic));

    Instruction ld4{Opcode::Ld, 1, 2, 0, 4, 8};
    EXPECT_EQ(handlerOf(ld4), Handler::Ld4);
    Instruction st1{Opcode::St, 0, 2, 3, 1, 8};
    EXPECT_EQ(handlerOf(st1), Handler::St1);
    Instruction jult{Opcode::Jcc, 0, 0, 0,
                     static_cast<std::uint8_t>(Cond::Ult), 64};
    EXPECT_EQ(handlerOf(jult), Handler::JccUlt);
    Instruction addi{Opcode::AddI, 1, 1, 0, 0, 3};
    EXPECT_EQ(handlerOf(addi), Handler::AddI);
}

// Every table row round-trips through text: assembling the
// disassembly of an instruction gives back the instruction (with the
// fields its format does not use cleared).
TEST(IsaNames, DisassemblyAssemblesBack)
{
    Rng rng(77);
    for (unsigned op = 0;
         op < static_cast<unsigned>(Opcode::NumOpcodes); ++op) {
        for (int trial = 0; trial < 20; ++trial) {
            Instruction inst =
                randomInstruction(rng, static_cast<Opcode>(op));
            if (trial % 2 == 0) // small immediates too, both signs
                inst.imm = rng.next() % 512 - 256;
            const Instruction want = canonical(inst);
            const std::string text = disassemble(want);
            Program prog;
            ASSERT_NO_THROW(prog = assemble("main: " + text + "\n", 0))
                << text;
            ASSERT_EQ(prog.insts.size(), 1u) << text;
            EXPECT_EQ(prog.insts[0], want) << text << " -> "
                                           << disassemble(prog.insts[0]);
        }
    }
}

TEST(IsaDisasm, RendersRepresentativeForms)
{
    Instruction movi{Opcode::MovI, 3, 0, 0, 0, 42};
    EXPECT_EQ(disassemble(movi), "movi r3, 42");
    Instruction ld{Opcode::Ld, 2, 5, 0, 8, 16};
    EXPECT_EQ(disassemble(ld), "ld8 r2, [r5+16]");
    Instruction sig{Opcode::Signal, 3, 1, 2, 0, 0};
    EXPECT_EQ(disassemble(sig), "signal sid=r1, eip=r2, esp=r3");
    Instruction st{Opcode::St, 0, 4, 6, 2, static_cast<std::uint64_t>(-8)};
    EXPECT_EQ(disassemble(st), "st2 [r4-8], r6");
    Instruction jcc{Opcode::Jcc, 0, 0, 0, 5, 0x400010};
    EXPECT_EQ(disassemble(jcc), "jcc.ge 0x400010");
    Instruction comp{Opcode::Compute, 0, 7, 0, 0, 100};
    EXPECT_EQ(disassemble(comp), "compute 100, r7");
}

// ---------------------------------------------------------------------
// ProgramBuilder
// ---------------------------------------------------------------------

TEST(ProgramBuilder, ResolvesForwardLabels)
{
    ProgramBuilder b;
    auto target = b.newLabel();
    b.jmp(target);    // forward reference
    b.nop();
    b.bind(target);
    b.halt();
    Program prog = b.finish(0x1000);
    ASSERT_EQ(prog.insts.size(), 3u);
    EXPECT_EQ(prog.insts[0].op, Opcode::Jmp);
    EXPECT_EQ(prog.insts[0].imm, 0x1000u + 2 * kInstBytes);
}

TEST(ProgramBuilder, UnboundLabelIsError)
{
    ProgramBuilder b;
    auto missing = b.newLabel();
    b.jmp(missing);
    EXPECT_THROW(b.finish(0x1000), SimError);
}

TEST(ProgramBuilder, DoubleBindIsError)
{
    ProgramBuilder b;
    auto l = b.newLabel();
    b.bind(l);
    EXPECT_THROW(b.bind(l), SimError);
}

TEST(ProgramBuilder, ExportsSymbols)
{
    ProgramBuilder b;
    b.nop();
    b.exportHere("entry");
    b.halt();
    Program prog = b.finish(0x2000);
    EXPECT_EQ(prog.symbol("entry"), 0x2000u + kInstBytes);
    EXPECT_THROW(prog.symbol("missing"), SimError);
}

TEST(ProgramBuilder, LeaLabelLoadsAbsoluteAddress)
{
    ProgramBuilder b;
    auto fn = b.newLabel();
    b.leaLabel(4, fn);
    b.halt();
    b.bind(fn);
    b.ret();
    Program prog = b.finish(0x3000);
    EXPECT_EQ(prog.insts[0].op, Opcode::MovI);
    EXPECT_EQ(prog.insts[0].imm, 0x3000u + 2 * kInstBytes);
}

TEST(ProgramBuilder, BytesMatchEncodedInstructions)
{
    ProgramBuilder b;
    b.movi(1, 7);
    b.addi(2, 1, 3);
    Program prog = b.finish(0x1000);
    auto bytes = prog.bytes();
    ASSERT_EQ(bytes.size(), 2 * kInstBytes);
    Instruction out;
    ASSERT_TRUE(decode(bytes.data(), &out));
    EXPECT_EQ(out.op, Opcode::MovI);
    EXPECT_EQ(out.imm, 7u);
}

// ---------------------------------------------------------------------
// Assembler
// ---------------------------------------------------------------------

TEST(Assembler, AssemblesBasicProgram)
{
    Program prog = assemble(R"(
        ; a tiny program
        main:
            movi r1, 10
            movi r2, 0x20
            add  r3, r1, r2
            halt
    )",
                            0x1000);
    ASSERT_EQ(prog.insts.size(), 4u);
    EXPECT_EQ(prog.symbol("main"), 0x1000u);
    EXPECT_EQ(prog.insts[1].imm, 0x20u);
    EXPECT_EQ(prog.insts[2].op, Opcode::Add);
}

TEST(Assembler, MemoryOperandsAndSizes)
{
    Program prog = assemble(R"(
        ld8 r1, [r2+8]
        ld1 r3, [r4]
        st4 [r5-4], r6
    )",
                            0);
    EXPECT_EQ(prog.insts[0].sub, 8);
    EXPECT_EQ(prog.insts[0].imm, 8u);
    EXPECT_EQ(prog.insts[1].sub, 1);
    EXPECT_EQ(prog.insts[2].op, Opcode::St);
    EXPECT_EQ(static_cast<std::int64_t>(prog.insts[2].imm), -4);
}

TEST(Assembler, ForwardAndBackwardBranches)
{
    Program prog = assemble(R"(
        start:
            cmpi r1, 5
            jcc.ge end
            addi r1, r1, 1
            jmp start
        end:
            halt
    )",
                            0x4000);
    EXPECT_EQ(prog.insts[1].imm, 0x4000u + 4 * kInstBytes); // -> end
    EXPECT_EQ(prog.insts[3].imm, 0x4000u);                  // -> start
}

TEST(Assembler, MispExtensionInstructions)
{
    Program prog = assemble(R"(
        init:
            semonitor proxy, handler
            signal r1, r2, r3
            halt
        handler:
            yret
    )",
                            0);
    EXPECT_EQ(prog.insts[0].op, Opcode::Semonitor);
    EXPECT_EQ(prog.insts[0].sub,
              static_cast<std::uint8_t>(Scenario::ProxyRequest));
    EXPECT_EQ(prog.insts[0].imm, 3u * kInstBytes);
    EXPECT_EQ(prog.insts[1].op, Opcode::Signal);
    EXPECT_EQ(prog.insts[3].op, Opcode::Yret);
}

TEST(Assembler, AtomicsAndRuntimeCalls)
{
    Program prog = assemble(R"(
        fetchadd r1, [r2], r3
        cmpxchg r4, [r5], r6
        xchg r7, [r8]
        rtcall 7
        syscall 3
        compute 100
        pause
    )",
                            0);
    EXPECT_EQ(prog.insts[0].op, Opcode::FetchAdd);
    EXPECT_EQ(prog.insts[1].op, Opcode::CmpXchg);
    EXPECT_EQ(prog.insts[2].op, Opcode::Xchg);
    EXPECT_EQ(prog.insts[3].imm, 7u);
    EXPECT_EQ(prog.insts[4].imm, 3u);
    EXPECT_EQ(prog.insts[5].imm, 100u);
}

TEST(Assembler, SpAlias)
{
    Program prog = assemble("mov r1, sp\n", 0);
    EXPECT_EQ(prog.insts[0].rs1, kRegSp);
}

TEST(Assembler, ErrorsCarryLineNumbers)
{
    try {
        assemble("nop\nbogus r1\n", 0);
        FAIL() << "expected AsmError";
    } catch (const AsmError &e) {
        EXPECT_EQ(e.line(), 2u);
        EXPECT_NE(std::string(e.what()).find("bogus"), std::string::npos);
    }
}

TEST(Assembler, UnknownLabelReportsError)
{
    EXPECT_THROW(assemble("jmp nowhere\n", 0), AsmError);
}

TEST(Assembler, OperandCountValidation)
{
    EXPECT_THROW(assemble("add r1, r2\n", 0), AsmError);
    EXPECT_THROW(assemble("movi r1\n", 0), AsmError);
    EXPECT_THROW(assemble("halt r1\n", 0), AsmError);
}
