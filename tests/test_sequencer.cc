/**
 * @file
 * Unit tests for the Sequencer execution engine, run against a minimal
 * test environment (no kernel, no MISP processor).
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "cpu/sequencer.hh"
#include "isa/assembler.hh"
#include "isa/program.hh"
#include "mem/address_space.hh"
#include "sim/event_queue.hh"

using namespace misp;
using namespace misp::cpu;

namespace {

/** Environment that services page faults synchronously and records
 *  everything else. */
class TestEnv : public SequencerEnv
{
  public:
    explicit TestEnv(mem::AddressSpace &as) : as_(as) {}

    FaultAction
    handleFault(Sequencer &seq, const mem::Fault &fault,
                Cycles *extraCycles) override
    {
        (void)seq;
        lastFault = fault;
        ++faults;
        *extraCycles = 0;
        if (fault.kind == mem::FaultKind::PageFault) {
            if (as_.handleFault(fault.addr, fault.write) ==
                mem::FaultOutcome::Paged) {
                *extraCycles = 100;
                return FaultAction::Retry;
            }
            return FaultAction::Kill;
        }
        if (fault.kind == mem::FaultKind::Syscall) {
            syscalls.push_back(fault.code);
            seq.context().regs[0] = 0x5Ca11;
            return FaultAction::Continue;
        }
        return FaultAction::Kill;
    }

    Cycles
    handleRtCall(Sequencer &seq, Word service) override
    {
        (void)seq;
        rtcalls.push_back(service);
        return 5;
    }

    void
    signalInstruction(Sequencer &seq, SequencerId sid,
                      const SignalPayload &payload) override
    {
        (void)seq;
        signals.emplace_back(sid, payload);
    }

    void sequencerHalted(Sequencer &seq) override { (void)seq; ++halts; }

    unsigned numSequencers() const override { return 4; }

    mem::AddressSpace &as_;
    mem::Fault lastFault;
    int faults = 0;
    int halts = 0;
    std::vector<Word> syscalls;
    std::vector<Word> rtcalls;
    std::vector<std::pair<SequencerId, SignalPayload>> signals;
};

class SequencerTest : public ::testing::Test
{
  protected:
    SequencerTest()
        : pmem(1 << 14), root(""), as("p", pmem), env(as),
          seq("seq0", 0, true, eq, pmem, &root)
    {
        seq.setEnv(&env);
        seq.mmu().setAddressSpace(&as);
        as.defineRegion(0x10'0000, 16 * mem::kPageSize, true, "stack");
    }

    /** Load a program at 0x40'0000 and return its entry. */
    VAddr
    loadAsm(const std::string &src)
    {
        isa::Program prog = isa::assemble(src, 0x40'0000);
        as.defineRegion(prog.base, prog.byteSize() + 64, false, "code",
                        prog.bytes());
        return prog.base;
    }

    void
    runToCompletion(VAddr entry)
    {
        seq.startAt(entry, 0x10'0000 + 16 * mem::kPageSize - 64);
        eq.run();
    }

    Word reg(unsigned r) { return seq.context().regs[r]; }

    EventQueue eq;
    mem::PhysicalMemory pmem;
    stats::StatGroup root;
    mem::AddressSpace as;
    TestEnv env;
    Sequencer seq;
};

} // namespace

TEST_F(SequencerTest, ArithmeticAndFlags)
{
    VAddr entry = loadAsm(R"(
        movi r1, 6
        movi r2, 7
        mul  r3, r1, r2
        subi r4, r3, 2
        divi r5, r4, 10
        rem  r6, r4, r1
        halt
    )");
    runToCompletion(entry);
    EXPECT_EQ(reg(3), 42u);
    EXPECT_EQ(reg(4), 40u);
    EXPECT_EQ(reg(5), 4u);
    EXPECT_EQ(reg(6), 40u % 6u);
    EXPECT_EQ(seq.state(), SeqState::Halted);
    EXPECT_EQ(env.halts, 1);
}

TEST_F(SequencerTest, LoopsAndBranches)
{
    // sum 1..10
    VAddr entry = loadAsm(R"(
        movi r1, 0
        movi r2, 1
        loop:
            add r1, r1, r2
            addi r2, r2, 1
            cmpi r2, 10
            jcc.le loop
        halt
    )");
    runToCompletion(entry);
    EXPECT_EQ(reg(1), 55u);
}

TEST_F(SequencerTest, SignedComparisons)
{
    VAddr entry = loadAsm(R"(
        movi r1, -5
        movi r2, 3
        movi r3, 0
        cmp r1, r2
        jcc.lt neg
        movi r3, 111
        halt
        neg:
        movi r3, 222
        halt
    )");
    runToCompletion(entry);
    EXPECT_EQ(reg(3), 222u);
}

TEST_F(SequencerTest, UnsignedComparisons)
{
    VAddr entry = loadAsm(R"(
        movi r1, -1      ; 0xFFFF... = huge unsigned
        movi r2, 3
        movi r3, 0
        cmp r1, r2
        jcc.uge big
        halt
        big:
        movi r3, 1
        halt
    )");
    runToCompletion(entry);
    EXPECT_EQ(reg(3), 1u);
}

TEST_F(SequencerTest, MemoryAndStack)
{
    VAddr entry = loadAsm(R"(
        movi r1, 0x100040
        movi r2, 0xBEEF
        st8 [r1], r2
        ld8 r3, [r1]
        push r3
        pop r4
        halt
    )");
    runToCompletion(entry);
    EXPECT_EQ(reg(3), 0xBEEFu);
    EXPECT_EQ(reg(4), 0xBEEFu);
    // Demand paging produced at least one fault on the data page.
    EXPECT_GE(env.faults, 1);
}

TEST_F(SequencerTest, CallAndRet)
{
    VAddr entry = loadAsm(R"(
        main:
            movi r1, 5
            call double_it
            halt
        double_it:
            add r1, r1, r1
            ret
    )");
    runToCompletion(entry);
    EXPECT_EQ(reg(1), 10u);
}

TEST_F(SequencerTest, AtomicsBehave)
{
    VAddr entry = loadAsm(R"(
        movi r1, 0x100080
        movi r2, 10
        st8 [r1], r2
        movi r3, 5
        fetchadd r4, [r1], r3     ; r4=10, mem=15
        ld8 r5, [r1]
        movi r6, 15
        movi r7, 99
        cmpxchg r6, [r1], r7      ; succeeds: mem=99, zf=1
        ld8 r8, [r1]
        movi r9, 123
        xchg r9, [r1]             ; r9=99, mem=123
        ld8 r10, [r1]
        halt
    )");
    runToCompletion(entry);
    EXPECT_EQ(reg(4), 10u);
    EXPECT_EQ(reg(5), 15u);
    EXPECT_EQ(reg(8), 99u);
    EXPECT_EQ(reg(9), 99u);
    EXPECT_EQ(reg(10), 123u);
}

TEST_F(SequencerTest, CmpXchgFailurePath)
{
    VAddr entry = loadAsm(R"(
        movi r1, 0x100080
        movi r2, 7
        st8 [r1], r2
        movi r3, 999     ; wrong expected value
        movi r4, 111
        cmpxchg r3, [r1], r4
        ld8 r5, [r1]
        halt
    )");
    runToCompletion(entry);
    EXPECT_EQ(reg(3), 7u); // loaded actual value
    EXPECT_EQ(reg(5), 7u); // memory unchanged
}

TEST_F(SequencerTest, DivideByZeroFaults)
{
    VAddr entry = loadAsm(R"(
        movi r1, 5
        movi r2, 0
        div r3, r1, r2
        halt
    )");
    runToCompletion(entry);
    EXPECT_EQ(env.lastFault.kind, mem::FaultKind::DivideError);
    EXPECT_EQ(seq.state(), SeqState::Halted); // TestEnv kills
}

TEST_F(SequencerTest, SyscallTrapsWithNumberAndContinues)
{
    VAddr entry = loadAsm(R"(
        syscall 42
        movi r2, 1
        halt
    )");
    runToCompletion(entry);
    ASSERT_EQ(env.syscalls.size(), 1u);
    EXPECT_EQ(env.syscalls[0], 42u);
    EXPECT_EQ(reg(0), 0x5Ca11u); // return value patched by env
    EXPECT_EQ(reg(2), 1u);       // execution continued
}

TEST_F(SequencerTest, RtCallDispatchesToEnv)
{
    VAddr entry = loadAsm(R"(
        rtcall 7
        rtcall 9
        halt
    )");
    runToCompletion(entry);
    EXPECT_EQ(env.rtcalls, (std::vector<Word>{7, 9}));
}

TEST_F(SequencerTest, SignalInstructionReachesEnv)
{
    VAddr entry = loadAsm(R"(
        movi r1, 2         ; sid
        movi r2, 0x5000    ; eip
        movi r3, 0x6000    ; esp
        signal r1, r2, r3
        halt
    )");
    runToCompletion(entry);
    ASSERT_EQ(env.signals.size(), 1u);
    EXPECT_EQ(env.signals[0].first, 2u);
    EXPECT_EQ(env.signals[0].second.eip, 0x5000u);
    EXPECT_EQ(env.signals[0].second.esp, 0x6000u);
}

TEST_F(SequencerTest, SeqIdAndNumSeq)
{
    VAddr entry = loadAsm(R"(
        seqid r1
        numseq r2
        halt
    )");
    runToCompletion(entry);
    EXPECT_EQ(reg(1), 0u);
    EXPECT_EQ(reg(2), 4u);
}

TEST_F(SequencerTest, ComputeBurnsCycles)
{
    VAddr entry = loadAsm(R"(
        rdtick r1
        compute 10000
        rdtick r2
        halt
    )");
    runToCompletion(entry);
    EXPECT_GE(reg(2) - reg(1), 10000u);
}

TEST_F(SequencerTest, YieldConditionalRoundTrip)
{
    // Register an ingress handler, then receive a signal mid-execution:
    // the handler must observe the payload and YRET back.
    VAddr entry = loadAsm(R"(
        main:
            semonitor ingress, handler
            movi r1, 0
        spin:
            addi r1, r1, 1
            cmpi r1, 2000
            jcc.lt spin
            halt
        handler:
            mov r5, r11      ; payload arg
            mov r6, r12      ; payload eip
            movi r7, 777
            yret
    )");
    seq.startAt(entry, 0x10'0000 + 16 * mem::kPageSize - 64);
    // Deliver a signal while the spin loop runs.
    eq.scheduleLambda(500, "sig", [this] {
        SignalPayload p;
        p.eip = 0xAAAA;
        p.esp = 0xBBBB;
        p.arg = 9;
        seq.deliverSignal(p);
    });
    eq.run();
    EXPECT_EQ(reg(5), 9u);
    EXPECT_EQ(reg(6), 0xAAAAu);
    EXPECT_EQ(reg(7), 777u);
    EXPECT_EQ(reg(1), 2000u); // spin loop still completed
}

TEST_F(SequencerTest, BankedRegistersRestoredAfterHandler)
{
    VAddr entry = loadAsm(R"(
        main:
            semonitor ingress, handler
            movi r10, 1010
            movi r11, 1111
            movi r12, 1212
            movi r13, 1313
            movi r1, 0
        spin:
            addi r1, r1, 1
            cmpi r1, 2000
            jcc.lt spin
            halt
        handler:
            yret
    )");
    seq.startAt(entry, 0x10'0000 + 16 * mem::kPageSize - 64);
    eq.scheduleLambda(700, "sig", [this] {
        SignalPayload p;
        seq.deliverSignal(p);
    });
    eq.run();
    // The fly-weight transfer must be transparent to the interrupted
    // stream's payload registers.
    EXPECT_EQ(reg(10), 1010u);
    EXPECT_EQ(reg(11), 1111u);
    EXPECT_EQ(reg(12), 1212u);
    EXPECT_EQ(reg(13), 1313u);
}

TEST_F(SequencerTest, SignalToIdleSequencerStartsContinuation)
{
    VAddr entry = loadAsm(R"(
        worker:
            mov r5, r2    ; arg
            halt
    )");
    SignalPayload p;
    p.eip = entry;
    p.esp = 0x10'0000 + 16 * mem::kPageSize - 64;
    p.arg = 31337;
    EXPECT_TRUE(seq.idle());
    seq.deliverSignal(p);
    eq.run();
    EXPECT_EQ(reg(5), 31337u);
    EXPECT_EQ(seq.state(), SeqState::Halted);
}

TEST_F(SequencerTest, SignalWithoutTriggerQueues)
{
    VAddr entry = loadAsm(R"(
        movi r1, 0
        spin:
            addi r1, r1, 1
            cmpi r1, 100
            jcc.lt spin
        halt
    )");
    seq.startAt(entry, 0x10'0000 + 16 * mem::kPageSize - 64);
    eq.scheduleLambda(50, "sig", [this] {
        SignalPayload p;
        seq.deliverSignal(p);
    });
    eq.run();
    // No IngressSignal trigger registered: the payload stays queued.
    EXPECT_EQ(seq.pendingSignals(), 1u);
}

TEST_F(SequencerTest, SuspendResumeAccountsTime)
{
    VAddr entry = loadAsm(R"(
        movi r1, 0
        spin:
            addi r1, r1, 1
            cmpi r1, 100000
            jcc.lt spin
        halt
    )");
    seq.startAt(entry, 0x10'0000 + 16 * mem::kPageSize - 64);
    eq.scheduleLambda(1000, "suspend", [this] { seq.suspend(); });
    eq.scheduleLambda(6000, "resume", [this] {
        EXPECT_EQ(seq.state(), SeqState::Suspended);
        seq.resume();
    });
    eq.run();
    EXPECT_EQ(seq.state(), SeqState::Halted);
    EXPECT_GT(seq.suspendedCycles(), 3000u);
    EXPECT_LT(seq.suspendedCycles(), 6000u);
}

TEST_F(SequencerTest, SuspendResumeWithinSliceCancels)
{
    VAddr entry = loadAsm(R"(
        movi r1, 0
        spin:
            addi r1, r1, 1
            cmpi r1, 50000
            jcc.lt spin
        halt
    )");
    seq.startAt(entry, 0x10'0000 + 16 * mem::kPageSize - 64);
    eq.scheduleLambda(1000, "s", [this] {
        seq.suspend();
        seq.resume(); // before the slice boundary
    });
    eq.run();
    EXPECT_EQ(seq.state(), SeqState::Halted);
    EXPECT_EQ(reg(1), 50000u);
}

TEST_F(SequencerTest, YretOutsideHandlerIsFault)
{
    VAddr entry = loadAsm(R"(
        yret
        halt
    )");
    runToCompletion(entry);
    EXPECT_EQ(env.lastFault.kind, mem::FaultKind::GeneralProtection);
}

TEST_F(SequencerTest, ParkAndRestartFromContext)
{
    VAddr entry = loadAsm(R"(
        movi r1, 1
        halt
    )");
    SequencerContext ctx;
    ctx.eip = entry;
    ctx.sp() = 0x10'0000 + 16 * mem::kPageSize - 64;
    seq.restartFromContext(ctx);
    eq.run();
    EXPECT_EQ(reg(1), 1u);
}

TEST_F(SequencerTest, InstructionCountsTracked)
{
    VAddr entry = loadAsm(R"(
        movi r1, 1
        movi r2, 2
        add r3, r1, r2
        halt
    )");
    runToCompletion(entry);
    EXPECT_EQ(seq.instsRetired(), 4u);
    EXPECT_GT(seq.busyCycles(), 0u);
}

// ---------------------------------------------------------------------
// Both engines: literal ALU semantics, malformed encodings
// ---------------------------------------------------------------------

namespace {

/** A one-sequencer machine running @p prog under @p engine, with the
 *  recording TestEnv. */
struct EngineRig {
    EventQueue eq;
    mem::PhysicalMemory pmem{1 << 14};
    stats::StatGroup root{""};
    mem::AddressSpace as{"p", pmem};
    TestEnv env{as};
    Sequencer seq{"seq0", 0, true, eq, pmem, &root};

    EngineRig(Engine engine, const isa::Program &prog)
    {
        seq.setEnv(&env);
        seq.setEngine(engine);
        seq.mmu().setAddressSpace(&as);
        as.defineRegion(0x10'0000, 16 * mem::kPageSize, true, "stack");
        as.defineRegion(prog.base, prog.byteSize() + 64, false, "code",
                        prog.bytes());
        // Resident code: no demand fault splits the run into slices, so
        // RDTICK reads the start tick.
        EXPECT_EQ(as.handleFault(prog.base, false), mem::FaultOutcome::Paged);
    }

    void
    run(VAddr entry)
    {
        seq.startAt(entry, 0x10'0000 + 16 * mem::kPageSize - 64);
        eq.run();
    }
};

constexpr Engine kEngines[] = {Engine::Reference, Engine::Superblock};

constexpr Word kUntouched = 0xDEAD;
constexpr isa::Flags kPreset{true, false, true, false}; // zf, cf set
constexpr Tick kClock = 12345;

Word
sw(std::int64_t v)
{
    return static_cast<Word>(v);
}

/** One instruction with hand-computed results: r5 after it runs, the
 *  flags, and its execution cycles (base latency + COMPUTE burst). */
struct AluCase {
    const char *text;
    Word r3;
    Word r4;
    Word r5;
    isa::Flags flags;
    Cycles cycles;
};

struct AluRun {
    Word r5;
    isa::Flags flags;
    Tick busy;
    std::uint64_t retired;
};

/** Run `text; halt` with r3/r4 preset, r5 = kUntouched, flags =
 *  kPreset, and the clock at kClock. */
AluRun
runAlu(Engine engine, const std::string &text, Word r3, Word r4)
{
    const isa::Program prog =
        isa::assemble("main:\n    " + text + "\n    halt\n", 0x40'0000);
    EngineRig rig(engine, prog);
    rig.eq.setClock(kClock, 0, 0);
    SequencerContext &ctx = rig.seq.context();
    ctx.regs[3] = r3;
    ctx.regs[4] = r4;
    ctx.regs[5] = kUntouched;
    ctx.flags = kPreset;
    rig.run(prog.base);
    EXPECT_EQ(rig.env.halts, 1) << text; // ran to its HALT
    return {ctx.regs[5], ctx.flags, rig.seq.busyCycles(),
            rig.seq.instsRetired()};
}

} // namespace

// Every Inline-class opcode plus div/rem/divi, pinned to literal
// values under both engines. The engines share one definition of these
// ops, so the differential fuzzer cannot catch a wrong result; this
// table can.
TEST(SequencerAluSemantics, LiteralResultsUnderBothEngines)
{
    using F = isa::Flags;
    const Word kMin = 0x8000'0000'0000'0000ull;
    const Word kMax = 0x7FFF'FFFF'FFFF'FFFFull;
    const AluCase kCases[] = {
        {"nop", 1, 2, kUntouched, kPreset, 1},
        {"pause", 1, 2, kUntouched, kPreset, 10},
        {"movi r5, -5", 0, 0, sw(-5), kPreset, 1},
        {"mov r5, r3", 0x1234, 0, 0x1234, kPreset, 1},
        {"add r5, r3, r4", ~0ull, 2, 1, kPreset, 1},
        {"sub r5, r3, r4", 1, 2, ~0ull, kPreset, 1},
        {"mul r5, r3, r4", kMin + 1, 3, kMin + 3, kPreset, 3},
        {"div r5, r3, r4", sw(-7), 2, sw(-3), kPreset, 20},
        {"rem r5, r3, r4", sw(-7), 2, sw(-1), kPreset, 20},
        {"rem r5, r3, r4", 7, sw(-2), 1, kPreset, 20},
        {"and r5, r3, r4", 0xF0F0, 0xFF00, 0xF000, kPreset, 1},
        {"or r5, r3, r4", 0xF0F0, 0xFF00, 0xFFF0, kPreset, 1},
        {"xor r5, r3, r4", 0xF0F0, 0xFF00, 0x0FF0, kPreset, 1},
        {"shl r5, r3, r4", 1, 65, 2, kPreset, 1},
        {"shl r5, r3, r4", 3, 63, kMin, kPreset, 1},
        {"shr r5, r3, r4", kMin, 64, kMin, kPreset, 1},
        {"shr r5, r3, r4", kMin, 63, 1, kPreset, 1},
        {"sar r5, r3, r4", sw(-16), 2, sw(-4), kPreset, 1},
        {"sar r5, r3, r4", kMin, 127, ~0ull, kPreset, 1},
        {"addi r5, r3, -6", 5, 0, sw(-1), kPreset, 1},
        {"subi r5, r3, 6", 5, 0, sw(-1), kPreset, 1},
        {"muli r5, r3, 7", sw(-3), 0, sw(-21), kPreset, 3},
        {"divi r5, r3, -2", 7, 0, sw(-3), kPreset, 20},
        {"divi r5, r3, 2", sw(-7), 0, sw(-3), kPreset, 20},
        {"andi r5, r3, 0x0f", 0xFF, 0, 0x0F, kPreset, 1},
        {"ori r5, r3, 0x0f", 0xF0, 0, 0xFF, kPreset, 1},
        {"xori r5, r3, 0x0f", 0xFF, 0, 0xF0, kPreset, 1},
        {"shli r5, r3, 66", 3, 0, 12, kPreset, 1},
        {"shri r5, r3, 4", 0x100, 0, 0x10, kPreset, 1},
        {"shri r5, r3, 64", 0x100, 0, 0x100, kPreset, 1},
        // Flags: zf, sf (sign of the wrapped difference), cf (unsigned
        // borrow), of (signed overflow).
        {"cmp r3, r4", 1, 2, kUntouched, F{false, true, true, false}, 1},
        {"cmp r3, r4", 5, 5, kUntouched, F{true, false, false, false}, 1},
        {"cmp r3, r4", kMin, 1, kUntouched, F{false, false, false, true},
         1},
        {"cmp r3, r4", 1, ~0ull, kUntouched, F{false, false, true, false},
         1},
        {"cmp r3, r4", kMax, ~0ull, kUntouched, F{false, true, true, true},
         1},
        {"cmpi r3, -1", ~0ull, 0, kUntouched, F{true, false, false, false},
         1},
        {"lea r5, [r3-16]", 0x1000, 0, 0xFF0, kPreset, 1},
        {"compute 100", 5, 0, kUntouched, kPreset, 101},
        {"compute 100, r3", 5, 0, kUntouched, kPreset, 106},
        {"seqid r5", 0, 0, 0, kPreset, 1},
        {"numseq r5", 0, 0, 4, kPreset, 1},
        {"rdtick r5", 0, 0, kClock, kPreset, 1},
    };

    // The table covers every Inline-class opcode and the divides.
    std::vector<bool> covered(
        static_cast<std::size_t>(isa::Opcode::NumOpcodes), false);
    for (const AluCase &c : kCases)
        covered[static_cast<std::size_t>(
            isa::assemble(std::string(c.text) + "\n", 0).insts[0].op)] =
            true;
    for (unsigned op = 0; op < covered.size(); ++op) {
        const auto o = static_cast<isa::Opcode>(op);
        if (isa::opClass(o) == isa::OpClass::Inline ||
            o == isa::Opcode::Div || o == isa::Opcode::Rem ||
            o == isa::Opcode::DivI) {
            EXPECT_TRUE(covered[op]) << isa::opcodeName(o);
        }
    }

    for (Engine engine : kEngines) {
        // Fetch costs are identical for every one-instruction program,
        // so an op's execution cycles are its busy time over nop's
        // plus nop's one cycle.
        const Tick nopBusy = runAlu(engine, "nop", 0, 0).busy;
        for (const AluCase &c : kCases) {
            const AluRun got = runAlu(engine, c.text, c.r3, c.r4);
            const std::string where =
                std::string(c.text) + " under " + engineName(engine);
            EXPECT_EQ(got.r5, c.r5) << where;
            EXPECT_EQ(got.flags, c.flags) << where;
            EXPECT_EQ(got.busy - nopBusy + 1, c.cycles) << where;
            EXPECT_EQ(got.retired, 2u) << where;
        }
    }
}

// A `sub` field out of range for the opcode's format is a malformed
// encoding: both engines raise InvalidOpcode at it (the host neither
// aborts on an unservable memory size nor indexes past the trigger
// table).
TEST(SequencerDecode, MalformedSubFaultsInvalidOpcodeUnderBothEngines)
{
    using isa::Instruction;
    using isa::Opcode;
    const Instruction kBad[] = {
        {Opcode::Ld, 3, 4, 0, 0, 0},
        {Opcode::Ld, 3, 4, 0, 3, 0},
        {Opcode::Ld, 3, 4, 0, 16, 0},
        {Opcode::St, 0, 4, 3, 3, 0},
        {Opcode::Jcc, 0, 0, 0, 8, 0x40'0000},
        {Opcode::Semonitor, 0, 0, 0, 2, 0xdead0},
    };
    for (const Instruction &bad : kBad) {
        isa::ProgramBuilder b;
        b.exportHere("main");
        b.movi(4, 0x10'0000);
        b.raw(bad);
        b.halt();
        const isa::Program prog = b.finish(0x40'0000);
        const VAddr badEip = prog.base + isa::kInstBytes;

        Tick ticks[2] = {0, 0};
        for (unsigned e = 0; e < 2; ++e) {
            EngineRig rig(kEngines[e], prog);
            rig.run(prog.base);
            const std::string where = isa::disassemble(bad) + " under " +
                                      engineName(kEngines[e]);
            // Killed at the bad word (TestEnv kills on InvalidOpcode),
            // never reaching its HALT.
            EXPECT_EQ(rig.env.halts, 0) << where;
            EXPECT_EQ(rig.env.lastFault.kind, mem::FaultKind::InvalidOpcode)
                << where;
            EXPECT_EQ(rig.env.lastFault.code, badEip) << where;
            EXPECT_EQ(rig.seq.state(), SeqState::Halted) << where;
            EXPECT_EQ(rig.seq.instsRetired(), 1u) << where;
            const SequencerContext &ctx = rig.seq.context();
            EXPECT_EQ(ctx.savedEip, 0u) << where;
            EXPECT_EQ(ctx.trigger(isa::Scenario::IngressSignal), 0u);
            EXPECT_EQ(ctx.trigger(isa::Scenario::ProxyRequest), 0u);
            ticks[e] = rig.eq.curTick();
        }
        EXPECT_EQ(ticks[0], ticks[1]) << isa::disassemble(bad);
    }
}
