/**
 * @file
 * MISA: the micro instruction set architecture of the simulated machine.
 *
 * MISA is a compact 64-bit-register, 32-bit-address load/store ISA that
 * retains the IA-32 *system* semantics the MISP paper depends on (rings,
 * CR3 paging, faults) and adds the paper's MIMD extension:
 *
 *  - SIGNAL sid, eip, esp  — user-level inter-sequencer signal carrying a
 *    shred continuation <EIP, ESP> to the sequencer named by SID (§2.4).
 *  - SEMONITOR scenario, handler — YIELD-CONDITIONAL registration: map an
 *    ingress asynchronous scenario to a fly-weight handler (§2.4).
 *  - YRET — return from an asynchronous handler, resuming the interrupted
 *    shred at its saved EIP.
 *
 * Instructions are a fixed 16 bytes in guest memory: opcode, three
 * register fields, a condition/size subfield, and a 64-bit immediate.
 */

#ifndef MISP_ISA_ISA_HH
#define MISP_ISA_ISA_HH

#include <array>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <string>

#include "sim/types.hh"

namespace misp::isa {

/** Number of general-purpose registers. r15 doubles as the stack
 *  pointer (the paper's ESP). */
constexpr unsigned kNumRegs = 16;
constexpr unsigned kRegSp = 15;
/** Conventional argument/return registers of the MISA ABI. */
constexpr unsigned kRegRet = 0;
constexpr unsigned kRegArg0 = 0;
constexpr unsigned kRegArg1 = 1;
constexpr unsigned kRegArg2 = 2;
constexpr unsigned kRegArg3 = 3;

/** Fixed instruction width in guest memory. */
constexpr unsigned kInstBytes = 16;

/**
 * The opcode table: every MISA opcode, defined once. Each row is
 *
 *   X(Enum, "mnemonic", Format, OpClass, base latency in cycles)
 *
 * The enum, the mnemonics (assembler and disassembler), the operand
 * formats (assembler, disassembler, and the `sub` checks of decode),
 * the host dispatch classes (superblock termination), the base
 * latencies and the superblock engine's handler ids are all generated
 * from these rows. Adding an opcode is one row here plus its semantics
 * in the sequencer (execInline for an Inline-class op, executeDecoded
 * for the others).
 *
 * Keep the row order stable: encoded opcode bytes follow it.
 */
#define MISA_OPCODES(X)                                                   \
    X(Nop,       "nop",       None,       Inline, 1)                      \
    /* OMS: stop the thread; AMS: the sequencer goes idle */               \
    X(Halt,      "halt",      None,       Slow,   1)                      \
    /* Data movement: rd = imm; rd = rs1 */                                \
    X(MovI,      "movi",      RdImm,      Inline, 1)                      \
    X(Mov,       "mov",       RdRs,       Inline, 1)                      \
    /* ALU, register forms: rd = rs1 op rs2 (Div/Rem fault on 0) */        \
    X(Add,       "add",       RdRsRs,     Inline, 1)                      \
    X(Sub,       "sub",       RdRsRs,     Inline, 1)                      \
    X(Mul,       "mul",       RdRsRs,     Inline, 3)                      \
    X(Div,       "div",       RdRsRs,     Mem,    20)                     \
    X(Rem,       "rem",       RdRsRs,     Mem,    20)                     \
    X(And,       "and",       RdRsRs,     Inline, 1)                      \
    X(Or,        "or",        RdRsRs,     Inline, 1)                      \
    X(Xor,       "xor",       RdRsRs,     Inline, 1)                      \
    X(Shl,       "shl",       RdRsRs,     Inline, 1)                      \
    X(Shr,       "shr",       RdRsRs,     Inline, 1)                      \
    X(Sar,       "sar",       RdRsRs,     Inline, 1)                      \
    /* ALU, immediate forms: rd = rs1 op imm */                            \
    X(AddI,      "addi",      RdRsImm,    Inline, 1)                      \
    X(SubI,      "subi",      RdRsImm,    Inline, 1)                      \
    X(MulI,      "muli",      RdRsImm,    Inline, 3)                      \
    X(DivI,      "divi",      RdRsImm,    Mem,    20)                     \
    X(AndI,      "andi",      RdRsImm,    Inline, 1)                      \
    X(OrI,       "ori",       RdRsImm,    Inline, 1)                      \
    X(XorI,      "xori",      RdRsImm,    Inline, 1)                      \
    X(ShlI,      "shli",      RdRsImm,    Inline, 1)                      \
    X(ShrI,      "shri",      RdRsImm,    Inline, 1)                      \
    /* Flags = signed compare(rs1, rs2 | imm) */                           \
    X(Cmp,       "cmp",       RsRs,       Inline, 1)                      \
    X(CmpI,      "cmpi",      RsImm,      Inline, 1)                      \
    /* Memory (the MMU adds the access cycles): rd = mem[rs1 + imm];     \
     * mem[rs1 + imm] = rs2; push rs1; pop rd; rd = rs1 + imm */          \
    X(Ld,        "ld",        Load,       Mem,    1)                      \
    X(St,        "st",        Store,      Mem,    1)                      \
    X(Push,      "push",      Rs,         Mem,    1)                      \
    X(Pop,       "pop",       Rd,         Mem,    1)                      \
    X(Lea,       "lea",       RdMem,      Inline, 1)                      \
    /* Control: absolute targets in imm (or rs1); taken-branch redirect */ \
    X(Jmp,       "jmp",       Target,     Branch, 2)                      \
    X(JmpR,      "jmpr",      Rs,         Branch, 2)                      \
    X(Jcc,       "jcc",       CondTarget, Branch, 2)                      \
    X(Call,      "call",      Target,     Slow,   3)                      \
    X(CallR,     "callr",     Rs,         Slow,   3)                      \
    X(Ret,       "ret",       None,       Slow,   3)                      \
    /* LOCK-prefixed RMW on the coherence fabric: rd <-> mem[rs1];       \
     * if mem[rs1] == rd: mem[rs1] = rs2, ZF = 1, else rd = mem[rs1];    \
     * rd = mem[rs1], mem[rs1] += rs2 */                                  \
    X(Xchg,      "xchg",      RdAt,       Mem,    20)                     \
    X(CmpXchg,   "cmpxchg",   RdAtRs,     Mem,    20)                     \
    X(FetchAdd,  "fetchadd",  RdAtRs,     Mem,    20)                     \
    /* Spin-loop hint */                                                   \
    X(Pause,     "pause",     None,       Inline, 10)                     \
    /* Behavioural FP/compute block: retires after 1 + imm (+ rs1 value  \
     * when rs1 != 0) cycles */                                           \
    X(Compute,   "compute",   ImmRs,      Inline, 1)                      \
    /* Traps: OS service (Ring-0 trap, plus modeled ring transitions);   \
     * user-level runtime (ShredLib) service; number = imm */             \
    X(Syscall,   "syscall",   Imm,        Slow,   10)                     \
    X(RtCall,    "rtcall",    Imm,        Slow,   5)                      \
    /* Introspection: rd = own SID; sequencers in this MISP processor;   \
     * current cycle count (TSC analog) */                                \
    X(SeqId,     "seqid",     Rd,         Inline, 1)                      \
    X(NumSeq,    "numseq",    Rd,         Inline, 1)                      \
    X(RdTick,    "rdtick",    Rd,         Inline, 1)                      \
    /* ---- MISP MIMD extension (section 2.4) ----                       \
     * SIGNAL(sid = rs1, eip = rs2, esp = rd): egress issue (delivery    \
     * latency is the fabric's); SEMONITOR: trigger-response for         \
     * scenario = sub, handler = imm; YRET: return from an asynchronous  \
     * handler */                                                         \
    X(Signal,    "signal",    Signal,     Slow,   2)                      \
    X(Semonitor, "semonitor", Monitor,    Slow,   2)                      \
    X(Yret,      "yret",      None,       Slow,   3)

/** Opcode space, generated from MISA_OPCODES in row order. */
enum class Opcode : std::uint8_t {
#define MISA_OPCODE_ENUM(op, ...) op,
    MISA_OPCODES(MISA_OPCODE_ENUM)
#undef MISA_OPCODE_ENUM
    NumOpcodes
};

/** Operand format: which Instruction fields an opcode uses, how they
 *  are written in assembly, and which `sub` values decode accepts. */
enum class Format : std::uint8_t {
    None,       ///< op
    Rd,         ///< op rd
    Rs,         ///< op rs1
    RdRs,       ///< op rd, rs1
    RdRsRs,     ///< op rd, rs1, rs2
    RdRsImm,    ///< op rd, rs1, imm
    RdImm,      ///< op rd, imm|label
    RsRs,       ///< op rs1, rs2
    RsImm,      ///< op rs1, imm
    Load,       ///< op<size> rd, [rs1+imm]; size = sub in {1,2,4,8}
    Store,      ///< op<size> [rs1+imm], rs2; size = sub in {1,2,4,8}
    RdMem,      ///< op rd, [rs1+imm]
    RdAt,       ///< op rd, [rs1]
    RdAtRs,     ///< op rd, [rs1], rs2
    Target,     ///< op imm|label (op rs1 selects the register form)
    CondTarget, ///< op.<cond> imm|label; cond = sub < NumConds
    Imm,        ///< op imm
    ImmRs,      ///< op imm[, rs1]
    Signal,     ///< op sid=rs1, eip=rs2, esp=rd
    Monitor,    ///< op scenario=sub, handler=imm|label; sub < NumScenarios
};

/** Host dispatch class of an opcode: how the superblock engine places
 *  it in a block. */
enum class OpClass : std::uint8_t {
    /** Pure register/flags op: the block executor runs it inline with a
     *  batched fetch replay (no TLB, memory, or environment effects). */
    Inline,
    /** Memory or fault-capable op: dispatched through the generic
     *  executeDecoded path; superblock *body* member (non-terminating),
     *  but execution revalidates the chain after it (SMC, TLB churn). */
    Mem,
    /** Pure control transfer (JMP / JMPR / Jcc): superblock terminator;
     *  its exits carry the chain links. */
    Branch,
    /** Environment/serialization point (HALT, SYSCALL, RTCALL, SIGNAL,
     *  CALL/RET, YRET, SEMONITOR): superblock terminator; always slow
     *  dispatch followed by a full re-resolve. */
    Slow,
    /** Decode failed (no table row): terminator raising InvalidOpcode
     *  on dispatch. */
    Invalid,
};

/** One row of the opcode table. */
struct OpInfo {
    const char *mnemonic;
    Format format;
    OpClass cls;
    /** Base execution latency in cycles (memory translation and Compute
     *  bursts add more). Values model a simple in-order core with a CPI
     *  near 1 for ALU work, matching the paper's "throughput is governed
     *  by event counts, not core microarchitecture" analysis. */
    Cycles latency;
};

inline constexpr OpInfo kOpTable[] = {
#define MISA_OPCODE_INFO(op, mnemonic, format, cls, latency)              \
    {mnemonic, Format::format, OpClass::cls, latency},
    MISA_OPCODES(MISA_OPCODE_INFO)
#undef MISA_OPCODE_INFO
};
static_assert(std::size(kOpTable) ==
              static_cast<std::size_t>(Opcode::NumOpcodes));

/** Table row of @p op (which must be a real opcode). */
inline const OpInfo &
opInfo(Opcode op)
{
    return kOpTable[static_cast<std::size_t>(op)];
}

/** Branch conditions for Jcc, encoded in the `sub` field, one row
 *  each in encoding order: X(Enum, "suffix"). Eq..Ge are signed, from
 *  FLAGS; Ult and Uge are unsigned. Generates Cond, condName() and the
 *  per-condition Jcc handler ids. */
#define MISA_CONDS(X)                                                     \
    X(Eq, "eq") X(Ne, "ne") X(Lt, "lt") X(Le, "le") X(Gt, "gt")           \
    X(Ge, "ge") X(Ult, "ult") X(Uge, "uge")

/** Branch conditions for Jcc, generated from MISA_CONDS. */
enum class Cond : std::uint8_t {
#define MISA_COND_ENUM(cond, suffix) cond,
    MISA_CONDS(MISA_COND_ENUM)
#undef MISA_COND_ENUM
    NumConds
};

/** Ld/St access widths in bytes: the `sub` values decode accepts. */
#define MISA_WIDTHS(X) X(1) X(2) X(4) X(8)

/** Inline-class row filter: inside a MISA_OPCODES expansion,
 *  `MISA_IF_INLINE_##cls(X, op)` is `X(op)` for an Inline-class row and
 *  empty for every other row. */
#define MISA_IF_INLINE_Inline(X, op) X(op)
#define MISA_IF_INLINE_Mem(X, op)
#define MISA_IF_INLINE_Branch(X, op)
#define MISA_IF_INLINE_Slow(X, op)

/**
 * Superblock fast-loop handler of a decoded instruction: the one-byte
 * id the engine's per-instruction dispatch switches on. Generated from
 * the tables above: one id per Inline-class opcode, Ld and St per
 * access width, Jcc per condition, then Jmp and JmpR. Generic is every
 * other instruction (Mem-class ops other than Ld/St, Slow-class ops,
 * and slots that failed to decode): the fast loop hands it to the
 * sequencer's generic paths.
 */
enum class Handler : std::uint8_t {
#define MISA_HANDLER_INLINE(op) op,
#define MISA_HANDLER_ROW(op, mnemonic, format, cls, latency)              \
    MISA_IF_INLINE_##cls(MISA_HANDLER_INLINE, op)
    MISA_OPCODES(MISA_HANDLER_ROW)
#undef MISA_HANDLER_ROW
#undef MISA_HANDLER_INLINE
#define MISA_HANDLER_LD(width) Ld##width,
    MISA_WIDTHS(MISA_HANDLER_LD)
#undef MISA_HANDLER_LD
#define MISA_HANDLER_ST(width) St##width,
    MISA_WIDTHS(MISA_HANDLER_ST)
#undef MISA_HANDLER_ST
#define MISA_HANDLER_JCC(cond, suffix) Jcc##cond,
    MISA_CONDS(MISA_HANDLER_JCC)
#undef MISA_HANDLER_JCC
    Jmp,
    JmpR,
    Generic,
};

/** YIELD-CONDITIONAL scenario identifiers for SEMONITOR (§2.4, §2.5). */
enum class Scenario : std::uint8_t {
    IngressSignal = 0, ///< a SIGNAL arrived while a shred is running
    ProxyRequest = 1,  ///< (OMS only) an AMS raised a proxy-execution fault
    NumScenarios
};

/** FLAGS register layout. */
struct Flags {
    bool zf = false; ///< zero
    bool sf = false; ///< sign
    bool cf = false; ///< carry (unsigned borrow on compare)
    bool of = false; ///< overflow

    bool operator==(const Flags &) const = default;
};

/** A decoded MISA instruction. */
struct Instruction {
    Opcode op = Opcode::Nop;
    std::uint8_t rd = 0;
    std::uint8_t rs1 = 0;
    std::uint8_t rs2 = 0;
    std::uint8_t sub = 0; ///< size for Ld/St, condition for Jcc, scenario
    std::uint64_t imm = 0;

    bool operator==(const Instruction &) const = default;
};

/** Encode @p inst into the 16-byte guest representation. */
std::array<std::uint8_t, kInstBytes> encode(const Instruction &inst);

/** Decode 16 bytes fetched from guest memory.
 *  @return false if the opcode byte is out of range, a register field
 *  names no register, or `sub` is out of range for the opcode's format
 *  (a Load/Store size other than 1, 2, 4 or 8, a Jcc condition, or a
 *  SEMONITOR scenario). The sequencer raises InvalidOpcode for these. */
bool decode(const std::uint8_t bytes[kInstBytes], Instruction *out);

/** Base execution latency of @p op in cycles (see OpInfo::latency). */
inline Cycles
baseLatency(Opcode op)
{
    return opInfo(op).latency;
}

/** Host dispatch class of @p op. */
inline OpClass
opClass(Opcode op)
{
    return opInfo(op).cls;
}

/** Fast-loop handler id of a successfully decoded @p inst. */
Handler handlerOf(const Instruction &inst);

/** Human-readable mnemonic ("???" for a non-opcode). */
const char *opcodeName(Opcode op);
const char *condName(Cond cond);

/** One-line disassembly, in the syntax the assembler accepts. */
std::string disassemble(const Instruction &inst);

} // namespace misp::isa

#endif // MISP_ISA_ISA_HH
