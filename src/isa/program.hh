/**
 * @file
 * Programmatic MISA code generation with label fixups.
 *
 * ProgramBuilder is the authoring tool used by workloads, ShredLib stubs
 * and tests: it emits Instructions, supports forward label references,
 * and resolves them to absolute guest addresses when the program is
 * placed at its base address. Program bundles the finished image plus
 * its symbol table for loading into an AddressSpace.
 */

#ifndef MISP_ISA_PROGRAM_HH
#define MISP_ISA_PROGRAM_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "isa/isa.hh"
#include "sim/logging.hh"
#include "sim/types.hh"

namespace misp::isa {

/** A finished, relocated code image. */
struct Program {
    VAddr base = 0;
    std::vector<Instruction> insts;
    std::map<std::string, VAddr> symbols;

    std::uint64_t byteSize() const { return insts.size() * kInstBytes; }

    /** Raw bytes for loading into guest memory. */
    std::vector<std::uint8_t> bytes() const;

    /** Address of a named symbol; fatal() if missing. */
    VAddr symbol(const std::string &name) const;
};

/** Emits MISA code with label support. */
class ProgramBuilder
{
  public:
    using Label = std::uint32_t;

    ProgramBuilder() = default;

    /** Create an unbound label. */
    Label newLabel();

    /** Bind @p label to the current emission point. */
    void bind(Label label);

    /** Create-and-bind a named symbol at the current point (exported in
     *  the finished Program's symbol table). */
    Label exportHere(const std::string &name);

    /** Export an existing label under @p name in the symbol table. */
    void exportLabel(const std::string &name, Label label);

    /** Current instruction index (useful for size accounting). */
    std::size_t here() const { return insts_.size(); }

    // ---- emitters ----------------------------------------------------
    void nop() { emit({Opcode::Nop}); }
    void halt() { emit({Opcode::Halt}); }

    void movi(unsigned rd, std::uint64_t imm);
    void mov(unsigned rd, unsigned rs1);

    void alu(Opcode op, unsigned rd, unsigned rs1, unsigned rs2);
    void aluImm(Opcode op, unsigned rd, unsigned rs1, std::uint64_t imm);

    void add(unsigned rd, unsigned a, unsigned b) { alu(Opcode::Add, rd, a, b); }
    void sub(unsigned rd, unsigned a, unsigned b) { alu(Opcode::Sub, rd, a, b); }
    void mul(unsigned rd, unsigned a, unsigned b) { alu(Opcode::Mul, rd, a, b); }
    void div(unsigned rd, unsigned a, unsigned b) { alu(Opcode::Div, rd, a, b); }
    void addi(unsigned rd, unsigned rs, std::int64_t v)
    { aluImm(Opcode::AddI, rd, rs, static_cast<std::uint64_t>(v)); }
    void subi(unsigned rd, unsigned rs, std::int64_t v)
    { aluImm(Opcode::SubI, rd, rs, static_cast<std::uint64_t>(v)); }
    void muli(unsigned rd, unsigned rs, std::int64_t v)
    { aluImm(Opcode::MulI, rd, rs, static_cast<std::uint64_t>(v)); }
    void shli(unsigned rd, unsigned rs, unsigned v)
    { aluImm(Opcode::ShlI, rd, rs, v); }
    void shri(unsigned rd, unsigned rs, unsigned v)
    { aluImm(Opcode::ShrI, rd, rs, v); }
    void andi(unsigned rd, unsigned rs, std::uint64_t v)
    { aluImm(Opcode::AndI, rd, rs, v); }

    void cmp(unsigned a, unsigned b);
    void cmpi(unsigned a, std::int64_t imm);

    void ld(unsigned rd, unsigned base, std::int64_t off, unsigned size = 8);
    void st(unsigned base, std::int64_t off, unsigned rs, unsigned size = 8);
    void push(unsigned rs);
    void pop(unsigned rd);
    void lea(unsigned rd, unsigned base, std::int64_t off);

    void jmp(Label target);
    void jmpAbs(VAddr target);
    void jmpr(unsigned rs);
    void jcc(Cond cond, Label target);
    void call(Label target);
    void callAbs(VAddr target);
    void callr(unsigned rs);
    void ret() { emit({Opcode::Ret}); }

    void xchg(unsigned rd, unsigned addrReg);
    void cmpxchg(unsigned expected, unsigned addrReg, unsigned desired);
    void fetchadd(unsigned rd, unsigned addrReg, unsigned addendReg);
    void pause() { emit({Opcode::Pause}); }

    void compute(std::uint64_t cycles, unsigned plusReg = 0);
    void syscall(std::uint64_t number);
    void rtcall(std::uint64_t service);

    void seqid(unsigned rd);
    void numseq(unsigned rd);
    void rdtick(unsigned rd);

    /** SIGNAL(sid=reg, eip=reg, esp=reg) — the MISP egress instruction. */
    void signal(unsigned sidReg, unsigned eipReg, unsigned espReg);
    /** SEMONITOR: register @p handler for @p scenario. */
    void semonitor(Scenario scenario, Label handler);
    void semonitorAbs(Scenario scenario, VAddr handler);
    void yret() { emit({Opcode::Yret}); }

    /** Load the (eventual) absolute address of @p label into @p rd. */
    void leaLabel(unsigned rd, Label label);

    /** Append a raw instruction (escape hatch for tests). */
    void raw(const Instruction &inst) { emit(inst); }
    /** Append a raw instruction whose imm becomes the address of
     *  @p label (the assembler's label operands). */
    void raw(const Instruction &inst, Label label)
    {
        emitWithFixup(inst, label);
    }

    /** Resolve labels against @p base and produce the image. */
    Program finish(VAddr base);

  private:
    struct Fixup {
        std::size_t instIndex;
        Label label;
    };

    void emit(Instruction inst) { insts_.push_back(inst); }
    void emitWithFixup(Instruction inst, Label label);

    std::vector<Instruction> insts_;
    std::vector<std::int64_t> labelTargets_; ///< inst index or -1
    std::vector<Fixup> fixups_;
    std::map<std::string, Label> exports_;
};

} // namespace misp::isa

#endif // MISP_ISA_PROGRAM_HH
