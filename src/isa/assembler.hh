/**
 * @file
 * Two-pass text assembler for MISA.
 *
 * Used by examples and tests to author small guest programs readably.
 * Syntax, one instruction per line:
 *
 * @code
 *   ; comment
 *   main:
 *       movi  r1, 42
 *       addi  r2, r1, 8
 *       ld8   r3, [r2+0]        ; sizes: ld1/ld2/ld4/ld8, st1/st2/st4/st8
 *       st8   [r2+8], r3
 *       cmp   r1, r2
 *       jcc.ne main             ; conditions: eq ne lt le gt ge ult uge
 *       call  func
 *       signal r1, r2, r3       ; sid, eip, esp
 *       semonitor ingress, handler
 *       yret
 *       compute 100
 *       rtcall 5
 *       syscall 1
 *       halt
 * @endcode
 *
 * Mnemonics and operand formats come from the opcode table (isa.hh).
 * Numeric immediates accept decimal, hex (0x..) and negative values.
 * Label operands may be used wherever an immediate address is expected.
 * `jmp rN` / `call rN` assemble the register forms (jmpr / callr), and
 * the output of isa::disassemble() assembles back to the same
 * instruction.
 */

#ifndef MISP_ISA_ASSEMBLER_HH
#define MISP_ISA_ASSEMBLER_HH

#include <string>

#include "isa/program.hh"

namespace misp::isa {

/** Raised on malformed assembly input. */
class AsmError : public std::runtime_error
{
  public:
    AsmError(unsigned line, const std::string &msg)
        : std::runtime_error("line " + std::to_string(line) + ": " + msg),
          line_(line)
    {}

    unsigned line() const { return line_; }

  private:
    unsigned line_;
};

/** Assemble @p source into a Program placed at @p base.
 *  All labels are exported as symbols. @throws AsmError. */
Program assemble(const std::string &source, VAddr base);

} // namespace misp::isa

#endif // MISP_ISA_ASSEMBLER_HH
