#include "isa.hh"

#include <cstring>
#include <iterator>
#include <sstream>

namespace misp::isa {

std::array<std::uint8_t, kInstBytes>
encode(const Instruction &inst)
{
    std::array<std::uint8_t, kInstBytes> bytes{};
    bytes[0] = static_cast<std::uint8_t>(inst.op);
    bytes[1] = inst.rd;
    bytes[2] = inst.rs1;
    bytes[3] = inst.rs2;
    bytes[4] = inst.sub;
    // bytes[5..7] reserved
    std::memcpy(&bytes[8], &inst.imm, 8);
    return bytes;
}

namespace {

/** Whether @p sub is a legal `sub` field for an opcode of @p format. */
bool
subValid(Format format, std::uint8_t sub)
{
    switch (format) {
      case Format::Load:
      case Format::Store:
        return sub == 1 || sub == 2 || sub == 4 || sub == 8;
      case Format::CondTarget:
        return sub < static_cast<std::uint8_t>(Cond::NumConds);
      case Format::Monitor:
        return sub < static_cast<std::uint8_t>(Scenario::NumScenarios);
      default:
        return true;
    }
}

constexpr const char *kCondNames[] = {"eq", "ne", "lt",  "le",
                                      "gt", "ge", "ult", "uge"};
static_assert(std::size(kCondNames) ==
              static_cast<std::size_t>(Cond::NumConds));

} // namespace

bool
decode(const std::uint8_t bytes[kInstBytes], Instruction *out)
{
    if (bytes[0] >= static_cast<std::uint8_t>(Opcode::NumOpcodes))
        return false;
    out->op = static_cast<Opcode>(bytes[0]);
    out->rd = bytes[1];
    out->rs1 = bytes[2];
    out->rs2 = bytes[3];
    out->sub = bytes[4];
    std::memcpy(&out->imm, &bytes[8], 8);
    if (out->rd >= kNumRegs || out->rs1 >= kNumRegs || out->rs2 >= kNumRegs)
        return false;
    return subValid(opInfo(out->op).format, out->sub);
}

const char *
opcodeName(Opcode op)
{
    return op < Opcode::NumOpcodes ? opInfo(op).mnemonic : "???";
}

const char *
condName(Cond cond)
{
    return cond < Cond::NumConds
               ? kCondNames[static_cast<std::size_t>(cond)]
               : "??";
}

std::string
disassemble(const Instruction &inst)
{
    if (inst.op >= Opcode::NumOpcodes)
        return opcodeName(inst.op);
    std::ostringstream os;
    auto reg = [](unsigned r) { return "r" + std::to_string(r); };
    const std::int64_t simm = static_cast<std::int64_t>(inst.imm);
    // [rB+d] / [rB-d]: the form the assembler parses back.
    auto memRef = [&] {
        return "[" + reg(inst.rs1) + (simm < 0 ? "-" : "+") +
               std::to_string(simm < 0 ? 0 - inst.imm : inst.imm) + "]";
    };
    os << opcodeName(inst.op);
    switch (opInfo(inst.op).format) {
      case Format::None:
        break;
      case Format::Rd:
        os << " " << reg(inst.rd);
        break;
      case Format::Rs:
        os << " " << reg(inst.rs1);
        break;
      case Format::RdRs:
        os << " " << reg(inst.rd) << ", " << reg(inst.rs1);
        break;
      case Format::RdRsRs:
        os << " " << reg(inst.rd) << ", " << reg(inst.rs1) << ", "
           << reg(inst.rs2);
        break;
      case Format::RdRsImm:
        os << " " << reg(inst.rd) << ", " << reg(inst.rs1) << ", " << simm;
        break;
      case Format::RdImm:
        os << " " << reg(inst.rd) << ", " << simm;
        break;
      case Format::RsRs:
        os << " " << reg(inst.rs1) << ", " << reg(inst.rs2);
        break;
      case Format::RsImm:
        os << " " << reg(inst.rs1) << ", " << simm;
        break;
      case Format::Load:
        os << int(inst.sub) << " " << reg(inst.rd) << ", " << memRef();
        break;
      case Format::Store:
        os << int(inst.sub) << " " << memRef() << ", " << reg(inst.rs2);
        break;
      case Format::RdMem:
        os << " " << reg(inst.rd) << ", " << memRef();
        break;
      case Format::RdAt:
        os << " " << reg(inst.rd) << ", [" << reg(inst.rs1) << "]";
        break;
      case Format::RdAtRs:
        os << " " << reg(inst.rd) << ", [" << reg(inst.rs1) << "], "
           << reg(inst.rs2);
        break;
      case Format::Target:
        os << " 0x" << std::hex << inst.imm;
        break;
      case Format::CondTarget:
        os << "." << condName(static_cast<Cond>(inst.sub)) << " 0x"
           << std::hex << inst.imm;
        break;
      case Format::Imm:
        os << " " << inst.imm;
        break;
      case Format::ImmRs:
        os << " " << inst.imm;
        if (inst.rs1 != 0)
            os << ", " << reg(inst.rs1);
        break;
      case Format::Signal:
        os << " sid=" << reg(inst.rs1) << ", eip=" << reg(inst.rs2)
           << ", esp=" << reg(inst.rd);
        break;
      case Format::Monitor:
        os << " scenario=" << int(inst.sub) << ", handler=0x" << std::hex
           << inst.imm;
        break;
    }
    return os.str();
}

} // namespace misp::isa
