#include "assembler.hh"

#include <cctype>
#include <map>
#include <optional>
#include <sstream>
#include <vector>

namespace misp::isa {

namespace {

/** Tokenized operand: register, immediate, memory ref, or label name. */
struct Operand {
    enum class Kind { Reg, Imm, Mem, Name } kind;
    unsigned reg = 0;       // Reg / Mem base
    std::int64_t imm = 0;   // Imm / Mem displacement
    std::string name;       // Name
};

struct Line {
    unsigned number;
    std::string mnemonic; // lowercase, includes suffixes like "ld8"
    std::vector<Operand> operands;
};

bool
parseReg(const std::string &tok, unsigned *out)
{
    if (tok == "sp") {
        *out = kRegSp;
        return true;
    }
    if (tok.size() < 2 || tok[0] != 'r')
        return false;
    for (std::size_t i = 1; i < tok.size(); ++i) {
        if (!std::isdigit(static_cast<unsigned char>(tok[i])))
            return false;
    }
    unsigned r = std::stoul(tok.substr(1));
    if (r >= kNumRegs)
        return false;
    *out = r;
    return true;
}

bool
parseImm(const std::string &tok, std::int64_t *out)
{
    if (tok.empty())
        return false;
    std::size_t pos = 0;
    try {
        *out = std::stoll(tok, &pos, 0);
    } catch (const std::out_of_range &) {
        // Above INT64_MAX: an unsigned immediate, kept bit for bit.
        try {
            if (tok[0] == '-')
                return false;
            *out = static_cast<std::int64_t>(std::stoull(tok, &pos, 0));
        } catch (...) {
            return false;
        }
    } catch (...) {
        return false;
    }
    return pos == tok.size();
}

Operand
parseOperand(unsigned lineNo, std::string tok)
{
    // Trim.
    while (!tok.empty() && std::isspace(static_cast<unsigned char>(tok.front())))
        tok.erase(tok.begin());
    while (!tok.empty() && std::isspace(static_cast<unsigned char>(tok.back())))
        tok.pop_back();
    if (tok.empty())
        throw AsmError(lineNo, "empty operand");
    // A descriptive `name=` prefix, as disassembly prints for SIGNAL and
    // SEMONITOR operands, is accepted and ignored.
    std::size_t eq = tok.find('=');
    if (eq != std::string::npos && tok.front() != '[')
        tok.erase(0, eq + 1);

    Operand op;
    if (tok.front() == '[') {
        if (tok.back() != ']')
            throw AsmError(lineNo, "unterminated memory operand: " + tok);
        std::string inner = tok.substr(1, tok.size() - 2);
        // forms: [rN], [rN+disp], [rN-disp]
        std::size_t sep = inner.find_first_of("+-");
        std::string regTok = sep == std::string::npos
                                 ? inner
                                 : inner.substr(0, sep);
        op.kind = Operand::Kind::Mem;
        if (!parseReg(regTok, &op.reg))
            throw AsmError(lineNo, "bad base register: " + regTok);
        if (sep != std::string::npos) {
            std::string dispTok = inner.substr(sep); // keeps the sign
            if (!parseImm(dispTok, &op.imm))
                throw AsmError(lineNo, "bad displacement: " + dispTok);
        }
        return op;
    }
    if (parseReg(tok, &op.reg)) {
        op.kind = Operand::Kind::Reg;
        return op;
    }
    if (parseImm(tok, &op.imm)) {
        op.kind = Operand::Kind::Imm;
        return op;
    }
    op.kind = Operand::Kind::Name;
    op.name = tok;
    return op;
}

std::optional<Cond>
condFromName(const std::string &name)
{
    for (unsigned c = 0; c < static_cast<unsigned>(Cond::NumConds); ++c) {
        if (name == condName(static_cast<Cond>(c)))
            return static_cast<Cond>(c);
    }
    return std::nullopt;
}

std::optional<Opcode>
opcodeFromName(const std::string &name)
{
    for (unsigned op = 0; op < static_cast<unsigned>(Opcode::NumOpcodes);
         ++op) {
        if (name == kOpTable[op].mnemonic)
            return static_cast<Opcode>(op);
    }
    return std::nullopt;
}

std::optional<Scenario>
scenarioFromName(const std::string &name)
{
    if (name == "ingress" || name == "ingress_signal")
        return Scenario::IngressSignal;
    if (name == "proxy" || name == "proxy_request")
        return Scenario::ProxyRequest;
    return std::nullopt;
}

} // namespace

Program
assemble(const std::string &source, VAddr base)
{
    ProgramBuilder builder;
    std::map<std::string, ProgramBuilder::Label> labels;

    auto labelFor = [&](const std::string &name) {
        auto it = labels.find(name);
        if (it != labels.end())
            return it->second;
        ProgramBuilder::Label l = builder.newLabel();
        labels.emplace(name, l);
        return l;
    };

    // Single streaming pass: ProgramBuilder's fixup machinery provides the
    // second "pass" by patching forward references at finish().
    std::istringstream in(source);
    std::string rawLine;
    unsigned lineNo = 0;

    while (std::getline(in, rawLine)) {
        ++lineNo;
        // Strip comments.
        auto cut = rawLine.find(';');
        if (cut != std::string::npos)
            rawLine.resize(cut);
        cut = rawLine.find('#');
        if (cut != std::string::npos)
            rawLine.resize(cut);

        // Handle leading labels (possibly several per line).
        std::string text = rawLine;
        for (;;) {
            std::size_t firstNs = text.find_first_not_of(" \t");
            if (firstNs == std::string::npos) {
                text.clear();
                break;
            }
            std::size_t colon = text.find(':');
            std::size_t firstSpace = text.find_first_of(" \t", firstNs);
            if (colon != std::string::npos &&
                (firstSpace == std::string::npos || colon < firstSpace)) {
                std::string name = text.substr(firstNs, colon - firstNs);
                if (name.empty())
                    throw AsmError(lineNo, "empty label");
                ProgramBuilder::Label l = labelFor(name);
                builder.bind(l);
                builder.exportLabel(name, l);
                text = text.substr(colon + 1);
                continue;
            }
            break;
        }

        // Tokenize mnemonic + comma-separated operands.
        std::istringstream ls(text);
        std::string mnemonic;
        if (!(ls >> mnemonic))
            continue;
        for (auto &c : mnemonic)
            c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));

        std::string rest;
        std::getline(ls, rest);
        std::vector<Operand> ops;
        if (rest.find_first_not_of(" \t") != std::string::npos) {
            std::size_t start = 0;
            int depth = 0;
            for (std::size_t i = 0; i <= rest.size(); ++i) {
                if (i < rest.size() && rest[i] == '[')
                    ++depth;
                if (i < rest.size() && rest[i] == ']')
                    --depth;
                if (i == rest.size() || (rest[i] == ',' && depth == 0)) {
                    ops.push_back(
                        parseOperand(lineNo, rest.substr(start, i - start)));
                    start = i + 1;
                }
            }
        }

        auto expect = [&](std::size_t n) {
            if (ops.size() != n)
                throw AsmError(lineNo, mnemonic + ": expected " +
                                           std::to_string(n) + " operands, got " +
                                           std::to_string(ops.size()));
        };
        auto reg = [&](std::size_t i) {
            if (ops[i].kind != Operand::Kind::Reg)
                throw AsmError(lineNo, mnemonic + ": operand " +
                                           std::to_string(i + 1) +
                                           " must be a register");
            return ops[i].reg;
        };
        auto imm = [&](std::size_t i) {
            if (ops[i].kind != Operand::Kind::Imm)
                throw AsmError(lineNo, mnemonic + ": operand " +
                                           std::to_string(i + 1) +
                                           " must be an immediate");
            return ops[i].imm;
        };
        auto mem = [&](std::size_t i) -> const Operand & {
            if (ops[i].kind != Operand::Kind::Mem)
                throw AsmError(lineNo, mnemonic + ": operand " +
                                           std::to_string(i + 1) +
                                           " must be a memory reference");
            return ops[i];
        };

        // Mnemonic -> opcode + sub: a table name, a Load/Store name with
        // its size suffix (ld8, st4), or jcc.<cond>.
        const std::size_t dot = mnemonic.find('.');
        std::string base = mnemonic.substr(0, dot);
        if (dot == std::string::npos && !base.empty() &&
            std::isdigit(static_cast<unsigned char>(base.back())))
            base.pop_back();
        const auto op = opcodeFromName(base);
        const Format format = op ? opInfo(*op).format : Format::None;
        const bool sized = format == Format::Load || format == Format::Store;
        const bool conditional = format == Format::CondTarget;
        if (!op || (dot != std::string::npos) != conditional ||
            (base.size() < mnemonic.size() && !sized && !conditional))
            throw AsmError(lineNo, "unknown mnemonic: " + mnemonic);
        Instruction inst;
        inst.op = *op;
        if (sized) {
            const unsigned size =
                base == mnemonic ? 0 : unsigned(mnemonic.back() - '0');
            if (size != 1 && size != 2 && size != 4 && size != 8)
                throw AsmError(lineNo, "bad memory size: " + mnemonic);
            inst.sub = static_cast<std::uint8_t>(size);
        } else if (conditional) {
            const std::string name = mnemonic.substr(dot + 1);
            const auto cond = condFromName(name);
            if (!cond)
                throw AsmError(lineNo, "bad condition: " + name);
            inst.sub = static_cast<std::uint8_t>(*cond);
        }

        // Operands by format. An address operand may be a label, whose
        // address the builder patches in at finish().
        std::optional<ProgramBuilder::Label> label;
        auto immOrLabel = [&](std::size_t i) {
            if (ops[i].kind == Operand::Kind::Name)
                label = labelFor(ops[i].name);
            else
                inst.imm = static_cast<std::uint64_t>(imm(i));
        };
        auto memRef = [&](std::size_t i, bool displacement) {
            const Operand &m = mem(i);
            if (!displacement && m.imm != 0)
                throw AsmError(lineNo,
                               mnemonic + " does not take a displacement");
            inst.rs1 = static_cast<std::uint8_t>(m.reg);
            inst.imm = static_cast<std::uint64_t>(m.imm);
        };
        auto rd = [&](std::size_t i) { inst.rd = std::uint8_t(reg(i)); };
        auto rs1 = [&](std::size_t i) { inst.rs1 = std::uint8_t(reg(i)); };
        auto rs2 = [&](std::size_t i) { inst.rs2 = std::uint8_t(reg(i)); };
        switch (format) {
          case Format::None:
            expect(0);
            break;
          case Format::Rd:
            expect(1);
            rd(0);
            break;
          case Format::Rs:
            expect(1);
            rs1(0);
            break;
          case Format::RdRs:
            expect(2);
            rd(0);
            rs1(1);
            break;
          case Format::RdRsRs:
            expect(3);
            rd(0);
            rs1(1);
            rs2(2);
            break;
          case Format::RdRsImm:
            expect(3);
            rd(0);
            rs1(1);
            inst.imm = static_cast<std::uint64_t>(imm(2));
            break;
          case Format::RdImm:
            expect(2);
            rd(0);
            immOrLabel(1);
            break;
          case Format::RsRs:
            expect(2);
            rs1(0);
            rs2(1);
            break;
          case Format::RsImm:
            expect(2);
            rs1(0);
            inst.imm = static_cast<std::uint64_t>(imm(1));
            break;
          case Format::Load:
          case Format::RdMem:
            expect(2);
            rd(0);
            memRef(1, true);
            break;
          case Format::Store:
            expect(2);
            memRef(0, true);
            rs2(1);
            break;
          case Format::RdAt:
            expect(2);
            rd(0);
            memRef(1, false);
            break;
          case Format::RdAtRs:
            expect(3);
            rd(0);
            memRef(1, false);
            rs2(2);
            break;
          case Format::Target:
            expect(1);
            if (ops[0].kind == Operand::Kind::Reg) {
                // `jmp rN` / `call rN`: the register-indirect forms.
                inst.op = inst.op == Opcode::Jmp ? Opcode::JmpR
                                                 : Opcode::CallR;
                rs1(0);
            } else {
                immOrLabel(0);
            }
            break;
          case Format::CondTarget:
            expect(1);
            immOrLabel(0);
            break;
          case Format::Imm:
            expect(1);
            inst.imm = static_cast<std::uint64_t>(imm(0));
            break;
          case Format::ImmRs:
            if (ops.empty() || ops.size() > 2)
                throw AsmError(lineNo, mnemonic + ": 1 or 2 operands");
            inst.imm = static_cast<std::uint64_t>(imm(0));
            if (ops.size() == 2)
                rs1(1);
            break;
          case Format::Signal:
            expect(3);
            rs1(0);
            rs2(1);
            rd(2);
            break;
          case Format::Monitor: {
            expect(2);
            std::optional<Scenario> sc;
            if (ops[0].kind == Operand::Kind::Name)
                sc = scenarioFromName(ops[0].name);
            else if (ops[0].kind == Operand::Kind::Imm && ops[0].imm >= 0 &&
                     ops[0].imm < static_cast<std::int64_t>(
                                      Scenario::NumScenarios))
                sc = static_cast<Scenario>(ops[0].imm);
            if (!sc)
                throw AsmError(lineNo, mnemonic + ": bad scenario");
            inst.sub = static_cast<std::uint8_t>(*sc);
            immOrLabel(1);
            break;
          }
        }
        if (label)
            builder.raw(inst, *label);
        else
            builder.raw(inst);
    }

    // finish() resolves fixups; an unbound label means a typo in the
    // source, so convert the panic into an AsmError for usability.
    try {
        Program prog = builder.finish(base);
        return prog;
    } catch (const SimError &e) {
        throw AsmError(0, e.what());
    }
}

} // namespace misp::isa
