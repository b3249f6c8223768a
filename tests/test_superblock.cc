/**
 * @file
 * Differential fuzzing of the superblock-chained execution engine.
 *
 * An execution engine is a host-side optimization only: for any guest
 * program, the reference interpreter and the chained-superblock engine
 * must produce tick-for-tick identical machine state. This suite
 * generates seeded random guest programs — branches (static,
 * conditional, indirect), aligned loads/stores of every size, bounded
 * loops, page-crossing straight runs, self-modifying stores into the
 * program's own code pages, RTCALLs, and stack traffic — and fails on
 * the first observable divergence between the engines: final tick,
 * retired/busy counts, every architectural register, the TLB's
 * hit/miss/walk statistics, the physical-memory byte counters, and a
 * digest of every data and stack page (so a store that writes too many
 * bytes diverges even when no later load reads the clobbered ones).
 *
 * A second pass replays a seed subset with a host-side poke schedule:
 * the machine runs to a fixed tick, the host rewrites a code page (the
 * loader/runtime path, which also exercises mapping-change
 * invalidation), and the run resumes. Engines are tick-identical, so
 * the poke lands at the same logical point under each one.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "cpu/decode_cache.hh"
#include "cpu/sequencer.hh"
#include "harness/bare_machine.hh"
#include "isa/assembler.hh"
#include "mem/address_space.hh"

using namespace misp;

namespace {

/** Deterministic 64-bit generator (splitmix64): identical streams on
 *  every platform, unlike <random> distributions. */
struct Rng {
    std::uint64_t s;
    explicit Rng(std::uint64_t seed) : s(seed + 0x9e3779b97f4a7c15ull) {}
    std::uint64_t
    next()
    {
        std::uint64_t z = (s += 0x9e3779b97f4a7c15ull);
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
        return z ^ (z >> 31);
    }
    /** Uniform in [0, n). */
    std::uint64_t pick(std::uint64_t n) { return next() % n; }
};

/** Scratch registers the generator is allowed to clobber. r1 is the
 *  outer loop counter, r2 the data base, r10..r13 are reserved for
 *  generated control (inner counters, indirect targets, SMC), r14 is
 *  the SMC accumulator, and r15 is the architectural stack pointer
 *  (push/pop chunks would fault through a clobbered one). */
unsigned
scratchReg(Rng &rng)
{
    static const unsigned kScratch[] = {3, 4, 5, 6, 7, 8, 9};
    return kScratch[rng.pick(sizeof(kScratch) / sizeof(kScratch[0]))];
}

const char *kConds[] = {"eq", "ne", "lt", "le", "gt", "ge", "ult",
                        "uge"};

void
emitAlu(std::string &src, Rng &rng)
{
    const unsigned rd = scratchReg(rng);
    const unsigned rs = scratchReg(rng);
    const unsigned rt = scratchReg(rng);
    char buf[96];
    switch (rng.pick(10)) {
      case 0:
        std::snprintf(buf, sizeof buf, "    addi r%u, r%u, %llu\n", rd,
                      rs, (unsigned long long)rng.pick(1000));
        break;
      case 1:
        std::snprintf(buf, sizeof buf, "    add r%u, r%u, r%u\n", rd,
                      rs, rt);
        break;
      case 2:
        std::snprintf(buf, sizeof buf, "    sub r%u, r%u, r%u\n", rd,
                      rs, rt);
        break;
      case 3:
        std::snprintf(buf, sizeof buf, "    muli r%u, r%u, %llu\n", rd,
                      rs, (unsigned long long)(1 + rng.pick(13)));
        break;
      case 4:
        std::snprintf(buf, sizeof buf, "    xori r%u, r%u, %llu\n", rd,
                      rs, (unsigned long long)rng.pick(0xffff));
        break;
      case 5:
        std::snprintf(buf, sizeof buf, "    andi r%u, r%u, %llu\n", rd,
                      rs, (unsigned long long)rng.pick(0xffff));
        break;
      case 6:
        std::snprintf(buf, sizeof buf, "    ori r%u, r%u, %llu\n", rd,
                      rs, (unsigned long long)rng.pick(0xffff));
        break;
      case 7:
        std::snprintf(buf, sizeof buf, "    shli r%u, r%u, %llu\n", rd,
                      rs, (unsigned long long)rng.pick(8));
        break;
      case 8:
        std::snprintf(buf, sizeof buf, "    shri r%u, r%u, %llu\n", rd,
                      rs, (unsigned long long)rng.pick(8));
        break;
      default:
        std::snprintf(buf, sizeof buf, "    movi r%u, %llu\n", rd,
                      (unsigned long long)rng.pick(100000));
        break;
    }
    src += buf;
}

void
emitMem(std::string &src, Rng &rng)
{
    // Aligned access inside the first three pages of the writable data
    // region at 0x10'0000 (the machine's stack lives pages above; r2
    // holds the base). Misaligned or unmapped accesses would kill the
    // bare machine, so the generator never produces them.
    static const unsigned kSizes[] = {1, 2, 4, 8};
    const unsigned size = kSizes[rng.pick(4)];
    const std::uint64_t off =
        rng.pick((3 * 4096) / size) * size; // size-aligned
    const unsigned rv = scratchReg(rng);
    char buf[96];
    if (rng.pick(2) == 0)
        std::snprintf(buf, sizeof buf, "    ld%u r%u, [r2+%llu]\n",
                      size, rv, (unsigned long long)off);
    else
        std::snprintf(buf, sizeof buf, "    st%u [r2+%llu], r%u\n",
                      size, (unsigned long long)off, rv);
    src += buf;
}

/** One seeded random program. Control flow is forward-only except for
 *  bounded counted loops, so every program halts. */
std::string
genProgram(std::uint64_t seed)
{
    Rng rng(seed);
    std::string src = "main:\n"
                      "    movi r1, 0\n"
                      "    movi r2, 0x100000\n"
                      "outer:\n";
    int label = 0;
    const int chunks = 4 + (int)rng.pick(5);
    for (int c = 0; c < chunks; ++c) {
        char buf[128];
        switch (rng.pick(8)) {
          case 0: { // straight ALU run (long ones cross a page: a
                    // 4 KiB page holds 256 instruction bundles)
            const int n = rng.pick(6) == 0 ? 280 + (int)rng.pick(80)
                                           : 4 + (int)rng.pick(30);
            for (int i = 0; i < n; ++i)
                emitAlu(src, rng);
            break;
          }
          case 1: { // memory run
            const int n = 2 + (int)rng.pick(8);
            for (int i = 0; i < n; ++i)
                emitMem(src, rng);
            break;
          }
          case 2: { // bounded inner loop (never nested)
            const int id = label++;
            std::snprintf(buf, sizeof buf,
                          "    movi r10, 0\nl%d:\n", id);
            src += buf;
            const int body = 1 + (int)rng.pick(6);
            for (int i = 0; i < body; ++i)
                (rng.pick(3) == 0 ? emitMem : emitAlu)(src, rng);
            std::snprintf(buf, sizeof buf,
                          "    addi r10, r10, 1\n"
                          "    cmpi r10, %d\n"
                          "    jcc.lt l%d\n",
                          2 + (int)rng.pick(5), id);
            src += buf;
            break;
          }
          case 3: { // conditional forward skip
            const int id = label++;
            std::snprintf(buf, sizeof buf,
                          "    cmp r%u, r%u\n    jcc.%s l%d\n",
                          scratchReg(rng), scratchReg(rng),
                          kConds[rng.pick(8)], id);
            src += buf;
            const int n = 1 + (int)rng.pick(10);
            for (int i = 0; i < n; ++i)
                emitAlu(src, rng);
            std::snprintf(buf, sizeof buf, "l%d:\n", id);
            src += buf;
            break;
          }
          case 4: { // indirect forward jump (never chain-linked)
            const int id = label++;
            std::snprintf(buf, sizeof buf,
                          "    movi r11, l%d\n    jmp r11\n", id);
            src += buf;
            for (int i = 0; i < 1 + (int)rng.pick(4); ++i)
                emitAlu(src, rng);
            std::snprintf(buf, sizeof buf, "l%d:\n", id);
            src += buf;
            break;
          }
          case 5: // environment call (a Slow-class serialization point)
            std::snprintf(buf, sizeof buf, "    rtcall %llu\n",
                          (unsigned long long)rng.pick(8));
            src += buf;
            break;
          case 6: { // self-modifying store into the patch target's
                    // immediate field (bytes 8..15 of its bundle)
            std::snprintf(buf, sizeof buf,
                          "    movi r12, patch\n"
                          "    addi r12, r12, 8\n"
                          "    movi r13, %llu\n"
                          "    st8 [r12+0], r13\n",
                          (unsigned long long)rng.pick(100000));
            src += buf;
            break;
          }
          default: { // stack traffic through the Mem-class slow path
            const unsigned rv = scratchReg(rng);
            std::snprintf(buf, sizeof buf,
                          "    push r%u\n    pop r%u\n", rv,
                          scratchReg(rng));
            src += buf;
            break;
          }
        }
    }
    // The SMC patch target: every outer iteration executes whatever
    // immediate the last chunk-6 store left here.
    src += "patch:\n"
           "    movi r13, 7\n"
           "    add r14, r14, r13\n";
    char tail[96];
    std::snprintf(tail, sizeof tail,
                  "    addi r1, r1, 1\n"
                  "    cmpi r1, %d\n"
                  "    jcc.lt outer\n"
                  "    halt\n",
                  2 + (int)rng.pick(3));
    src += tail;
    return src;
}

struct FuzzMachine : harness::BareMachine {
    FuzzMachine(const std::string &src, cpu::Engine engine)
        : harness::BareMachine(src, engine, /*writableCode=*/true)
    {}
};

/** FNV-1a over the bytes of the machine's data region (its data
 *  pages and its stack). */
std::uint64_t
dataDigest(const harness::BareMachine &m)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    std::uint8_t page[mem::kPageSize];
    for (std::uint64_t p = 0; p < harness::BareMachine::kDataPages; ++p) {
        m.as.peek(harness::BareMachine::kDataBase + p * mem::kPageSize,
                  page, sizeof page);
        for (std::uint8_t b : page) {
            h ^= b;
            h *= 0x100000001b3ull;
        }
    }
    return h;
}

struct Observed {
    Tick ticks = 0;
    Tick busy = 0;
    std::uint64_t retired = 0;
    std::uint64_t tlbHits = 0;
    std::uint64_t tlbMisses = 0;
    std::uint64_t walks = 0;
    std::uint64_t bytesRead = 0;
    std::uint64_t bytesWritten = 0;
    std::uint64_t digest = 0;
    Word regs[isa::kNumRegs] = {};

    static Observed
    of(harness::BareMachine &m)
    {
        Observed o;
        o.ticks = m.eq.curTick();
        o.busy = m.seq.busyCycles();
        o.retired = m.seq.instsRetired();
        o.tlbHits = m.seq.mmu().tlb().hits();
        o.tlbMisses = m.seq.mmu().tlb().misses();
        o.walks = m.seq.mmu().pageWalks();
        o.bytesRead = m.pmem.bytesRead();
        o.bytesWritten = m.pmem.bytesWritten();
        o.digest = dataDigest(m);
        for (unsigned r = 0; r < isa::kNumRegs; ++r)
            o.regs[r] = m.seq.context().regs[r];
        return o;
    }
};

void
expectIdentical(const Observed &ref, const Observed &got,
                cpu::Engine engine, std::uint64_t seed)
{
    const char *en = cpu::engineName(engine);
    EXPECT_EQ(got.ticks, ref.ticks) << en << " seed " << seed;
    EXPECT_EQ(got.busy, ref.busy) << en << " seed " << seed;
    EXPECT_EQ(got.retired, ref.retired) << en << " seed " << seed;
    EXPECT_EQ(got.tlbHits, ref.tlbHits) << en << " seed " << seed;
    EXPECT_EQ(got.tlbMisses, ref.tlbMisses) << en << " seed " << seed;
    EXPECT_EQ(got.walks, ref.walks) << en << " seed " << seed;
    EXPECT_EQ(got.bytesRead, ref.bytesRead) << en << " seed " << seed;
    EXPECT_EQ(got.bytesWritten, ref.bytesWritten)
        << en << " seed " << seed;
    EXPECT_EQ(got.digest, ref.digest) << en << " seed " << seed;
    for (unsigned r = 0; r < isa::kNumRegs; ++r)
        EXPECT_EQ(got.regs[r], ref.regs[r])
            << en << " seed " << seed << " r" << r;
}

} // namespace

TEST(SuperblockFuzz, EnginesBitIdenticalOver128Seeds)
{
    for (std::uint64_t seed = 1; seed <= 128; ++seed) {
        const std::string src = genProgram(seed);
        FuzzMachine ref(src, cpu::Engine::Reference);
        ref.run();
        // A generated program must actually run to completion (a
        // killed or dead seed would silently weaken the fuzzer; the
        // smallest possible program retires ~20 instructions).
        ASSERT_GT(ref.seq.instsRetired(), 15u)
            << "seed " << seed << "\n"
            << src;
        FuzzMachine sb(src, cpu::Engine::Superblock);
        sb.run();
        expectIdentical(Observed::of(ref), Observed::of(sb),
                        cpu::Engine::Superblock, seed);
        if (HasFailure())
            break; // the seed is in the failure output; stop the flood
    }
}

TEST(SuperblockFuzz, HostPokeScheduleBitIdentical)
{
    // Mid-run host pokes: run to a tick, rewrite the patch target's
    // immediate from the host side (the loader/runtime path), resume.
    // Tick-identical engines see the poke at the same logical point.
    for (std::uint64_t seed = 1; seed <= 24; ++seed) {
        const std::string src = genProgram(seed);
        Observed want;
        bool haveRef = false;
        for (cpu::Engine engine :
             {cpu::Engine::Reference, cpu::Engine::Superblock}) {
            FuzzMachine m(src, engine);
            m.start();
            const VAddr patchImm = m.prog.symbol("patch") + 8;
            for (Tick at = 4000; at <= 20000; at += 4000) {
                m.eq.run(at);
                m.as.pokeWord(patchImm, 1000 + at, 8);
            }
            m.eq.run();
            if (!haveRef) {
                want = Observed::of(m);
                haveRef = true;
            } else {
                expectIdentical(want, Observed::of(m), engine, seed);
            }
        }
        if (HasFailure())
            break;
    }
}

TEST(SuperblockFuzz, NarrowStoresAtPageEndWriteOnlyTheirBytes)
{
    // 4-, 2- and 1-byte stores into the last word of a page pre-filled
    // with 0xFF, read back whole. The leading load primes the data-side
    // last-translation cache, so under the superblock engine every
    // access here is a fixed-width replay; a store wider than its size
    // would clobber the word's 0xFF top byte.
    const std::string src = R"(
    main:
        movi r2, 0x100000
        movi r6, 0x1122334455667788
        ld8 r7, [r2+0]
        st4 [r2+4088], r6
        st2 [r2+4092], r6
        st1 [r2+4094], r6
        ld8 r7, [r2+4088]
        halt
)";
    Observed want;
    for (cpu::Engine engine :
         {cpu::Engine::Reference, cpu::Engine::Superblock}) {
        FuzzMachine m(src, engine);
        const std::vector<std::uint8_t> ones(mem::kPageSize, 0xFF);
        m.as.poke(harness::BareMachine::kDataBase, ones.data(),
                  ones.size());
        m.run();
        EXPECT_EQ(m.reg(7), 0xFF88778855667788ull)
            << cpu::engineName(engine);
        EXPECT_EQ(m.as.peekWord(harness::BareMachine::kDataBase + 4080,
                                8),
                  ~0ull)
            << cpu::engineName(engine);
        if (engine == cpu::Engine::Reference)
            want = Observed::of(m);
        else
            expectIdentical(want, Observed::of(m), engine, 0);
    }
}

TEST(SuperblockFuzz, SuperblockEngineActuallyEngages)
{
    // Guard against the fuzzer silently testing nothing: under the
    // superblock engine the generated programs must hit the decoded-
    // block fast path.
    const std::string src = genProgram(7);
    FuzzMachine m(src, cpu::Engine::Superblock);
    m.run();
    EXPECT_GT(m.seq.decodeCacheHits(), 0u);
    EXPECT_GT(m.as.decodeCache().pagesDecoded(), 0u);
}
