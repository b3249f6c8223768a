/**
 * @file
 * RMS dense linear-algebra kernels: dense_mvm, dense_mmm, dense_mvm_sym,
 * ADAt and svm_c (§5.2). Real integer computation on guest memory,
 * validated against host references; FP density of the originals is
 * modeled with COMPUTE bursts in the inner loops.
 */

#include "workloads/builder_util.hh"
#include "workloads/workload.hh"

namespace misp::wl {

using isa::Cond;
using isa::ProgramBuilder;
using namespace reg;

namespace {

constexpr std::uint64_t kValMask = 0xFFFF;

std::vector<std::int64_t>
randomInts(std::uint64_t n, std::uint64_t seed)
{
    Rng rng(seed);
    std::vector<std::int64_t> v(n);
    for (auto &x : v)
        x = static_cast<std::int64_t>(rng.next() & kValMask);
    return v;
}

/** Emit: rd = mem64[base + idxReg*8] (clobbers scratch). */
void
emitLoadIndexed(ProgramBuilder &b, unsigned rd, VAddr base,
                unsigned idxReg, unsigned scratch)
{
    b.shli(scratch, idxReg, 3);
    b.addi(scratch, scratch, static_cast<std::int64_t>(base));
    b.ld(rd, scratch, 0, 8);
}

/** Emit: mem64[base + idxReg*8] = rs (clobbers scratch). */
void
emitStoreIndexed(ProgramBuilder &b, VAddr base, unsigned idxReg,
                 unsigned rs, unsigned scratch)
{
    b.shli(scratch, idxReg, 3);
    b.addi(scratch, scratch, static_cast<std::int64_t>(base));
    b.st(scratch, 0, rs, 8);
}

} // namespace

// ---------------------------------------------------------------------
// dense_mvm: y = A * x, rows statically chunked across shreds.
// ---------------------------------------------------------------------
Workload
buildDenseMvm(const WorkloadParams &p)
{
    // Problem shape: `param.rows` overrides the row count, `param.dim`
    // the inner (dot-product) dimension — the knobs the scenario specs
    // sweep to scale the dense kernels' memory footprint.
    const std::uint64_t n = p.extraU64("rows", 512 * p.scale);
    const std::uint64_t m = p.extraU64("dim", 128);
    // Modeled FP work per row, calibrated so the compute-to-page-fault
    // ratio matches the paper's scale (see docs/ARCHITECTURE.md,
    // "Workload suite").
    const std::uint64_t rowFlops = m * 9600;

    auto aVals = randomInts(n * m, p.seed);
    auto xVals = randomInts(m, p.seed + 1);

    DataLayout layout;
    VAddr aAddr = layout.reserveInts(aVals, "A");
    VAddr xAddr = layout.reserveInts(xVals, "x");
    VAddr yAddr = layout.reserve(n * 8, "y");

    ProgramBuilder b;
    emitMainProlog(b, p.prefault
                          ? std::vector<std::pair<VAddr, std::uint64_t>>{
                                {aAddr, n * m * 8}, {xAddr, m * 8},
                                {yAddr, n * 8}}
                          : std::vector<std::pair<VAddr, std::uint64_t>>{});
    auto worker = b.newLabel();
    emitCreateAndJoin(b, p.workers, worker);
    emitMainEpilog(b);

    // worker(idx): rows [lo,hi)
    b.bind(worker);
    emitChunkBounds(b, n, p.workers, s0, s1); // s0=i, s1=hi
    auto rowLoop = b.newLabel();
    auto done = b.newLabel();
    b.bind(rowLoop);
    b.cmp(s0, s1);
    b.jcc(Cond::Ge, done);
    // t3 = &A[i][0]
    b.muli(t3, s0, static_cast<std::int64_t>(m * 8));
    b.addi(t3, t3, static_cast<std::int64_t>(aAddr));
    b.movi(t1, 0); // j
    b.movi(t2, 0); // acc
    auto inner = b.newLabel();
    auto innerDone = b.newLabel();
    b.bind(inner);
    b.cmpi(t1, static_cast<std::int64_t>(m));
    b.jcc(Cond::Ge, innerDone);
    b.shli(t0, t1, 3);
    b.add(t0, t0, t3);
    b.ld(t4, t0, 0, 8); // A[i][j]
    emitLoadIndexed(b, s2, xAddr, t1, s3); // x[j]
    b.mul(t4, t4, s2);
    b.add(t2, t2, t4);
    b.addi(t1, t1, 1);
    b.jmp(inner);
    b.bind(innerDone);
    emitComputeBurst(b, rowFlops, t1);
    emitStoreIndexed(b, yAddr, s0, t2, s3);
    b.addi(s0, s0, 1);
    b.jmp(rowLoop);
    b.bind(done);
    b.ret();

    // Host reference.
    std::vector<std::int64_t> expected(n, 0);
    for (std::uint64_t i = 0; i < n; ++i) {
        std::int64_t acc = 0;
        for (std::uint64_t j = 0; j < m; ++j)
            acc += aVals[i * m + j] * xVals[j];
        expected[i] = acc;
    }

    Workload w;
    w.app.name = "dense_mvm";
    w.app.program = b.finish(mem::kCodeBase);
    w.app.data = layout.take();
    w.validate = makeIntArrayValidator(yAddr, std::move(expected),
                                       "dense_mvm.y");
    w.workEstimate = n * (m * 10 + rowFlops);
    return w;
}

// ---------------------------------------------------------------------
// dense_mmm: C = A * B, rows of C chunked across shreds.
// ---------------------------------------------------------------------
Workload
buildDenseMmm(const WorkloadParams &p)
{
    const std::uint64_t n = 48 * p.scale; // C is n x n, A n x k, B k x n
    const std::uint64_t k = 48;
    const std::uint64_t dotFlops = k * 9600;

    auto aVals = randomInts(n * k, p.seed);
    auto bVals = randomInts(k * n, p.seed + 1);

    DataLayout layout;
    VAddr aAddr = layout.reserveInts(aVals, "A");
    VAddr bAddr = layout.reserveInts(bVals, "B");
    VAddr cAddr = layout.reserve(n * n * 8, "C");

    ProgramBuilder b;
    emitMainProlog(b);
    auto worker = b.newLabel();
    emitCreateAndJoin(b, p.workers, worker);
    emitMainEpilog(b);

    b.bind(worker);
    emitChunkBounds(b, n, p.workers, s0, s1); // i in [s0, s1)
    auto iLoop = b.newLabel(), iDone = b.newLabel();
    b.bind(iLoop);
    b.cmp(s0, s1);
    b.jcc(Cond::Ge, iDone);
    b.movi(s2, 0); // j
    auto jLoop = b.newLabel(), jDone = b.newLabel();
    b.bind(jLoop);
    b.cmpi(s2, static_cast<std::int64_t>(n));
    b.jcc(Cond::Ge, jDone);
    b.movi(t1, 0); // l
    b.movi(t2, 0); // acc
    auto lLoop = b.newLabel(), lDone = b.newLabel();
    b.bind(lLoop);
    b.cmpi(t1, static_cast<std::int64_t>(k));
    b.jcc(Cond::Ge, lDone);
    // A[i][l]
    b.muli(t0, s0, static_cast<std::int64_t>(k));
    b.add(t0, t0, t1);
    b.shli(t0, t0, 3);
    b.addi(t0, t0, static_cast<std::int64_t>(aAddr));
    b.ld(t3, t0, 0, 8);
    // B[l][j]
    b.muli(t0, t1, static_cast<std::int64_t>(n));
    b.add(t0, t0, s2);
    b.shli(t0, t0, 3);
    b.addi(t0, t0, static_cast<std::int64_t>(bAddr));
    b.ld(t4, t0, 0, 8);
    b.mul(t3, t3, t4);
    b.add(t2, t2, t3);
    b.addi(t1, t1, 1);
    b.jmp(lLoop);
    b.bind(lDone);
    emitComputeBurst(b, dotFlops, t1);
    // C[i][j] = acc
    b.muli(t0, s0, static_cast<std::int64_t>(n));
    b.add(t0, t0, s2);
    b.shli(t0, t0, 3);
    b.addi(t0, t0, static_cast<std::int64_t>(cAddr));
    b.st(t0, 0, t2, 8);
    b.addi(s2, s2, 1);
    b.jmp(jLoop);
    b.bind(jDone);
    b.addi(s0, s0, 1);
    b.jmp(iLoop);
    b.bind(iDone);
    b.ret();

    std::vector<std::int64_t> expected(n * n, 0);
    for (std::uint64_t i = 0; i < n; ++i) {
        for (std::uint64_t j = 0; j < n; ++j) {
            std::int64_t acc = 0;
            for (std::uint64_t l = 0; l < k; ++l)
                acc += aVals[i * k + l] * bVals[l * n + j];
            expected[i * n + j] = acc;
        }
    }

    Workload w;
    w.app.name = "dense_mmm";
    w.app.program = b.finish(mem::kCodeBase);
    w.app.data = layout.take();
    w.validate = makeIntArrayValidator(cAddr, std::move(expected),
                                       "dense_mmm.C");
    w.workEstimate = n * n * (k * 12 + dotFlops);
    return w;
}

// ---------------------------------------------------------------------
// dense_mvm_sym: y = A * x with A symmetric, stored as the packed upper
// triangle; off-diagonal contributions scatter into y with atomic
// FETCHADD (the locking the symmetric variants need).
// ---------------------------------------------------------------------
Workload
buildDenseMvmSym(const WorkloadParams &p)
{
    const std::uint64_t n = 256 * p.scale;
    // Packed upper triangle: element (i,j), j>=i, at off(i) + (j-i),
    // off(i) = i*n - i*(i-1)/2.
    const std::uint64_t packed = n * (n + 1) / 2;

    auto aVals = randomInts(packed, p.seed);
    auto xVals = randomInts(n, p.seed + 1);

    DataLayout layout;
    VAddr aAddr = layout.reserveInts(aVals, "Apacked");
    VAddr xAddr = layout.reserveInts(xVals, "x");
    VAddr yAddr = layout.reserve(n * 8, "y");
    // Host-side offset table avoids guest-side triangular arithmetic.
    std::vector<std::int64_t> offs(n);
    for (std::uint64_t i = 0; i < n; ++i)
        offs[i] = static_cast<std::int64_t>(i * n - i * (i - 1) / 2);
    VAddr offAddr = layout.reserveInts(offs, "rowOffsets");

    ProgramBuilder b;
    emitMainProlog(b);
    auto worker = b.newLabel();
    emitCreateAndJoin(b, p.workers, worker);
    emitMainEpilog(b);

    b.bind(worker);
    emitChunkBounds(b, n, p.workers, s0, s1);
    auto iLoop = b.newLabel(), iDone = b.newLabel();
    b.bind(iLoop);
    b.cmp(s0, s1);
    b.jcc(Cond::Ge, iDone);
    // t3 = &A[off(i)]
    emitLoadIndexed(b, t3, offAddr, s0, t0);
    b.shli(t3, t3, 3);
    b.addi(t3, t3, static_cast<std::int64_t>(aAddr));
    emitLoadIndexed(b, s4, xAddr, s0, t0); // s4 = x[i]
    b.mov(s2, s0);  // j = i
    b.movi(t2, 0);  // acc for y[i]
    auto jLoop = b.newLabel(), jDone = b.newLabel();
    b.bind(jLoop);
    b.cmpi(s2, static_cast<std::int64_t>(n));
    b.jcc(Cond::Ge, jDone);
    b.ld(t4, t3, 0, 8); // av = *cursor
    emitLoadIndexed(b, t0, xAddr, s2, t1);
    b.mul(t0, t0, t4);
    b.add(t2, t2, t0); // acc += av * x[j]
    // if j > i: y[j] += av * x[i], atomically
    b.cmp(s2, s0);
    auto noScatter = b.newLabel();
    b.jcc(Cond::Le, noScatter);
    b.mul(t0, t4, s4);       // av * x[i]
    b.shli(t1, s2, 3);
    b.addi(t1, t1, static_cast<std::int64_t>(yAddr));
    b.fetchadd(s3, t1, t0);  // y[j] += ...
    b.bind(noScatter);
    b.addi(t3, t3, 8);
    b.addi(s2, s2, 1);
    b.jmp(jLoop);
    b.bind(jDone);
    emitComputeBurst(b, n * 12000, t1);
    // y[i] += acc, atomically (other rows scatter into it too).
    b.shli(t1, s0, 3);
    b.addi(t1, t1, static_cast<std::int64_t>(yAddr));
    b.fetchadd(s3, t1, t2);
    b.addi(s0, s0, 1);
    b.jmp(iLoop);
    b.bind(iDone);
    b.ret();

    std::vector<std::int64_t> expected(n, 0);
    for (std::uint64_t i = 0; i < n; ++i) {
        for (std::uint64_t j = i; j < n; ++j) {
            std::int64_t av =
                aVals[i * n - i * (i - 1) / 2 + (j - i)];
            expected[i] += av * xVals[j];
            if (j > i)
                expected[j] += av * xVals[i];
        }
    }

    Workload w;
    w.app.name = "dense_mvm_sym";
    w.app.program = b.finish(mem::kCodeBase);
    w.app.data = layout.take();
    w.validate = makeIntArrayValidator(yAddr, std::move(expected),
                                       "dense_mvm_sym.y");
    w.workEstimate = packed * 24;
    return w;
}

// ---------------------------------------------------------------------
// ADAt: B = A * D * A^T with diagonal D — the covariance-style kernel.
// ---------------------------------------------------------------------
Workload
buildAdat(const WorkloadParams &p)
{
    const std::uint64_t n = 40 * p.scale; // B is n x n
    const std::uint64_t k = 64;           // A is n x k, D is k

    auto aVals = randomInts(n * k, p.seed);
    auto dVals = randomInts(k, p.seed + 1);

    DataLayout layout;
    VAddr aAddr = layout.reserveInts(aVals, "A");
    VAddr dAddr = layout.reserveInts(dVals, "D");
    VAddr bAddr = layout.reserve(n * n * 8, "B");

    ProgramBuilder b;
    emitMainProlog(b);
    auto worker = b.newLabel();
    emitCreateAndJoin(b, p.workers, worker);
    emitMainEpilog(b);

    b.bind(worker);
    emitChunkBounds(b, n, p.workers, s0, s1);
    auto iLoop = b.newLabel(), iDone = b.newLabel();
    b.bind(iLoop);
    b.cmp(s0, s1);
    b.jcc(Cond::Ge, iDone);
    b.movi(s2, 0); // j
    auto jLoop = b.newLabel(), jDone = b.newLabel();
    b.bind(jLoop);
    b.cmpi(s2, static_cast<std::int64_t>(n));
    b.jcc(Cond::Ge, jDone);
    b.movi(t1, 0); // l
    b.movi(t2, 0); // acc
    auto lLoop = b.newLabel(), lDone = b.newLabel();
    b.bind(lLoop);
    b.cmpi(t1, static_cast<std::int64_t>(k));
    b.jcc(Cond::Ge, lDone);
    // A[i][l] * D[l] * A[j][l], with values masked to stay in range.
    b.muli(t0, s0, static_cast<std::int64_t>(k));
    b.add(t0, t0, t1);
    b.shli(t0, t0, 3);
    b.addi(t0, t0, static_cast<std::int64_t>(aAddr));
    b.ld(t3, t0, 0, 8);
    emitLoadIndexed(b, t4, dAddr, t1, t0);
    b.mul(t3, t3, t4);
    b.andi(t3, t3, 0xFFFFF); // keep magnitudes bounded
    b.muli(t0, s2, static_cast<std::int64_t>(k));
    b.add(t0, t0, t1);
    b.shli(t0, t0, 3);
    b.addi(t0, t0, static_cast<std::int64_t>(aAddr));
    b.ld(t4, t0, 0, 8);
    b.mul(t3, t3, t4);
    b.add(t2, t2, t3);
    b.addi(t1, t1, 1);
    b.jmp(lLoop);
    b.bind(lDone);
    emitComputeBurst(b, k * 9600, t1);
    b.muli(t0, s0, static_cast<std::int64_t>(n));
    b.add(t0, t0, s2);
    b.shli(t0, t0, 3);
    b.addi(t0, t0, static_cast<std::int64_t>(bAddr));
    b.st(t0, 0, t2, 8);
    b.addi(s2, s2, 1);
    b.jmp(jLoop);
    b.bind(jDone);
    b.addi(s0, s0, 1);
    b.jmp(iLoop);
    b.bind(iDone);
    b.ret();

    std::vector<std::int64_t> expected(n * n, 0);
    for (std::uint64_t i = 0; i < n; ++i) {
        for (std::uint64_t j = 0; j < n; ++j) {
            std::int64_t acc = 0;
            for (std::uint64_t l = 0; l < k; ++l) {
                std::int64_t t =
                    (aVals[i * k + l] * dVals[l]) & 0xFFFFF;
                acc += t * aVals[j * k + l];
            }
            expected[i * n + j] = acc;
        }
    }

    Workload w;
    w.app.name = "ADAt";
    w.app.program = b.finish(mem::kCodeBase);
    w.app.data = layout.take();
    w.validate = makeIntArrayValidator(bAddr, std::move(expected),
                                       "ADAt.B");
    w.workEstimate = n * n * k * 16;
    return w;
}

// ---------------------------------------------------------------------
// svm_c: SVM classification — dot-product scores of samples against
// support vectors. The samples are initialized *serially by main*, so
// this kernel shows the paper's gauss/kmeans/svm_c profile of many OMS
// (not AMS) compulsory page faults.
// ---------------------------------------------------------------------
Workload
buildSvmC(const WorkloadParams &p)
{
    const std::uint64_t samples = 512 * p.scale;
    const std::uint64_t vectors = 32;
    const std::uint64_t dim = 64;     // sample dimensionality
    const std::uint64_t dimStep = 8;  // sparse feature stride
    const std::uint64_t fillMult = 77, fillAdd = 13;

    auto svVals = randomInts(vectors * dim, p.seed);
    auto alphaVals = randomInts(vectors, p.seed + 1);

    DataLayout layout;
    VAddr sampleAddr = layout.reserve(samples * dim * 8, "samples");
    VAddr svAddr = layout.reserveInts(svVals, "supportVectors");
    VAddr alphaAddr = layout.reserveInts(alphaVals, "alpha");
    VAddr scoreAddr = layout.reserve(samples * 8, "scores");

    ProgramBuilder b;
    emitMainProlog(b);
    // Serial sample initialization on the OMS (guest stores).
    emitSerialFill(b, sampleAddr, samples * dim, 8, fillMult, fillAdd,
                   kValMask);
    auto worker = b.newLabel();
    emitCreateAndJoin(b, p.workers, worker);
    emitMainEpilog(b);

    b.bind(worker);
    emitChunkBounds(b, samples, p.workers, s0, s1);
    auto sLoop = b.newLabel(), sDone = b.newLabel();
    b.bind(sLoop);
    b.cmp(s0, s1);
    b.jcc(Cond::Ge, sDone);
    b.movi(s2, 0); // v
    b.movi(s3, 0); // score acc
    auto vLoop = b.newLabel(), vDone = b.newLabel();
    b.bind(vLoop);
    b.cmpi(s2, static_cast<std::int64_t>(vectors));
    b.jcc(Cond::Ge, vDone);
    b.movi(t1, 0); // d
    b.movi(t2, 0); // dot
    auto dLoop = b.newLabel(), dDone = b.newLabel();
    b.bind(dLoop);
    b.cmpi(t1, static_cast<std::int64_t>(dim));
    b.jcc(Cond::Ge, dDone);
    b.muli(t0, s0, static_cast<std::int64_t>(dim));
    b.add(t0, t0, t1);
    b.shli(t0, t0, 3);
    b.addi(t0, t0, static_cast<std::int64_t>(sampleAddr));
    b.ld(t3, t0, 0, 8);
    b.muli(t0, s2, static_cast<std::int64_t>(dim));
    b.add(t0, t0, t1);
    b.shli(t0, t0, 3);
    b.addi(t0, t0, static_cast<std::int64_t>(svAddr));
    b.ld(t4, t0, 0, 8);
    b.mul(t3, t3, t4);
    b.add(t2, t2, t3);
    b.addi(t1, t1, static_cast<std::int64_t>(dimStep));
    b.jmp(dLoop);
    b.bind(dDone);
    b.andi(t2, t2, 0xFFFFFFF);
    emitLoadIndexed(b, t4, alphaAddr, s2, t0);
    b.mul(t2, t2, t4);
    b.add(s3, s3, t2);
    emitComputeBurst(b, 64000, t1); // kernel-function FP cost
    b.addi(s2, s2, 1);
    b.jmp(vLoop);
    b.bind(vDone);
    emitStoreIndexed(b, scoreAddr, s0, s3, t0);
    b.addi(s0, s0, 1);
    b.jmp(sLoop);
    b.bind(sDone);
    b.ret();

    // Host reference, mirroring the guest serial fill.
    auto sampleHost = hostFill(samples * dim, fillMult, fillAdd, kValMask);
    std::vector<std::int64_t> expected(samples, 0);
    for (std::uint64_t s = 0; s < samples; ++s) {
        std::int64_t score = 0;
        for (std::uint64_t v = 0; v < vectors; ++v) {
            std::int64_t dot = 0;
            for (std::uint64_t d = 0; d < dim; d += dimStep)
                dot += sampleHost[s * dim + d] * svVals[v * dim + d];
            dot &= 0xFFFFFFF;
            score += dot * alphaVals[v];
        }
        expected[s] = score;
    }

    Workload w;
    w.app.name = "svm_c";
    w.app.program = b.finish(mem::kCodeBase);
    w.app.data = layout.take();
    w.validate = makeIntArrayValidator(scoreAddr, std::move(expected),
                                       "svm_c.scores");
    w.workEstimate = samples * vectors * (dim / dimStep * 12 + 64000);
    return w;
}

} // namespace misp::wl
