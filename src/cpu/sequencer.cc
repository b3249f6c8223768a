#include "sequencer.hh"

#include <algorithm>

#include "obs/trace.hh"
#include "snapshot/state_io.hh"

namespace misp::cpu {

namespace {

/** Shorthand for the sequencer lifecycle hooks: sid in the event, the
 *  pre-transition state in aux (deterministic; engine-independent). */
inline void
traceShred(obs::TraceKind kind, SequencerId sid, SeqState prior,
           std::uint64_t arg0 = 0, std::uint64_t arg1 = 0)
{
    obs::trace(kind, static_cast<std::uint16_t>(sid),
               static_cast<std::uint32_t>(prior), arg0, arg1);
}

} // namespace

using isa::Opcode;
using isa::Scenario;

const char *
seqStateName(SeqState s)
{
    switch (s) {
      case SeqState::Idle: return "idle";
      case SeqState::Running: return "running";
      case SeqState::InKernel: return "in-kernel";
      case SeqState::Suspended: return "suspended";
      case SeqState::WaitingProxy: return "waiting-proxy";
      case SeqState::Halted: return "halted";
    }
    return "?";
}

Sequencer::Sequencer(std::string name, SequencerId sid, bool ring0Capable,
                     EventQueue &eq, mem::PhysicalMemory &pmem,
                     stats::StatGroup *parent)
    : name_(std::move(name)),
      sid_(sid),
      ring0Capable_(ring0Capable),
      eq_(eq),
      runEvent_(*this),
      statGroup_(name_, parent),
      instsRetired_(&statGroup_, "instsRetired", "instructions retired"),
      busyCycles_(&statGroup_, "busyCycles", "cycles executing user code"),
      kernelCycles_(&statGroup_, "kernelCycles",
                    "cycles in modeled Ring-0 episodes"),
      suspendedCycles_(&statGroup_, "suspendedCycles",
                       "cycles suspended by MISP serialization"),
      proxyWaitCycles_(&statGroup_, "proxyWaitCycles",
                       "cycles waiting for proxy execution"),
      signalsReceived_(&statGroup_, "signalsReceived",
                       "ingress inter-sequencer signals"),
      signalsSent_(&statGroup_, "signalsSent",
                   "egress SIGNAL instructions executed"),
      asyncTransfers_(&statGroup_, "asyncTransfers",
                      "YIELD-CONDITIONAL asynchronous control transfers"),
      faultsRaised_(&statGroup_, "faultsRaised", "architectural faults"),
      decodeCacheHits_(&statGroup_, "decodeCacheHits",
                       "instructions dispatched from a live predecoded "
                       "block"),
      decodeCacheMisses_(&statGroup_, "decodeCacheMisses",
                         "decoded-block refills (page switch, "
                         "invalidation, or CR3 change)"),
      mmu_("mmu", pmem, &statGroup_)
{}

Sequencer::~Sequencer()
{
    if (runEvent_.scheduled())
        eq_.deschedule(&runEvent_);
}

void
Sequencer::setSliceLimit(unsigned insts)
{
    MISP_ASSERT(insts > 0);
    sliceLimit_ = insts;
}

void
Sequencer::scheduleRun(Tick when)
{
    if (!runEvent_.scheduled())
        eq_.schedule(&runEvent_, when);
}

void
Sequencer::stopRunEvent()
{
    if (runEvent_.scheduled())
        eq_.deschedule(&runEvent_);
}

void
Sequencer::startAt(VAddr eip, VAddr esp, Word arg)
{
    MISP_ASSERT(state_ == SeqState::Idle || state_ == SeqState::Halted);
    traceShred(obs::TraceKind::ShredStart, sid_, state_, eip, arg);
    ctx_.eip = eip;
    ctx_.sp() = esp;
    ctx_.regs[2] = arg;
    ctx_.inHandler = false;
    ctx_.savedEip = 0;
    state_ = SeqState::Running;
    scheduleRun(eq_.curTick());
}

void
Sequencer::suspend()
{
    switch (state_) {
      case SeqState::Running:
        // Applied at the next slice boundary.
        traceShred(obs::TraceKind::ShredSuspend, sid_, state_);
        suspendRequested_ = true;
        break;
      case SeqState::Idle:
        traceShred(obs::TraceKind::ShredSuspend, sid_, state_);
        preSuspendState_ = SeqState::Idle;
        state_ = SeqState::Suspended;
        waitSince_ = eq_.curTick();
        break;
      case SeqState::Suspended:
      case SeqState::WaitingProxy:
      case SeqState::Halted:
      case SeqState::InKernel:
        // Already stopped (or OMS-only state): nothing to do. A
        // proxy-waiting AMS stays in the proxy protocol.
        break;
    }
}

void
Sequencer::resume(bool retryFault)
{
    Tick now = eq_.curTick();
    switch (state_) {
      case SeqState::Running:
        // Suspension was requested but never took effect before the
        // resume arrived; just cancel the request.
        suspendRequested_ = false;
        break;
      case SeqState::Suspended:
        traceShred(obs::TraceKind::ShredResume, sid_, state_);
        suspendedCycles_ += now - waitSince_;
        suspendRequested_ = false;
        if (preSuspendState_ == SeqState::Idle) {
            state_ = SeqState::Idle;
            dispatchPendingAsync();
        } else {
            state_ = SeqState::Running;
            scheduleRun(now);
        }
        break;
      case SeqState::WaitingProxy:
        MISP_ASSERT(retryFault);
        traceShred(obs::TraceKind::ShredResume, sid_, state_);
        proxyWaitCycles_ += now - waitSince_;
        state_ = SeqState::Running;
        scheduleRun(now);
        break;
      case SeqState::InKernel:
        traceShred(obs::TraceKind::ShredResume, sid_, state_);
        state_ = SeqState::Running;
        scheduleRun(std::max(kernelResumeFloor_, now));
        break;
      case SeqState::Idle:
      case SeqState::Halted:
        panic("%s: resume from state %s", name_.c_str(),
              seqStateName(state_));
    }
}

void
Sequencer::resumeFromSerialization()
{
    if (state_ == SeqState::Suspended) {
        resume();
    } else if (state_ == SeqState::Running && suspendRequested_) {
        suspendRequested_ = false;
    }
}

void
Sequencer::park()
{
    MISP_ASSERT(state_ == SeqState::Running);
    traceShred(obs::TraceKind::ShredPark, sid_, state_);
    state_ = SeqState::Idle;
    // Queued work may immediately restart the sequencer.
    dispatchPendingAsync();
}

void
Sequencer::halt()
{
    traceShred(obs::TraceKind::ShredHalt, sid_, state_);
    stopRunEvent();
    state_ = SeqState::Halted;
}

void
Sequencer::beginProxyWait()
{
    MISP_ASSERT(!ring0Capable_); // only AMSs proxy
    MISP_ASSERT(state_ == SeqState::Running);
    traceShred(obs::TraceKind::ShredProxyWait, sid_, state_);
    state_ = SeqState::WaitingProxy;
    waitSince_ = eq_.curTick();
}

void
Sequencer::enterKernelEpisode()
{
    MISP_ASSERT(ring0Capable_);
    MISP_ASSERT(state_ == SeqState::Running);
    state_ = SeqState::InKernel;
    kernelResumeFloor_ = eq_.curTick();
}

bool
Sequencer::pauseForKernel()
{
    MISP_ASSERT(ring0Capable_);
    if (state_ != SeqState::Running)
        return false;
    // The displaced slice already committed work up to its scheduled
    // re-run tick; remember it so resume() does not double-book time.
    kernelResumeFloor_ =
        runEvent_.scheduled() ? runEvent_.when() : eq_.curTick();
    stopRunEvent();
    state_ = SeqState::InKernel;
    return true;
}

void
Sequencer::restartFromContext(const SequencerContext &ctx)
{
    MISP_ASSERT(state_ == SeqState::Idle);
    ctx_ = ctx;
    state_ = SeqState::Running;
    scheduleRun(eq_.curTick());
}

void
Sequencer::unloadForSwitch()
{
    if (state_ == SeqState::Halted)
        return;
    Tick now = eq_.curTick();
    switch (state_) {
      case SeqState::Suspended:
        suspendedCycles_ += now - waitSince_;
        break;
      case SeqState::WaitingProxy:
        proxyWaitCycles_ += now - waitSince_;
        break;
      default:
        break;
    }
    stopRunEvent();
    suspendRequested_ = false;
    if (!pendingSignals_.empty()) {
        // The dropped payloads belong to the outgoing thread's shreds.
        traceShred(obs::TraceKind::SignalDrop, sid_, state_,
                   pendingSignals_.size());
    }
    pendingSignals_.clear();
    state_ = SeqState::Idle;
}

void
Sequencer::deliverSignal(const SignalPayload &payload)
{
    if (state_ == SeqState::Halted) {
        warn("%s: dropping signal to halted sequencer", name_.c_str());
        traceShred(obs::TraceKind::SignalDrop, sid_, state_, 1);
        return;
    }
    ++signalsReceived_;
    traceShred(obs::TraceKind::SignalDeliver, sid_, state_, payload.eip,
               payload.arg);
    pendingSignals_.push_back(payload);
    if (state_ == SeqState::Idle)
        dispatchPendingAsync();
    // Running sequencers pick it up at the next instruction boundary;
    // suspended ones when resumed.
}

void
Sequencer::deliverProxyRequest(const SignalPayload &payload)
{
    MISP_ASSERT(ring0Capable_);
    if (state_ == SeqState::Halted) {
        warn("%s: dropping proxy request to halted sequencer",
             name_.c_str());
        traceShred(obs::TraceKind::SignalDrop, sid_, state_, 1);
        return;
    }
    ++signalsReceived_;
    traceShred(obs::TraceKind::ProxyDeliver, sid_, state_, payload.arg);
    pendingProxy_.push_back(payload);
    if (state_ == SeqState::Idle)
        dispatchPendingAsync();
}

Cycles
Sequencer::dispatchPendingAsync()
{
    if (ctx_.inHandler)
        return 0;

    if (state_ == SeqState::Idle) {
        if (!pendingProxy_.empty() &&
            ctx_.trigger(Scenario::ProxyRequest) != 0) {
            SignalPayload p = pendingProxy_.front();
            pendingProxy_.pop_front();
            // Transfer out of the idle loop: YRET will re-park.
            ctx_.eip = 0;
            state_ = SeqState::Running;
            asyncTransfer(Scenario::ProxyRequest,
                          ctx_.trigger(Scenario::ProxyRequest), p);
            scheduleRun(eq_.curTick());
            return kAsyncXferCycles;
        }
        if (!pendingSignals_.empty()) {
            SignalPayload p = pendingSignals_.front();
            pendingSignals_.pop_front();
            startAt(p.eip, p.esp, p.arg);
            return 0;
        }
        return 0;
    }

    if (state_ != SeqState::Running)
        return 0;

    if (!pendingProxy_.empty() &&
        ctx_.trigger(Scenario::ProxyRequest) != 0) {
        SignalPayload p = pendingProxy_.front();
        pendingProxy_.pop_front();
        asyncTransfer(Scenario::ProxyRequest,
                      ctx_.trigger(Scenario::ProxyRequest), p);
        return kAsyncXferCycles;
    }
    if (!pendingSignals_.empty() &&
        ctx_.trigger(Scenario::IngressSignal) != 0) {
        SignalPayload p = pendingSignals_.front();
        pendingSignals_.pop_front();
        asyncTransfer(Scenario::IngressSignal,
                      ctx_.trigger(Scenario::IngressSignal), p);
        return kAsyncXferCycles;
    }
    return 0;
}

void
Sequencer::asyncTransfer(Scenario scenario, VAddr handler,
                         const SignalPayload &payload)
{
    MISP_ASSERT(!ctx_.inHandler);
    ++asyncTransfers_;
    ctx_.savedEip = ctx_.eip;
    ctx_.inHandler = true;
    for (unsigned i = 0; i < 4; ++i)
        ctx_.bankedRegs[i] = ctx_.regs[kRegScenario + i];
    ctx_.regs[kRegScenario] = static_cast<Word>(scenario);
    ctx_.regs[kRegPayloadArg] = payload.arg;
    ctx_.regs[kRegPayloadEip] = payload.eip;
    ctx_.regs[kRegPayloadEsp] = payload.esp;
    ctx_.eip = handler;
}

void
Sequencer::runSlice()
{
    if (state_ != SeqState::Running)
        return; // stale event

    Tick start = eq_.curTick();
    Cycles consumed = 0;
    unsigned executed = 0;
    bool stop = false;

    if (suspendRequested_) {
        suspendRequested_ = false;
        preSuspendState_ = SeqState::Running;
        state_ = SeqState::Suspended;
        waitSince_ = start;
        return;
    }

    inSlice_ = true;
    if (engine_ == Engine::Superblock) {
        runSuperblocks(&executed, &consumed);
    } else {
        while (executed < sliceLimit_ && consumed < sliceCycleBudget_ &&
               !stop) {
            consumed += dispatchPendingAsync();
            consumed += executeOne(&stop);
            ++executed;
            if (suspendRequested_)
                break;
        }
    }
    inSlice_ = false;

    if (consumed == 0)
        consumed = 1;
    busyCycles_ += consumed;

    if (state_ == SeqState::Running) {
        if (suspendRequested_) {
            suspendRequested_ = false;
            preSuspendState_ = SeqState::Running;
            state_ = SeqState::Suspended;
            waitSince_ = start + consumed;
        } else {
            scheduleRun(start + consumed);
        }
    }
}

Cycles
Sequencer::handleFaultFromExec(const mem::Fault &fault, bool *stop,
                               bool *advance)
{
    ++faultsRaised_;
    MISP_ASSERT(env_ != nullptr);
    Cycles extra = 0;
    FaultAction action = env_->handleFault(*this, fault, &extra);
    switch (action) {
      case FaultAction::Retry:
        *advance = false;
        *stop = true; // re-sync at a clean slice boundary
        break;
      case FaultAction::Continue:
        *advance = true;
        break;
      case FaultAction::Deferred:
        *advance = false;
        *stop = true;
        MISP_ASSERT(state_ != SeqState::Running);
        break;
      case FaultAction::Kill:
        *advance = false;
        *stop = true;
        halt();
        break;
    }
    return extra;
}

void
Sequencer::setFlagsFromCompare(SWord a, SWord b)
{
    SWord diff;
    bool of = __builtin_sub_overflow(a, b, &diff);
    ctx_.flags.zf = a == b;
    ctx_.flags.sf = diff < 0;
    ctx_.flags.cf =
        static_cast<std::uint64_t>(a) < static_cast<std::uint64_t>(b);
    ctx_.flags.of = of;
}

bool
Sequencer::condHolds(isa::Cond cond) const
{
    const isa::Flags &f = ctx_.flags;
    switch (cond) {
      case isa::Cond::Eq: return f.zf;
      case isa::Cond::Ne: return !f.zf;
      case isa::Cond::Lt: return f.sf != f.of;
      case isa::Cond::Le: return f.zf || (f.sf != f.of);
      case isa::Cond::Gt: return !f.zf && (f.sf == f.of);
      case isa::Cond::Ge: return f.sf == f.of;
      case isa::Cond::Ult: return f.cf;
      case isa::Cond::Uge: return !f.cf;
      case isa::Cond::NumConds: break; // rejected by decode
    }
    return false;
}

void
Sequencer::refillBlock(std::uint64_t vpn, PAddr pa)
{
    ++decodeCacheMisses_;
    mem::AddressSpace *as = mmu_.addressSpace();
    MISP_ASSERT(as != nullptr); // fetch translation just succeeded
    DecodeCache &dc = as->decodeCache();
    const PAddr paBase = pa & ~static_cast<PAddr>(mem::kPageMask);
    DecodedPage *page = dc.find(vpn);
    if (!page || page->paBase != paBase)
        page = dc.decodePage(vpn, paBase);
    block_.page = page;
    block_.vpn = vpn;
    block_.version = page->version;
    block_.asGen = mmu_.addressSpaceGen();
}

Cycles
Sequencer::executeOne(bool *stop)
{
    std::uint8_t buf[isa::kInstBytes];
    mem::AccessResult fr = mmu_.fetchInst(ctx_.eip, buf, ring_);
    Cycles cycles = fr.cycles;
    if (fr.fault) {
        bool advance = false;
        cycles += handleFaultFromExec(fr.fault, stop, &advance);
        return cycles;
    }

    isa::Instruction inst;
    if (!isa::decode(buf, &inst)) {
        bool advance = false;
        cycles += handleFaultFromExec(
            mem::Fault::of(mem::FaultKind::InvalidOpcode, ctx_.eip), stop,
            &advance);
        if (advance)
            ctx_.eip += isa::kInstBytes;
        return cycles;
    }

    return executeDecoded(inst, cycles + isa::baseLatency(inst.op), stop);
}

Cycles
Sequencer::executeDecoded(const isa::Instruction &inst, Cycles cycles,
                          bool *stop)
{
    auto &regs = ctx_.regs;
    bool advance = true;

    // Memory access helpers that route faults through the environment.
    bool faulted = false;
    auto memRead = [&](VAddr va, unsigned size, Word *out) {
        mem::AccessResult r = mmu_.read(va, size, ring_);
        cycles += r.cycles;
        if (r.fault) {
            cycles += handleFaultFromExec(r.fault, stop, &advance);
            faulted = true;
            return false;
        }
        *out = r.value;
        return true;
    };
    auto memWrite = [&](VAddr va, Word value, unsigned size) {
        mem::AccessResult r = mmu_.write(va, value, size, ring_);
        cycles += r.cycles;
        if (r.fault) {
            cycles += handleFaultFromExec(r.fault, stop, &advance);
            faulted = true;
            return false;
        }
        return true;
    };
    // Atomic read-modify-write: one translation with write intent.
    auto memRmw = [&](VAddr va, Word *oldOut,
                      auto &&newValue) { // newValue(Word old) -> Word
        PAddr pa = 0;
        mem::AccessResult r =
            mmu_.translate(va, 8, mem::Access::Write, ring_, &pa);
        cycles += r.cycles;
        if (r.fault) {
            cycles += handleFaultFromExec(r.fault, stop, &advance);
            faulted = true;
            return false;
        }
        Word old = mmu_.read(va, 8, ring_).value;
        *oldOut = old;
        mmu_.write(va, newValue(old), 8, ring_);
        return true;
    };

    switch (inst.op) {
      case Opcode::Halt:
        advance = false;
        *stop = true;
        halt();
        if (env_)
            env_->sequencerHalted(*this);
        break;
      case Opcode::Div:
      case Opcode::Rem: {
        if (regs[inst.rs2] == 0) {
            cycles += handleFaultFromExec(
                mem::Fault::of(mem::FaultKind::DivideError, ctx_.eip),
                stop, &advance);
            break;
        }
        SWord a = static_cast<SWord>(regs[inst.rs1]);
        SWord b = static_cast<SWord>(regs[inst.rs2]);
        regs[inst.rd] = static_cast<Word>(
            inst.op == Opcode::Div ? a / b : a % b);
        break;
      }
      case Opcode::DivI: {
        if (inst.imm == 0) {
            cycles += handleFaultFromExec(
                mem::Fault::of(mem::FaultKind::DivideError, ctx_.eip),
                stop, &advance);
            break;
        }
        regs[inst.rd] = static_cast<Word>(
            static_cast<SWord>(regs[inst.rs1]) /
            static_cast<SWord>(inst.imm));
        break;
      }
      case Opcode::Ld: {
        Word v = 0;
        if (memRead(regs[inst.rs1] + inst.imm, inst.sub, &v))
            regs[inst.rd] = v;
        break;
      }
      case Opcode::St:
        memWrite(regs[inst.rs1] + inst.imm, regs[inst.rs2], inst.sub);
        break;
      case Opcode::Push: {
        Word newSp = ctx_.sp() - 8;
        if (memWrite(newSp, regs[inst.rs1], 8))
            ctx_.sp() = newSp;
        break;
      }
      case Opcode::Pop: {
        Word v = 0;
        if (memRead(ctx_.sp(), 8, &v)) {
            regs[inst.rd] = v;
            ctx_.sp() += 8;
        }
        break;
      }
      case Opcode::Jmp:
        ctx_.eip = inst.imm;
        advance = false;
        break;
      case Opcode::JmpR:
        ctx_.eip = regs[inst.rs1];
        advance = false;
        break;
      case Opcode::Jcc:
        if (condHolds(static_cast<isa::Cond>(inst.sub))) {
            ctx_.eip = inst.imm;
            advance = false;
        }
        break;
      case Opcode::Call: {
        Word newSp = ctx_.sp() - 8;
        if (memWrite(newSp, ctx_.eip + isa::kInstBytes, 8)) {
            ctx_.sp() = newSp;
            ctx_.eip = inst.imm;
            advance = false;
        }
        break;
      }
      case Opcode::CallR: {
        VAddr target = regs[inst.rs1];
        Word newSp = ctx_.sp() - 8;
        if (memWrite(newSp, ctx_.eip + isa::kInstBytes, 8)) {
            ctx_.sp() = newSp;
            ctx_.eip = target;
            advance = false;
        }
        break;
      }
      case Opcode::Ret: {
        Word v = 0;
        if (memRead(ctx_.sp(), 8, &v)) {
            ctx_.sp() += 8;
            ctx_.eip = v;
            advance = false;
        }
        break;
      }
      case Opcode::Xchg: {
        Word old = 0;
        Word mine = regs[inst.rd];
        if (memRmw(regs[inst.rs1], &old, [&](Word) { return mine; }))
            regs[inst.rd] = old;
        break;
      }
      case Opcode::CmpXchg: {
        Word old = 0;
        Word expected = regs[inst.rd];
        Word desired = regs[inst.rs2];
        bool swapped = false;
        if (memRmw(regs[inst.rs1], &old, [&](Word cur) {
                if (cur == expected) {
                    swapped = true;
                    return desired;
                }
                return cur;
            })) {
            ctx_.flags.zf = swapped;
            if (!swapped)
                regs[inst.rd] = old;
        }
        break;
      }
      case Opcode::FetchAdd: {
        Word old = 0;
        Word addend = regs[inst.rs2];
        if (memRmw(regs[inst.rs1], &old,
                   [&](Word cur) { return cur + addend; }))
            regs[inst.rd] = old;
        break;
      }
      case Opcode::Syscall: {
        cycles += handleFaultFromExec(mem::Fault::syscall(inst.imm), stop,
                                      &advance);
        break;
      }
      case Opcode::RtCall: {
        MISP_ASSERT(env_ != nullptr);
        // Advance first so services that redirect EIP (shred switches)
        // see the post-call continuation.
        ctx_.eip += isa::kInstBytes;
        advance = false;
        cycles += env_->handleRtCall(*this, inst.imm);
        if (state_ != SeqState::Running)
            *stop = true;
        break;
      }
      case Opcode::Signal: {
        MISP_ASSERT(env_ != nullptr);
        ++signalsSent_;
        SignalPayload payload;
        payload.eip = regs[inst.rs2];
        payload.esp = regs[inst.rd];
        payload.arg = regs[2];
        env_->signalInstruction(
            *this, static_cast<SequencerId>(regs[inst.rs1]), payload);
        break;
      }
      case Opcode::Semonitor:
        ctx_.setTrigger(static_cast<Scenario>(inst.sub), inst.imm);
        break;
      case Opcode::Yret: {
        if (!ctx_.inHandler) {
            cycles += handleFaultFromExec(
                mem::Fault::of(mem::FaultKind::GeneralProtection,
                               ctx_.eip),
                stop, &advance);
            break;
        }
        ctx_.inHandler = false;
        advance = false;
        for (unsigned i = 0; i < 4; ++i)
            ctx_.regs[kRegScenario + i] = ctx_.bankedRegs[i];
        if (ctx_.savedEip == 0) {
            // The transfer interrupted an idle sequencer: go back to
            // idle (a queued payload may immediately restart us).
            *stop = true;
            park();
        } else {
            ctx_.eip = ctx_.savedEip;
            ctx_.savedEip = 0;
        }
        break;
      }
      default:
        // Inline-class ops: one definition, shared with the superblock
        // engine's fast path.
        cycles += execInline(inst.op, inst);
        break;
    }

    if (!faulted || advance) {
        // Retired (faulting instructions that will retry don't count).
        if (!faulted)
            ++instsRetired_;
    }
    if (advance)
        ctx_.eip += isa::kInstBytes;
    return cycles;
}

Cycles
Sequencer::execInline(Opcode op, const isa::Instruction &inst)
{
    // The one definition of every Inline-class op, for both engines.
    // Case bodies stay written out in this switch (no per-op function
    // or table): the superblock fast loop expands it once per handler
    // id with a constant op, which folds the switch away.
    auto &regs = ctx_.regs;
    switch (op) {
      case Opcode::Nop:
      case Opcode::Pause:
        break;
      case Opcode::MovI:
        regs[inst.rd] = inst.imm;
        break;
      case Opcode::Mov:
        regs[inst.rd] = regs[inst.rs1];
        break;
      case Opcode::Add:
        regs[inst.rd] = regs[inst.rs1] + regs[inst.rs2];
        break;
      case Opcode::Sub:
        regs[inst.rd] = regs[inst.rs1] - regs[inst.rs2];
        break;
      case Opcode::Mul:
        regs[inst.rd] = regs[inst.rs1] * regs[inst.rs2];
        break;
      case Opcode::And:
        regs[inst.rd] = regs[inst.rs1] & regs[inst.rs2];
        break;
      case Opcode::Or:
        regs[inst.rd] = regs[inst.rs1] | regs[inst.rs2];
        break;
      case Opcode::Xor:
        regs[inst.rd] = regs[inst.rs1] ^ regs[inst.rs2];
        break;
      case Opcode::Shl:
        regs[inst.rd] = regs[inst.rs1] << (regs[inst.rs2] & 63);
        break;
      case Opcode::Shr:
        regs[inst.rd] = regs[inst.rs1] >> (regs[inst.rs2] & 63);
        break;
      case Opcode::Sar:
        regs[inst.rd] = static_cast<Word>(
            static_cast<SWord>(regs[inst.rs1]) >> (regs[inst.rs2] & 63));
        break;
      case Opcode::AddI:
        regs[inst.rd] = regs[inst.rs1] + inst.imm;
        break;
      case Opcode::SubI:
        regs[inst.rd] = regs[inst.rs1] - inst.imm;
        break;
      case Opcode::MulI:
        regs[inst.rd] = regs[inst.rs1] * inst.imm;
        break;
      case Opcode::AndI:
        regs[inst.rd] = regs[inst.rs1] & inst.imm;
        break;
      case Opcode::OrI:
        regs[inst.rd] = regs[inst.rs1] | inst.imm;
        break;
      case Opcode::XorI:
        regs[inst.rd] = regs[inst.rs1] ^ inst.imm;
        break;
      case Opcode::ShlI:
        regs[inst.rd] = regs[inst.rs1] << (inst.imm & 63);
        break;
      case Opcode::ShrI:
        regs[inst.rd] = regs[inst.rs1] >> (inst.imm & 63);
        break;
      case Opcode::Cmp:
        setFlagsFromCompare(static_cast<SWord>(regs[inst.rs1]),
                            static_cast<SWord>(regs[inst.rs2]));
        break;
      case Opcode::CmpI:
        setFlagsFromCompare(static_cast<SWord>(regs[inst.rs1]),
                            static_cast<SWord>(inst.imm));
        break;
      case Opcode::Lea:
        regs[inst.rd] = regs[inst.rs1] + inst.imm;
        break;
      case Opcode::Compute: {
        Cycles burn = inst.imm;
        if (inst.rs1 != 0)
            burn += regs[inst.rs1];
        return burn;
      }
      case Opcode::SeqId:
        regs[inst.rd] = sid_;
        break;
      case Opcode::NumSeq:
        regs[inst.rd] = env_ ? env_->numSequencers() : 1;
        break;
      case Opcode::RdTick:
        regs[inst.rd] = eq_.curTick();
        break;
      default:
        panic("%s: non-inline opcode in inline dispatch", name_.c_str());
    }
    return 0;
}

template <unsigned Width, bool Store>
bool
Sequencer::replayAccess(const isa::Instruction &inst)
{
    const VAddr va = ctx_.regs[inst.rs1] + inst.imm;
    if ((va & (Width - 1)) != 0 || !mmu_.dataReplayable(va, Store, ring_))
        return false;
    if constexpr (Store)
        mmu_.dataReplayWrite<Width>(va, ctx_.regs[inst.rs2]);
    else
        ctx_.regs[inst.rd] = mmu_.dataReplayRead<Width>(va);
    return true;
}

void
Sequencer::runSuperblocks(unsigned *executedIo, Cycles *consumedIo)
{
    unsigned executed = *executedIo;
    Cycles consumed = *consumedIo;
    bool stop = false;
    // Hoisted member loads: nothing in a slice changes these, and the
    // fast loop checks them per instruction.
    const unsigned sliceLimit = sliceLimit_;
    const Cycles sliceBudget = sliceCycleBudget_;

    // Block-local accumulators: per-instruction stat updates are folded
    // locally and committed in one shot at every slow-path boundary, so
    // externally observable state — the TLB's reference bits included —
    // is exact whenever the environment or an eviction scan could look.
    // Every lambda below captures loop state by reference and is forced
    // inline, so none of that state has to live in memory.
    std::uint64_t retired = 0;
    std::uint64_t hits = 0;
    std::uint64_t replays = 0;
    std::uint64_t dataReplays = 0;
    auto commit = [&]() __attribute__((always_inline)) {
        if (replays != 0) {
            mmu_.commitFetchReplays(replays);
            replays = 0;
        }
        if (dataReplays != 0) {
            mmu_.commitDataReplays(dataReplays);
            dataReplays = 0;
        }
        if (retired != 0) {
            instsRetired_ += retired;
            retired = 0;
        }
        if (hits != 0) {
            decodeCacheHits_ += hits;
            hits = 0;
        }
    };
    auto slotOf = [](VAddr va) {
        return static_cast<std::uint16_t>(mem::pageOffset(va) /
                                          isa::kInstBytes);
    };

    // Chained-dispatch state: the current page and slot, and the slot
    // the current superblock started at. The block itself is only
    // looked up (and built on first use) when it is left through a
    // chainable exit: its links are all the engine keeps per block.
    // While page != nullptr, cur < kSlots: reaching the page edge always
    // chains onward first.
    DecodedPage *page = nullptr; // nullptr = resolve before dispatching
    std::uint16_t cur = 0;
    std::uint16_t blockStart = 0;
    // Whether the modeled fetch of the instruction at ctx_.eip has
    // already been charged (true right after a resolve).
    bool fetchPaid = false;

    // Cross-page chain handoff: a block exit stashes its link here; the
    // next resolve consumes it (and writes the resolved successor back
    // into the exiting block). Never outlives one loop iteration, so the
    // raw page pointers cannot dangle.
    SbLink hint{};
    DecodedPage *linkFrom = nullptr;
    std::uint32_t linkFromSb = 0;
    std::uint64_t linkFromVer = 0;
    bool linkTaken = false;

    // Leave the current block through its static @p taken (or page-edge)
    // exit: stash the exit's link for the resolve and force one.
    auto chainExit = [&](bool taken) __attribute__((always_inline)) {
        // The block is remembered by index, never by pointer: building
        // another block of the page grows the block vector.
        const std::uint32_t sbi = superblockAt(*page, blockStart);
        const Superblock &blk = page->sbs->blocks[sbi];
        hint = taken ? blk.taken : blk.fall;
        linkFrom = page;
        linkFromSb = sbi;
        linkFromVer = page->version;
        linkTaken = taken;
        page = nullptr;
    };
    // Leave the current block's Branch-class terminator, fetched at
    // @p eip and resolved to @p taken towards @p target, and return the
    // next EIP. A same-page target starts the next block in place (the
    // fetch stays on the batched replay path); any other target leaves
    // page == nullptr. An @p indirect branch's target may differ every
    // traversal, so it is never linked.
    auto followBranch = [&](bool taken, VAddr target, bool indirect,
                            VAddr eip) __attribute__((always_inline)) {
        const VAddr neip = taken ? target : eip + isa::kInstBytes;
        if (mem::pageNumber(neip) == page->vpn &&
            (neip & (isa::kInstBytes - 1)) == 0) {
            cur = slotOf(neip);
            blockStart = cur;
        } else if (!indirect) {
            chainExit(taken);
        } else {
            page = nullptr;
        }
        return neip;
    };

    while (executed < sliceLimit && consumed < sliceBudget && !stop) {
        // Exactly one guest instruction is dispatched per iteration, so
        // the slice conditions and the async-delivery point run at the
        // same per-instruction boundaries as the generic loop.
        if (!pendingSignals_.empty() || !pendingProxy_.empty()) {
            commit();
            Cycles dc = dispatchPendingAsync();
            if (dc != 0) {
                // An asynchronous transfer redirected EIP.
                consumed += dc;
                page = nullptr;
                fetchPaid = false;
                hint = SbLink{};
                linkFrom = nullptr;
            }
        }

        if (page == nullptr) {
            // ---- resolve: the decoded page for ctx_.eip -------------
            commit(); // a fetch miss may insert into the TLB
            mem::FetchResult fr =
                mmu_.fetchTranslate(ctx_.eip, ring_, /*fastPath=*/true);
            consumed += fr.cycles;
            if (fr.fault) {
                hint = SbLink{};
                linkFrom = nullptr; // the handler may free decoded pages
                bool advance = false;
                consumed +=
                    handleFaultFromExec(fr.fault, &stop, &advance);
                ++executed;
                if (suspendRequested_)
                    break;
                continue;
            }
            const std::uint64_t vpn = mem::pageNumber(ctx_.eip);
            const PAddr paBase =
                fr.pa & ~static_cast<PAddr>(mem::kPageMask);
            if (block_.page != nullptr &&
                block_.asGen == mmu_.addressSpaceGen() &&
                block_.vpn == vpn &&
                block_.page->version == block_.version &&
                block_.page->paBase == paBase) {
                ++hits;
            } else if (hint.page != nullptr &&
                       hint.asGen == mmu_.addressSpaceGen() &&
                       hint.page->vpn == vpn &&
                       hint.page->version == hint.version &&
                       hint.page->paBase == paBase) {
                // Threaded dispatch: the exiting block's link is live —
                // re-point block_ without the page-map probe. The
                // generation check runs first: a link can only ever
                // name pages of this address space's own decode cache,
                // and a stale-generation link is never dereferenced.
                block_.page = hint.page;
                block_.vpn = vpn;
                block_.version = hint.version;
                block_.asGen = hint.asGen;
                ++hits;
            } else {
                refillBlock(vpn, fr.pa);
            }
            page = block_.page;
            cur = slotOf(ctx_.eip);
            blockStart = cur;
            fetchPaid = true;
            // Resolve the exiting block's link for its next traversal.
            if (linkFrom != nullptr &&
                linkFrom->version == linkFromVer) {
                SbLink l;
                l.page = page;
                l.version = page->version;
                l.asGen = block_.asGen;
                l.paBase = page->paBase;
                Superblock &from = linkFrom->sbs->blocks[linkFromSb];
                (linkTaken ? from.taken : from.fall) = l;
            }
            hint = SbLink{};
            linkFrom = nullptr;
        }

        // ---- charge the modeled fetch for this instruction ----------
        if (!fetchPaid) {
            // Chained invariant: the one-entry last-translation cache
            // still covers this page (re-established after every slow
            // dispatch below), so the hit is replayed and batched.
            MISP_ASSERT(mmu_.fetchReplayable(ctx_.eip, ring_));
            ++replays;
            consumed += mem::Mmu::kAccessCycles;
            ++hits;
        }
        fetchPaid = false;

        // ---- dispatch instructions ----------------------------------
        // Fast loop: while this sequencer's async queues are empty they
        // stay empty for the rest of the slice (enqueues only arrive
        // through Slow-class dispatch, fault handlers, or other
        // sequencers between slices), so the queue probe, the resolve
        // check, and the fetch-paid bookkeeping are hoisted out of the
        // per-instruction path — only the slice conditions remain live.
        // Each instruction is one switch on its slot's handler id:
        // Inline ops, replay-covered aligned loads/stores, and branch
        // terminators run in place. EIP is not tracked per instruction:
        // on the page it is the slot's address, stored back on exit.
        // The first instruction that needs more falls through to the
        // generic paths below with its fetch already charged.
        if (pendingSignals_.empty() && pendingProxy_.empty()) {
            // What the handler leaves to the shared tail.
            enum class Step : std::uint8_t { Body, Store, Branch, Leave };
            Step step = Step::Body;
            const VAddr pageBase = page->vpn << mem::kPageShift;
            const unsigned executedBefore = executed;
            std::uint64_t fetches = 0; // batched fetch replays charged
            for (;;) {
                const DecodedSlot &s = page->slots[cur];
                const isa::Instruction &in = s.inst;
                Cycles cost = s.lat; // beyond the fetch
                step = Step::Body;
                bool taken = true;
                VAddr target = in.imm;
                switch (s.handler) {
#define MISP_INLINE_CASE(op)                                              \
                  case isa::Handler::op:                                  \
                    cost += execInline(Opcode::op, in);                   \
                    break;
#define MISP_INLINE_ROW(op, mnemonic, format, cls, latency)               \
                  MISA_IF_INLINE_##cls(MISP_INLINE_CASE, op)
                  MISA_OPCODES(MISP_INLINE_ROW)
#undef MISP_INLINE_ROW
#undef MISP_INLINE_CASE
                  // Aligned load/store covered by the data-side
                  // last-translation cache: replayed in place with a
                  // fixed-width copy — same modeled cycles and TLB
                  // effects as the full translate (the hit is batched
                  // like the fetch replays), and no fault is possible:
                  // alignment is checked and the cached entry already
                  // passed the ring/write permission checks under an
                  // unchanged TLB stamp. Anything else leaves for the
                  // generic path.
#define MISP_REPLAY_CASE(handler, width, isStore, next)                   \
                  case isa::Handler::handler:                             \
                    if (!replayAccess<width, isStore>(in)) {              \
                        step = Step::Leave;                               \
                        break;                                            \
                    }                                                     \
                    cost += mem::Mmu::kAccessCycles;                      \
                    ++dataReplays;                                        \
                    step = next;                                          \
                    break;
#define MISP_LD_CASE(width)                                               \
                  MISP_REPLAY_CASE(Ld##width, width, false, Step::Body)
#define MISP_ST_CASE(width)                                               \
                  MISP_REPLAY_CASE(St##width, width, true, Step::Store)
                  MISA_WIDTHS(MISP_LD_CASE)
                  MISA_WIDTHS(MISP_ST_CASE)
#undef MISP_ST_CASE
#undef MISP_LD_CASE
#undef MISP_REPLAY_CASE
                  // Branch handlers only ever sit at the current
                  // block's terminator: blocks end at the first one.
#define MISP_JCC_CASE(cond, suffix)                                       \
                  case isa::Handler::Jcc##cond:                           \
                    taken = condHolds(isa::Cond::cond);                   \
                    step = Step::Branch;                                  \
                    break;
                  MISA_CONDS(MISP_JCC_CASE)
#undef MISP_JCC_CASE
                  case isa::Handler::Jmp:
                    step = Step::Branch;
                    break;
                  case isa::Handler::JmpR:
                    target = ctx_.regs[in.rs1];
                    step = Step::Branch;
                    break;
                  case isa::Handler::Generic:
                    step = Step::Leave;
                    break;
                }
                if (step == Step::Leave)
                    break;
                consumed += cost;
                ++executed;
                if (step == Step::Branch) {
                    const VAddr neip = followBranch(
                        taken, target, s.handler == isa::Handler::JmpR,
                        pageBase + cur * isa::kInstBytes);
                    if (page == nullptr) {
                        ctx_.eip = neip;
                        break;
                    }
                } else {
                    ++cur;
                    // A store may have hit this very code page (SMC):
                    // the invalidation bumped its version, so the chain
                    // breaks before the next dispatch. Running off the
                    // page edge chains onward.
                    const bool smc = step == Step::Store &&
                                     page->version != block_.version;
                    if (smc || cur == DecodedPage::kSlots) {
                        ctx_.eip = pageBase + cur * isa::kInstBytes;
                        if (smc)
                            page = nullptr;
                        else
                            chainExit(true);
                        break;
                    }
                }
                if (executed >= sliceLimit || consumed >= sliceBudget)
                    break;
                // Charge the next instruction's fetch: a batched replay
                // (the chained invariant: nothing in this loop disturbs
                // the last-translation caches).
                ++fetches;
                consumed += mem::Mmu::kAccessCycles;
            }
            // Every instruction the fast loop ran retired.
            retired += executed - executedBefore;
            replays += fetches;
            hits += fetches;
            if (page != nullptr)
                ctx_.eip = pageBase + cur * isa::kInstBytes;
            if (step != Step::Leave)
                continue; // the outer head re-runs the boundary work
            // The instruction at cur needs a generic path (its fetch is
            // already charged).
        }

        // ---- generic one-instruction paths --------------------------
        const DecodedSlot &s = page->slots[cur];
        if (s.cls == OpClass::Inline) {
            // Single step: async work is pending, so the queue probe
            // must run between instructions.
            consumed += s.lat + execInline(s.inst.op, s.inst);
            ctx_.eip += isa::kInstBytes;
            ++cur;
            ++executed;
            ++retired;
            if (cur == DecodedPage::kSlots)
                chainExit(true);
            continue;
        }

        if (s.cls == OpClass::Mem) {
            commit();
            consumed += executeDecoded(s.inst, s.lat, &stop);
            ++executed;
            if (suspendRequested_)
                break;
            // Continue the chain only if nothing was disturbed: same
            // live block (an SMC store to this page bumps its version,
            // a CR3 switch bumps the generation, a serialization purge
            // drops block_), EIP still on this page, and the fetch
            // fast path still replayable (the access may have walked
            // and inserted a TLB entry).
            if (!stop && block_.page == page &&
                block_.asGen == mmu_.addressSpaceGen() &&
                page->version == block_.version &&
                mem::pageNumber(ctx_.eip) == page->vpn &&
                mmu_.fetchReplayable(ctx_.eip, ring_)) {
                cur = slotOf(ctx_.eip);
            } else {
                page = nullptr;
            }
            continue;
        }

        if (s.cls == OpClass::Branch) {
            consumed += s.lat;
            ++executed;
            ++retired;
            const isa::Instruction &in = s.inst;
            const bool indirect = in.op == Opcode::JmpR;
            ctx_.eip = followBranch(
                in.op != Opcode::Jcc ||
                    condHolds(static_cast<isa::Cond>(in.sub)),
                indirect ? ctx_.regs[in.rs1] : in.imm, indirect,
                ctx_.eip);
            continue;
        }

        if (s.cls == OpClass::Slow) {
            // Environment / serialization point: generic dispatch, then
            // a full re-resolve (EIP, the address space, and the block
            // may all have changed under us).
            commit();
            consumed += executeDecoded(s.inst, s.lat, &stop);
            ++executed;
            page = nullptr;
            if (suspendRequested_)
                break;
            continue;
        }

        // OpClass::Invalid: decode failed at this slot.
        commit();
        {
            bool advance = false;
            consumed += handleFaultFromExec(
                mem::Fault::of(mem::FaultKind::InvalidOpcode, ctx_.eip),
                &stop, &advance);
            if (advance)
                ctx_.eip += isa::kInstBytes;
        }
        ++executed;
        page = nullptr;
        if (suspendRequested_)
            break;
    }

    commit();
    *executedIo = executed;
    *consumedIo = consumed;
}

void
Sequencer::snapSave(snap::Serializer &s) const
{
    snap::putContext(s, ctx_);
    s.u8(static_cast<std::uint8_t>(state_));
    s.u8(static_cast<std::uint8_t>(preSuspendState_));
    s.b(suspendRequested_);
    s.u64(pendingSignals_.size());
    for (const SignalPayload &p : pendingSignals_)
        snap::putPayload(s, p);
    s.u64(pendingProxy_.size());
    for (const SignalPayload &p : pendingProxy_)
        snap::putPayload(s, p);
    s.u64(waitSince_);
    s.u64(kernelResumeFloor_);
    mmu_.snapSave(s);
    snap::putEventSchedule(s, &runEvent_);
}

void
Sequencer::snapRestore(snap::Deserializer &d)
{
    ctx_ = snap::getContext(d);
    state_ = static_cast<SeqState>(d.u8());
    preSuspendState_ = static_cast<SeqState>(d.u8());
    suspendRequested_ = d.b();
    pendingSignals_.resize(d.u64());
    for (SignalPayload &p : pendingSignals_)
        p = snap::getPayload(d);
    pendingProxy_.resize(d.u64());
    for (SignalPayload &p : pendingProxy_)
        p = snap::getPayload(d);
    waitSince_ = d.u64();
    kernelResumeFloor_ = d.u64();
    mmu_.snapRestore(d);
    block_ = BlockRef{};
    snap::getEventSchedule(d, eq_, &runEvent_);
}

double
Sequencer::utilization(Tick elapsed) const
{
    if (elapsed == 0)
        return 0.0;
    return (busyCycles_.value() + kernelCycles_.value()) /
           static_cast<double>(elapsed);
}

} // namespace misp::cpu
