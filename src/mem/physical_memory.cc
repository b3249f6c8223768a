#include "physical_memory.hh"

#include <algorithm>

namespace misp::mem {

PhysicalMemory::PhysicalMemory(std::uint64_t frames,
                               stats::StatGroup *parent)
    : frames_(frames),
      statGroup_("physmem", parent),
      framesAllocated_(&statGroup_, "framesAllocated",
                       "physical frames handed out"),
      framesFreed_(&statGroup_, "framesFreed", "physical frames returned"),
      bytesRead_(&statGroup_, "bytesRead", "bytes read from memory"),
      bytesWritten_(&statGroup_, "bytesWritten", "bytes written to memory")
{
    MISP_ASSERT(frames_ > 0);
}

std::uint64_t
PhysicalMemory::allocFrame()
{
    std::uint64_t frame;
    if (!freeList_.empty()) {
        frame = freeList_.back();
        freeList_.pop_back();
        // Recycled frames must come back zeroed: the kernel model relies
        // on zero-fill-on-demand semantics.
        auto it = store_.find(frame);
        if (it != store_.end())
            std::memset(it->second.data(), 0, kPageSize);
    } else {
        if (nextFresh_ >= frames_)
            fatal("physical memory exhausted (%llu frames)",
                  (unsigned long long)frames_);
        frame = nextFresh_++;
    }
    ++used_;
    ++framesAllocated_;
    return frame;
}

void
PhysicalMemory::freeFrame(std::uint64_t frame)
{
    MISP_ASSERT(frame < frames_);
    MISP_ASSERT(used_ > 0);
    --used_;
    ++framesFreed_;
    freeList_.push_back(frame);
}

const std::uint8_t *
PhysicalMemory::framePtr(std::uint64_t frame) const
{
    auto it = store_.find(frame);
    if (it == store_.end()) {
        // Lazily materialize zeroed backing store.
        it = store_.emplace(frame, std::vector<std::uint8_t>(kPageSize, 0))
                 .first;
    }
    return it->second.data();
}

std::uint8_t *
PhysicalMemory::framePtrMut(std::uint64_t frame)
{
    return const_cast<std::uint8_t *>(framePtr(frame));
}

Word
PhysicalMemory::read(PAddr addr, unsigned size) const
{
    MISP_ASSERT(size == 1 || size == 2 || size == 4 || size == 8);
    MISP_ASSERT(pageOffset(addr) + size <= kPageSize);
    const std::uint8_t *p = framePtr(addr >> kPageShift) + pageOffset(addr);
    Word v = 0;
    std::memcpy(&v, p, size); // little-endian host assumed (x86/arm64)
    const_cast<stats::Scalar &>(bytesRead_) += size;
    return v;
}

void
PhysicalMemory::write(PAddr addr, Word value, unsigned size)
{
    MISP_ASSERT(size == 1 || size == 2 || size == 4 || size == 8);
    MISP_ASSERT(pageOffset(addr) + size <= kPageSize);
    std::uint8_t *p = framePtrMut(addr >> kPageShift) + pageOffset(addr);
    std::memcpy(p, &value, size);
    bytesWritten_ += size;
}

void
PhysicalMemory::readBytes(PAddr addr, void *dst, std::uint64_t len) const
{
    auto *out = static_cast<std::uint8_t *>(dst);
    while (len > 0) {
        std::uint64_t chunk = std::min<std::uint64_t>(
            len, kPageSize - pageOffset(addr));
        const std::uint8_t *p =
            framePtr(addr >> kPageShift) + pageOffset(addr);
        std::memcpy(out, p, chunk);
        addr += chunk;
        out += chunk;
        len -= chunk;
    }
}

void
PhysicalMemory::writeBytes(PAddr addr, const void *src, std::uint64_t len)
{
    const auto *in = static_cast<const std::uint8_t *>(src);
    while (len > 0) {
        std::uint64_t chunk = std::min<std::uint64_t>(
            len, kPageSize - pageOffset(addr));
        std::uint8_t *p = framePtrMut(addr >> kPageShift) + pageOffset(addr);
        std::memcpy(p, in, chunk);
        addr += chunk;
        in += chunk;
        len -= chunk;
    }
}

void
PhysicalMemory::snapSave(snap::Serializer &s) const
{
    s.u64(frames_);
    s.u64(used_);
    s.u64(nextFresh_);
    s.u64(freeList_.size());
    for (std::uint64_t f : freeList_)
        s.u64(f);
    std::vector<std::uint64_t> frames;
    frames.reserve(store_.size());
    // misplint: allow(det-unordered-iter) — frame ids sorted below
    for (const auto &[frame, bytes] : store_) {
        (void)bytes;
        frames.push_back(frame);
    }
    std::sort(frames.begin(), frames.end());
    s.u64(frames.size());
    for (std::uint64_t f : frames) {
        s.u64(f);
        s.bytes(store_.at(f).data(), kPageSize);
    }
}

void
PhysicalMemory::snapRestore(snap::Deserializer &d)
{
    // Every count and frame id is checked against the configured
    // capacity before it sizes or fills anything, so an image can never
    // hand the guest memory the machine was not configured with. The
    // state is replaced only once the whole section has parsed.
    if (d.u64() != frames_)
        throw snap::SnapError("physmem: capacity mismatch");
    const std::uint64_t used = d.u64();
    if (used > frames_)
        throw snap::SnapError("physmem: frames in use exceed capacity");
    const std::uint64_t nextFresh = d.u64();
    if (nextFresh > frames_)
        throw snap::SnapError("physmem: next fresh frame past capacity");
    const std::uint64_t freeCount = d.u64();
    if (freeCount > frames_)
        throw snap::SnapError("physmem: free list longer than capacity");
    // Every frame handed out so far is either in use or free, once:
    // allocFrame would otherwise give one frame to two pages.
    if (used > nextFresh || freeCount != nextFresh - used)
        throw snap::SnapError("physmem: frames in use and free do not "
                              "add up to the frames handed out");
    std::vector<std::uint64_t> freeList(freeCount);
    for (std::uint64_t &f : freeList) {
        f = d.u64();
        if (f >= frames_)
            throw snap::SnapError("physmem: free frame past capacity");
        if (f >= nextFresh)
            throw snap::SnapError("physmem: free frame never handed out");
    }
    std::vector<std::uint64_t> sortedFree = freeList;
    std::sort(sortedFree.begin(), sortedFree.end());
    if (std::adjacent_find(sortedFree.begin(), sortedFree.end()) !=
        sortedFree.end())
        throw snap::SnapError("physmem: free frame listed twice");
    const std::uint64_t count = d.u64();
    if (count > frames_)
        throw snap::SnapError("physmem: more frames than capacity");
    decltype(store_) store;
    std::uint64_t prevFrame = 0;
    for (std::uint64_t i = 0; i < count; ++i) {
        const std::uint64_t frame = d.u64();
        if (frame >= frames_)
            throw snap::SnapError("physmem: frame past capacity");
        // snapSave writes ids in ascending order, so a repeat or a
        // descent is a corrupt image.
        if (!store.empty() && frame <= prevFrame)
            throw snap::SnapError("physmem: frame ids not ascending");
        std::vector<std::uint8_t> bytes(kPageSize);
        d.bytes(bytes.data(), kPageSize);
        store.emplace(frame, std::move(bytes));
        prevFrame = frame;
    }
    used_ = used;
    nextFresh_ = nextFresh;
    freeList_ = std::move(freeList);
    store_ = std::move(store);
}

const char *
faultKindName(FaultKind kind)
{
    switch (kind) {
      case FaultKind::None: return "none";
      case FaultKind::PageFault: return "page-fault";
      case FaultKind::GeneralProtection: return "general-protection";
      case FaultKind::InvalidOpcode: return "invalid-opcode";
      case FaultKind::DivideError: return "divide-error";
      case FaultKind::Syscall: return "syscall";
      case FaultKind::Breakpoint: return "breakpoint";
    }
    return "unknown";
}

} // namespace misp::mem
