#include "decode_cache.hh"

#include "obs/trace.hh"

namespace misp::cpu {

namespace {

/** VPNs of the 32-bit guest space: 2^32 / 2^12 pages, 64 per word. */
constexpr std::size_t kBitmapWords = (1ull << 20) / 64;

} // namespace

std::uint32_t
buildSuperblockAt(DecodedPage &page, std::uint16_t slot)
{
    MISP_ASSERT(slot < DecodedPage::kSlots);
    if (!page.sbs)
        page.sbs = std::make_unique<PageSuperblocks>();
    PageSuperblocks &ps = *page.sbs;
    std::uint16_t cached = ps.startAt[slot];
    if (cached != PageSuperblocks::kNone)
        return cached;

    Superblock sb;
    sb.start = slot;
    std::uint16_t cur = slot;
    while (cur < DecodedPage::kSlots) {
        const DecodedSlot &s = page.slots[cur];
        OpClass cls = s.valid ? s.cls : OpClass::Invalid;
        if (cls == OpClass::Branch || cls == OpClass::Slow ||
            cls == OpClass::Invalid)
            break;
        ++cur;
    }
    sb.term = cur; // == kSlots when the block ran off the page edge

    std::uint32_t index = static_cast<std::uint32_t>(ps.blocks.size());
    ps.blocks.push_back(sb);
    // [engine] category: only the superblock engine builds blocks.
    obs::trace(obs::TraceKind::SuperblockBuild, 0, slot, page.vpn,
               sb.term - sb.start);
    ps.startAt[slot] = static_cast<std::uint16_t>(index);
    return index;
}

DecodeCache::DecodeCache(mem::PhysicalMemory &pmem) : pmem_(pmem) {}

DecodedPage *
DecodeCache::find(std::uint64_t vpn)
{
    auto it = pages_.find(vpn);
    if (it == pages_.end() || !it->second->decoded)
        return nullptr;
    return it->second.get();
}

DecodedPage *
DecodeCache::decodePage(std::uint64_t vpn, PAddr paBase)
{
    // The coherence bitmap spans the 32-bit guest space; a VPN outside
    // it could not be write-tracked, so it must never be cached. Guest
    // translations cannot produce one (AddressSpace caps regions at
    // kUserLimit).
    MISP_ASSERT(vpn < kBitmapWords * 64);
    std::unique_ptr<DecodedPage> &slot = pages_[vpn];
    if (!slot) {
        slot = std::make_unique<DecodedPage>();
        slot->vpn = vpn;
    }
    DecodedPage *page = slot.get();

    std::uint8_t bytes[mem::kPageSize];
    pmem_.readBytes(paBase, bytes, mem::kPageSize);
    for (std::size_t i = 0; i < DecodedPage::kSlots; ++i) {
        DecodedSlot &s = page->slots[i];
        s.valid = isa::decode(&bytes[i * isa::kInstBytes], &s.inst);
        s.lat = s.valid ? isa::baseLatency(s.inst.op) : 0;
        s.cls = s.valid ? isa::opClass(s.inst.op) : OpClass::Invalid;
        s.handler = s.valid ? isa::handlerOf(s.inst) : isa::Handler::Generic;
    }
    // Superblock metadata indexes the slots just overwritten; outbound
    // chain links die with it, inbound ones die on the version bump.
    page->sbs.reset();
    page->paBase = paBase;
    ++page->version;
    if (!page->decoded) {
        page->decoded = true;
        ++resident_;
    }
    setBit(vpn);
    ++pagesDecoded_;
    // [engine] category: decode timing depends on the engine choice.
    obs::trace(obs::TraceKind::DecodePage, 0, 0, vpn, page->version);
    return page;
}

void
DecodeCache::invalidateVpn(std::uint64_t vpn)
{
    auto it = pages_.find(vpn);
    if (it == pages_.end() || !it->second->decoded)
        return;
    it->second->decoded = false;
    ++it->second->version;
    --resident_;
    clearBit(vpn);
    ++invalidations_;
    obs::trace(obs::TraceKind::DecodeInvalidate, 0, 0, vpn,
               it->second->version);
}

void
DecodeCache::setBit(std::uint64_t vpn)
{
    const std::uint64_t word = vpn >> 6;
    if (word >= kBitmapWords)
        return; // beyond the 32-bit guest space: never cached
    if (decodedBits_.empty())
        decodedBits_.resize(kBitmapWords, 0); // lazy: first decode pays
    decodedBits_[word] |= 1ull << (vpn & 63);
}

void
DecodeCache::clearBit(std::uint64_t vpn)
{
    const std::uint64_t word = vpn >> 6;
    if (word < decodedBits_.size())
        decodedBits_[word] &= ~(1ull << (vpn & 63));
}

} // namespace misp::cpu
