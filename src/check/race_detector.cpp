#include "check/race_detector.hpp"

#include <algorithm>

#include "common/panic.hpp"

namespace plus {
namespace check {

namespace {

using detail::concat;

/** Word-aligned key for a byte address. */
Addr
wordKey(Addr vaddr)
{
    return vaddr & ~(kWordBytes - 1);
}

} // namespace

RaceDetector::RaceDetector(const EventRing* history, bool panic_on_race)
    : history_(history), panicOnRace_(panic_on_race)
{
    PLUS_ASSERT(history_, "race detector needs an event history");
}

RaceDetector::ThreadState&
RaceDetector::thread(ThreadId tid)
{
    if (tid >= threads_.size()) {
        threads_.resize(tid + 1);
    }
    return threads_[tid];
}

RaceDetector::WordState&
RaceDetector::word(Addr vaddr)
{
    return words_[wordKey(vaddr)];
}

void
RaceDetector::join(Clock& into, const Clock& from)
{
    if (from.size() > into.size()) {
        into.resize(from.size(), 0);
    }
    for (std::size_t i = 0; i < from.size(); ++i) {
        into[i] = std::max(into[i], from[i]);
    }
}

std::uint64_t
RaceDetector::component(const Clock& clock, std::size_t index)
{
    return index < clock.size() ? clock[index] : 0;
}

bool
RaceDetector::observed(const Clock& clock, const Epoch& epoch,
                       bool write_epoch) const
{
    const std::size_t index =
        2 * static_cast<std::size_t>(epoch.tid) + (write_epoch ? 1 : 0);
    return component(clock, index) >= epoch.value;
}

void
RaceDetector::releaseInto(ThreadState& state, ThreadId tid,
                          WordState& target)
{
    // Publish the fenced-write watermark, never the raw write count: a
    // release does not cover the releaser's unfenced writes (PLUS weak
    // ordering -- the write may still be in flight down the copy-list).
    const std::size_t self = 2 * static_cast<std::size_t>(tid);
    if (state.clock.size() <= self + 1) {
        state.clock.resize(self + 2, 0);
    }
    if (state.clock[self] == 0) {
        state.clock[self] = 1; // epochs start at 1: 0 means "never seen"
    }
    state.clock[self + 1] = state.fencedWrites;
    join(target.clock, state.clock);
    state.clock[self] += 1; // later accesses are not covered by this release
}

void
RaceDetector::classifySync(WordState& word)
{
    if (!word.sync) {
        word.sync = true;
        word.lastWrite = Epoch{};
        word.reads.clear();
        ++syncWords_;
    }
}

void
RaceDetector::report(Addr vaddr, ThreadId first, ThreadId second,
                     const std::string& what)
{
    if (!reported_.insert(wordKey(vaddr)).second) {
        return; // one report per word
    }
    if (panicOnRace_) {
        violation(*history_,
                  concat("data race on address 0x", std::hex, vaddr,
                         std::dec, " (page ", pageOf(vaddr), " word ",
                         wordOffsetOf(vaddr), ") between t", first,
                         " and t", second, ": ", what));
    }
    races_.push_back(Race{wordKey(vaddr), first, second, what});
}

void
RaceDetector::read(ThreadId tid, Addr vaddr)
{
    ThreadState& t = thread(tid);
    WordState& w = word(vaddr);
    if (w.sync) {
        // Reading a synchronization word acquires it (e.g. spinning on a
        // lock word, Figure 3-2); sync words are exempt from race checks.
        join(t.clock, w.clock);
        return;
    }
    if (w.lastWrite.tid != kInvalidThread && w.lastWrite.tid != tid &&
        !observed(t.clock, w.lastWrite, /*write_epoch=*/true)) {
        report(vaddr, w.lastWrite.tid, tid,
               concat("unordered write by t", w.lastWrite.tid,
                      " and read by t", tid,
                      " (the write was never fenced before being "
                      "published)"));
    }
    const std::size_t self = 2 * static_cast<std::size_t>(tid);
    if (t.clock.size() <= self + 1) {
        t.clock.resize(self + 2, 0);
    }
    if (t.clock[self] == 0) {
        t.clock[self] = 1; // epochs start at 1: 0 means "never seen"
    }
    const Epoch mine{tid, t.clock[self]};
    for (Epoch& epoch : w.reads) {
        if (epoch.tid == tid) {
            epoch = mine;
            return;
        }
    }
    w.reads.push_back(mine);
}

void
RaceDetector::write(ThreadId tid, Addr vaddr)
{
    ThreadState& t = thread(tid);
    WordState& w = word(vaddr);
    if (w.sync) {
        // Writing a synchronization word releases into it: the spinlock
        // unlock idiom stores 0 with a plain write.
        releaseInto(t, tid, w);
        return;
    }
    t.writeCount += 1;
    if (w.lastWrite.tid != kInvalidThread && w.lastWrite.tid != tid &&
        !observed(t.clock, w.lastWrite, /*write_epoch=*/true)) {
        report(vaddr, w.lastWrite.tid, tid,
               concat("unordered writes by t", w.lastWrite.tid, " and t",
                      tid));
    }
    for (const Epoch& epoch : w.reads) {
        if (epoch.tid != tid &&
            !observed(t.clock, epoch, /*write_epoch=*/false)) {
            report(vaddr, epoch.tid, tid,
                   concat("read by t", epoch.tid,
                          " unordered with write by t", tid));
            break;
        }
    }
    w.lastWrite = Epoch{tid, t.writeCount};
    w.reads.clear();
}

void
RaceDetector::rmwIssue(ThreadId tid, Addr vaddr)
{
    ThreadState& t = thread(tid);
    WordState& w = word(vaddr);
    classifySync(w);
    // The delayed operation both reads and writes the word remotely; model
    // issue as the release half (the acquire half lands at verify time).
    releaseInto(t, tid, w);
}

void
RaceDetector::verifyDone(ThreadId tid, Addr vaddr)
{
    ThreadState& t = thread(tid);
    WordState& w = word(vaddr);
    classifySync(w);
    join(t.clock, w.clock);
}

void
RaceDetector::fence(ThreadId tid)
{
    ThreadState& t = thread(tid);
    t.fencedWrites = t.writeCount;
}

void
RaceDetector::writeFence(ThreadId tid)
{
    // The non-blocking write fence orders writes-before against
    // writes-after; by the time any later release write propagates, every
    // fenced write has completed, so the watermark advances just as for
    // the blocking fence.
    fence(tid);
}

} // namespace check
} // namespace plus
