/**
 * @file
 * Happens-before data-race detector for simulated PLUS workloads.
 *
 * PLUS's memory model (Sections 3.1-3.2) makes ordinary writes weakly
 * ordered: a write returns immediately and propagates down the copy-list
 * in the background, and only fence()/writeFence() order it against later
 * operations. The synchronizing primitives are the delayed interlocked
 * operations (issue + verify) and the fences. Accordingly the detector
 * builds happens-before from exactly those edges:
 *
 *  - program order within one simulated thread;
 *  - an interlocked operation on word `a` is a release into `a` at issue
 *    and an acquire from `a` at verify (or at the synchronous rmw());
 *  - any word ever targeted by an interlocked operation is classified as
 *    a synchronization word: plain writes of it release into it (the
 *    spinlock unlock idiom, Figure 3-2) and plain reads of it acquire
 *    from it, and it is itself exempt from race checking;
 *  - a fence or write-fence publishes the thread's writes: releases
 *    propagate the *fenced-write watermark*, not the raw write count, so
 *    an unfenced write is never covered by a later release — exactly the
 *    missing-fence bug class of the paper's weak ordering.
 *
 * Vector clocks carry two components per thread: component 2t is thread
 * t's sync epoch and component 2t+1 its fenced-write watermark. Two plain
 * accesses to the same word race when neither happens-before the other
 * and at least one is a write.
 */

#ifndef PLUS_CHECK_RACE_DETECTOR_HPP_
#define PLUS_CHECK_RACE_DETECTOR_HPP_

#include <cstdint>
#include <limits>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "check/event.hpp"
#include "common/types.hpp"

namespace plus {
namespace check {

/** One reported data race (deduplicated per word address). */
struct Race {
    Addr addr = 0;
    ThreadId first = 0;
    ThreadId second = 0;
    std::string what;
};

/** Happens-before race detector; see file comment. */
class RaceDetector
{
  public:
    /**
     * @param history      Event history, for panic reports.
     * @param panic_on_race  Panic at the first race instead of recording.
     */
    RaceDetector(const EventRing* history, bool panic_on_race);

    // --- access stream (node::Processor events) --------------------------

    void read(ThreadId tid, Addr vaddr);
    void write(ThreadId tid, Addr vaddr);
    void rmwIssue(ThreadId tid, Addr vaddr);
    void verifyDone(ThreadId tid, Addr vaddr);
    void fence(ThreadId tid);
    void writeFence(ThreadId tid);

    // --- results ----------------------------------------------------------

    const std::vector<Race>& races() const { return races_; }

    /** Words classified as synchronization variables so far. */
    std::size_t syncWords() const { return syncWords_; }

  private:
    using Clock = std::vector<std::uint64_t>;

    static constexpr ThreadId kInvalidThread =
        std::numeric_limits<ThreadId>::max();

    struct Epoch {
        ThreadId tid = kInvalidThread;
        std::uint64_t value = 0;
    };

    struct ThreadState {
        Clock clock;
        /** Plain writes issued so far. */
        std::uint64_t writeCount = 0;
        /** Writes covered by the latest fence (the published watermark). */
        std::uint64_t fencedWrites = 0;
    };

    struct WordState {
        bool sync = false;
        /** The sync word's clock L_a (empty unless sync). */
        Clock clock;
        Epoch lastWrite;
        /** Latest read epoch per reading thread. */
        std::vector<Epoch> reads;
    };

    ThreadState& thread(ThreadId tid);
    WordState& word(Addr vaddr);

    static void join(Clock& into, const Clock& from);
    static std::uint64_t component(const Clock& clock, std::size_t index);

    /** Has the write/read epoch of @p owner been observed by @p clock? */
    bool observed(const Clock& clock, const Epoch& epoch,
                  bool write_epoch) const;

    /** Release @p state's clock (with fenced watermark) into @p target. */
    void releaseInto(ThreadState& state, ThreadId tid, WordState& target);

    /** Turn @p word into a synchronization variable. */
    void classifySync(WordState& word);

    void report(Addr vaddr, ThreadId first, ThreadId second,
                const std::string& what);

    const EventRing* history_;
    bool panicOnRace_;

    std::vector<ThreadState> threads_;
    std::unordered_map<Addr, WordState> words_;
    std::unordered_set<Addr> reported_;
    std::vector<Race> races_;
    std::size_t syncWords_ = 0;
};

} // namespace check
} // namespace plus

#endif // PLUS_CHECK_RACE_DETECTOR_HPP_
