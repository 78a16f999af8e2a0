#include "node/cache.hpp"

namespace plus {
namespace node {

Cache::Cache(const CostModel& cost, SnoopPolicy policy)
    : lineWords_(cost.cacheLineWords),
      linesPerPage_(static_cast<unsigned>(kPageWords) / cost.cacheLineWords),
      ways_(cost.cacheWays), policy_(policy)
{
    const unsigned total_lines =
        cost.cacheBytes / (lineWords_ * static_cast<unsigned>(kWordBytes));
    PLUS_ASSERT(total_lines >= ways_, "cache smaller than one set");
    sets_ = total_lines / ways_;
    tags_.assign(static_cast<std::size_t>(sets_) * ways_, kNoLine);
    stamps_.assign(tags_.size(), 0);
}

std::size_t
Cache::find(std::uint32_t line) const
{
    const std::size_t base = static_cast<std::size_t>(line % sets_) * ways_;
    for (std::size_t w = base; w < base + ways_; ++w) {
        if (tags_[w] == line) {
            return w;
        }
    }
    return kMiss;
}

void
Cache::insert(FrameId frame, std::uint32_t line)
{
    const std::size_t base = static_cast<std::size_t>(line % sets_) * ways_;
    std::size_t victim = base;
    for (std::size_t w = base; w < base + ways_; ++w) {
        if (tags_[w] == kNoLine) {
            victim = w;
            break;
        }
        if (stamps_[w] < stamps_[victim]) {
            victim = w;
        }
    }
    if (tags_[victim] != kNoLine) {
        ++stats_.evictions;
        --residents_[tags_[victim] / linesPerPage_];
    }
    tags_[victim] = line;
    stamps_[victim] = ++clock_;
    if (frame >= residents_.size()) {
        residents_.resize(static_cast<std::size_t>(frame) + 1);
    }
    ++residents_[frame];
}

bool
Cache::accessRead(FrameId frame, Addr word_offset)
{
    const std::uint32_t line = lineNumber(frame, word_offset);
    const std::size_t hit = find(line);
    if (hit != kMiss) {
        stamps_[hit] = ++clock_;
        ++stats_.hits;
        return true;
    }
    ++stats_.misses;
    insert(frame, line);
    return false;
}

bool
Cache::accessWrite(FrameId frame, Addr word_offset)
{
    // Write-through, no write-allocate: presence unchanged on a miss.
    const std::size_t hit = find(lineNumber(frame, word_offset));
    if (hit != kMiss) {
        stamps_[hit] = ++clock_;
        return true;
    }
    return false;
}

void
Cache::snoop(FrameId frame, Addr word_offset)
{
    if (residentLines(frame) == 0) {
        return;
    }
    const std::size_t hit = find(lineNumber(frame, word_offset));
    if (hit == kMiss) {
        return;
    }
    if (policy_ == SnoopPolicy::Update) {
        ++stats_.snoopUpdates;
    } else {
        tags_[hit] = kNoLine;
        --residents_[frame];
        ++stats_.snoopInvalidates;
    }
}

void
Cache::flush()
{
    tags_.assign(tags_.size(), kNoLine);
    residents_.clear();
}

} // namespace node
} // namespace plus
