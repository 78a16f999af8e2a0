/**
 * @file
 * Records of in-flight operations keyed by small integer tags, kept in
 * one vector in tag order: no node allocation per record, and a walk
 * visits the records in tag (for issued tags, issue) order with no sort.
 */

#ifndef PLUS_COMMON_TAG_TABLE_HPP_
#define PLUS_COMMON_TAG_TABLE_HPP_

#include <algorithm>
#include <cstddef>
#include <utility>
#include <vector>

#include "common/panic.hpp"

namespace plus {

/** Tag-ordered table of records; see file comment. */
template <typename Tag, typename Record>
class TagTable
{
  public:
    struct Item {
        Tag tag;
        Record record;
    };

    /** Add @p record under @p tag. @pre tag > every tag held. */
    void
    append(Tag tag, Record record)
    {
        PLUS_ASSERT(items_.empty() || items_.back().tag < tag, "tag ", tag,
                    " issued out of order");
        items_.push_back({tag, std::move(record)});
    }

    /**
     * Add @p record under @p tag wherever it sorts.
     * @return false, leaving the table unchanged, if @p tag is held.
     */
    bool
    insert(Tag tag, Record record)
    {
        auto it = std::ranges::lower_bound(items_, tag, {}, &Item::tag);
        if (it != items_.end() && it->tag == tag) {
            return false;
        }
        items_.insert(it, Item{tag, std::move(record)});
        return true;
    }

    /** The record with @p tag, or null if it is not in flight. */
    Record* find(Tag tag) { return lookup(*this, tag); }
    const Record* find(Tag tag) const { return lookup(*this, tag); }

    /** Remove and return the record with @p tag. @pre find(tag) */
    Record
    take(Tag tag)
    {
        auto it = std::ranges::lower_bound(items_, tag, {}, &Item::tag);
        PLUS_ASSERT(it != items_.end() && it->tag == tag,
                    "no in-flight record with tag ", tag);
        Record record = std::move(it->record);
        items_.erase(it);
        return record;
    }

    /** Remove the record with @p tag, if held. */
    void
    erase(Tag tag)
    {
        auto it = std::ranges::lower_bound(items_, tag, {}, &Item::tag);
        if (it != items_.end() && it->tag == tag) {
            items_.erase(it);
        }
    }

    void clear() { items_.clear(); }
    void reserve(std::size_t n) { items_.reserve(n); }
    std::size_t size() const { return items_.size(); }
    bool empty() const { return items_.empty(); }
    auto begin() { return items_.begin(); }
    auto end() { return items_.end(); }
    auto begin() const { return items_.begin(); }
    auto end() const { return items_.end(); }

  private:
    template <typename Self>
    static auto
    lookup(Self& self, Tag tag) -> decltype(&self.items_.front().record)
    {
        auto it = std::ranges::lower_bound(self.items_, tag, {}, &Item::tag);
        return it != self.items_.end() && it->tag == tag ? &it->record
                                                        : nullptr;
    }

    std::vector<Item> items_;
};

} // namespace plus

#endif // PLUS_COMMON_TAG_TABLE_HPP_
