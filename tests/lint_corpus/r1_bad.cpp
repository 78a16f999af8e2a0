// Known-bad input for pluslint rule R1 (unordered-iteration): the hash
// order of an unordered_map leaks into observable output.
#include <cstdio>
#include <unordered_map>
#include <vector>

namespace corpus {

class TrafficTable {
  public:
    void
    record(unsigned link, unsigned bytes)
    {
        perLink_[link] += bytes;
    }

    void
    dump() const
    {
        for (const auto& [link, bytes] : perLink_) { // BAD: hash order
            std::printf("link %u: %u bytes\n", link, bytes);
        }
    }

    void
    dumpNode(unsigned node) const
    {
        for (const auto& [link, bytes] : perNode_[node]) { // BAD: hash order
            std::printf("n%u link %u: %u bytes\n", node, link, bytes);
        }
    }

  private:
    std::unordered_map<unsigned, unsigned> perLink_;
    std::vector<std::unordered_map<unsigned, unsigned>> perNode_;
};

} // namespace corpus
