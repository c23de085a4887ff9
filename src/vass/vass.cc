#include "vass/vass.h"

#include "common/status.h"

namespace has {

int64_t ExplicitVass::AddAction(int from, Delta delta, int to) {
  HAS_CHECK(from >= 0 && from < num_states());
  HAS_CHECK(to >= 0 && to < num_states());
  static_assert(sizeof(int64_t) >= sizeof(size_t) ||
                    sizeof(int64_t) == 8,
                "label packing");
  int64_t label =
      (static_cast<int64_t>(from) << 32) |
      static_cast<int64_t>(adj_[from].size());
  adj_[from].push_back(VassEdge{to, std::move(delta), label});
  return label;
}

int ExplicitVass::Successors(int state, std::vector<VassEdge>* out) {
  out->insert(out->end(), adj_[state].begin(), adj_[state].end());
  return 0;
}

}  // namespace has
