// Per-task memo of the symbolic successor relation. A task's internal
// transitions depend only on its symbolic configuration — the partial
// isomorphism type plus the arithmetic cell (Sections 4.1 and 5) — and
// never on what the product VASS adds around it: the Büchi state, the
// child stages, the input-bound bits or the counters. The RtEngine
// therefore owns one SuccessorMemo per task, keyed by the interned
// (TypeId, CellId) pair, and every (task, τ_in, β) product of that task
// reads it. EnumerateInternal runs once per (type, cell, service) key;
// every later product state with the same configuration replays the
// stored result.
//
// Lazy interning. The order in which types first enter the TypePool
// fixes every TypeId, and with it dimension numbering and counterexample
// text. The memo therefore never interns a type earlier than the
// un-memoized enumeration would: a successor's retrieved TS-types and
// its target configuration stay raw until the product first reaches
// the point where they are needed (the retrieve precheck, the emission
// of a feasible edge), and are interned right there.
//
// Compact residency. Once interned, the raw PartialIsoType and Cell are
// freed; what stays resident per successor is its ids and its Büchi
// letter (an index into a per-task letter table).
#ifndef HAS_CORE_SUCC_MEMO_H_
#define HAS_CORE_SUCC_MEMO_H_

#include <cstdint>
#include <map>
#include <memory>
#include <unordered_map>
#include <vector>

#include "core/successor.h"
#include "core/type_pool.h"

namespace has {

class SuccessorMemo {
 public:
  /// Update of one artifact relation by a service, shared by every
  /// successor of one (type, cell, service) key: EnumerateInternal's
  /// per-relation skeleton plus the inserted TS-type, which is a
  /// projection of the shared pre-state.
  struct SetOp {
    int relation = 0;
    bool inserts = false;
    bool insert_input_bound = false;
    bool retrieves = false;
    TypeId insert_ts = kNoTypeId;
  };
  /// The per-successor half of a retrieving SetOp.
  struct Retrieve {
    TypeId ts = kNoTypeId;  ///< kNoTypeId until first reached
    bool input_bound = false;
  };
  /// Enumeration output not yet interned.
  struct RawSuccessor {
    SymbolicConfig next;
    /// One per retrieving SetOp; moved into the pool when interned.
    std::vector<PartialIsoType> retrieve_ts;
  };
  struct Successor {
    TypeId next_iso = kNoTypeId;  ///< kNoTypeId until first emitted
    CellId next_cell = kNoCellId;
    int letter = -1;              ///< index into the letter table
  };
  /// One (type, cell, service) key.
  struct ServiceEntry {
    bool computed = false;
    bool pre = false;        ///< pre-condition truth at the configuration
    bool truncated = false;  ///< the enumeration hit the branch budget
    std::vector<SetOp> set_ops;
    /// Retrieve data of successor s, op k at
    /// retrieves[s * num_retrieves + k].
    int num_retrieves = 0;
    std::vector<Retrieve> retrieves;
    std::vector<Successor> succs;
    /// Raw data of successor s until its target is interned (then
    /// null); the array itself is released once every successor is.
    std::vector<std::unique_ptr<RawSuccessor>> raw;
    size_t num_raw = 0;
  };
  /// Ample-set data of one eligible service whose pre- and
  /// post-condition hold (task_vass.cc): the identity stutter's
  /// inserts and its letter.
  struct AmpleOp {
    int relation = 0;
    bool input_bound = false;
    TypeId ts = kNoTypeId;
  };
  struct AmpleService {
    int service = 0;
    std::vector<AmpleOp> ops;
    int letter = -1;
  };
  /// One (type, cell) key.
  struct ConfigEntry {
    bool ample_computed = false;
    std::vector<AmpleService> ample;
    std::vector<ServiceEntry> services;  ///< indexed by service
  };

  /// `ctx` and `pool` must outlive the memo.
  SuccessorMemo(const TaskContext* ctx, TypePool* pool)
      : ctx_(ctx), pool_(pool) {}
  SuccessorMemo(const SuccessorMemo&) = delete;
  SuccessorMemo& operator=(const SuccessorMemo&) = delete;

  /// The configuration's entry (created empty on first sight). Entries
  /// never move.
  ConfigEntry& Config(TypeId iso, CellId cell);

  /// Service `svc`'s entry at configuration `cur` (the pool instance of
  /// `config`'s key). A miss evaluates the pre-condition and, when it
  /// holds, runs EnumerateInternal and interns the inserted TS-types —
  /// exactly where the un-memoized enumeration interned them.
  ServiceEntry& Service(ConfigEntry* config, int svc,
                        const SymbolicConfig& cur);

  /// Retrieve op `k` of successor `s`, interning its TS-type on first
  /// reach.
  const Retrieve& RetrieveOf(ServiceEntry* entry, size_t s, int k);

  /// Interns successor `s`'s target configuration with its letter and
  /// frees its raw data. Requires `entry->raw[s]`.
  void InternNext(ServiceEntry* entry, size_t s, std::vector<bool> letter);

  int InternLetter(std::vector<bool> letter);
  const std::vector<bool>& letter(int id) const {
    return letters_[static_cast<size_t>(id)];
  }

  /// Service lookups answered from the memo / computed on a miss. A
  /// miss happens once per distinct (type, cell, service) key.
  size_t hits() const { return hits_; }
  size_t misses() const { return misses_; }

 private:
  static uint64_t Key(TypeId iso, CellId cell) {
    return (static_cast<uint64_t>(static_cast<uint32_t>(iso)) << 32) |
           static_cast<uint32_t>(cell);
  }

  const TaskContext* ctx_;
  TypePool* pool_;
  std::unordered_map<uint64_t, ConfigEntry> configs_;
  std::vector<std::vector<bool>> letters_;
  std::map<std::vector<bool>, int> letter_index_;
  size_t hits_ = 0;
  size_t misses_ = 0;
};

}  // namespace has

#endif  // HAS_CORE_SUCC_MEMO_H_
