#include "core/succ_memo.h"

#include <utility>

namespace has {

SuccessorMemo::ConfigEntry& SuccessorMemo::Config(TypeId iso, CellId cell) {
  auto [it, inserted] = configs_.try_emplace(Key(iso, cell));
  if (inserted) it->second.services.resize(ctx_->task().services().size());
  return it->second;
}

SuccessorMemo::ServiceEntry& SuccessorMemo::Service(
    ConfigEntry* config, int svc, const SymbolicConfig& cur) {
  ServiceEntry& entry = config->services[static_cast<size_t>(svc)];
  if (entry.computed) {
    ++hits_;
    return entry;
  }
  ++misses_;
  entry.computed = true;
  const InternalService& service = ctx_->task().service(svc);
  entry.pre = ctx_->EvalSym(*service.pre, cur) == Truth::kTrue;
  if (!entry.pre) return entry;
  std::vector<InternalSuccessor> succs =
      EnumerateInternal(*ctx_, cur, service, &entry.truncated);
  if (succs.empty()) return entry;

  // Every successor shares EnumerateInternal's per-relation skeleton.
  // The inserted TS-types are projections of the shared pre-state,
  // interned once per relation in insert order.
  std::map<int, TypeId> insert_ts;
  for (int rel : service.insert_rels) {
    insert_ts[rel] = pool_->InternNormalized(ctx_->TsType(cur.iso, rel));
  }
  for (const SetOpEffect& eff : succs.front().set_ops) {
    SetOp op;
    op.relation = eff.relation;
    op.inserts = eff.inserts;
    op.insert_input_bound = eff.insert_input_bound;
    op.retrieves = eff.retrieves;
    if (eff.inserts) op.insert_ts = insert_ts[eff.relation];
    if (eff.retrieves) ++entry.num_retrieves;
    entry.set_ops.push_back(op);
  }
  entry.succs.resize(succs.size());
  entry.raw.resize(succs.size());
  entry.num_raw = succs.size();
  entry.retrieves.reserve(succs.size() *
                          static_cast<size_t>(entry.num_retrieves));
  for (size_t s = 0; s < succs.size(); ++s) {
    auto raw = std::make_unique<RawSuccessor>();
    raw->next = std::move(succs[s].next);
    raw->retrieve_ts.reserve(static_cast<size_t>(entry.num_retrieves));
    for (SetOpEffect& eff : succs[s].set_ops) {
      if (!eff.retrieves) continue;
      entry.retrieves.push_back(Retrieve{kNoTypeId, eff.retrieve_input_bound});
      raw->retrieve_ts.push_back(std::move(eff.retrieve_ts));
    }
    entry.raw[s] = std::move(raw);
  }
  return entry;
}

const SuccessorMemo::Retrieve& SuccessorMemo::RetrieveOf(ServiceEntry* entry,
                                                         size_t s, int k) {
  Retrieve& ret =
      entry->retrieves[s * static_cast<size_t>(entry->num_retrieves) +
                       static_cast<size_t>(k)];
  if (ret.ts == kNoTypeId) {
    ret.ts = pool_->InternNormalized(
        std::move(entry->raw[s]->retrieve_ts[static_cast<size_t>(k)]));
  }
  return ret;
}

void SuccessorMemo::InternNext(ServiceEntry* entry, size_t s,
                               std::vector<bool> letter) {
  Successor& succ = entry->succs[s];
  SymbolicConfig& next = entry->raw[s]->next;
  succ.letter = InternLetter(std::move(letter));
  succ.next_iso = pool_->InternNormalized(std::move(next.iso));
  succ.next_cell = pool_->InternCell(std::move(next.cell));
  entry->raw[s].reset();
  if (--entry->num_raw == 0) {
    std::vector<std::unique_ptr<RawSuccessor>>().swap(entry->raw);
  }
}

int SuccessorMemo::InternLetter(std::vector<bool> letter) {
  auto [it, inserted] =
      letter_index_.try_emplace(letter, static_cast<int>(letters_.size()));
  if (inserted) letters_.push_back(std::move(letter));
  return it->second;
}

}  // namespace has
