#include "core/task_vass.h"

#include <algorithm>

#include "common/status.h"
#include "common/strings.h"

namespace has {

TaskVass::TaskVass(const TaskContext* ctx,
                   const std::map<TaskId, const TaskContext*>* child_ctxs,
                   PropertyAutomata* automata, TypePool* pool,
                   SuccessorMemo* memo, Assignment beta,
                   PartialIsoType input_iso, Cell input_cell,
                   RtOracle* oracle, const Condition* opening_filter)
    : ctx_(ctx),
      child_ctxs_(child_ctxs),
      all_automata_(automata),
      automata_(&automata->ForTask(ctx->task_id())),
      pool_(pool),
      memo_(memo),
      beta_(beta),
      input_iso_(std::move(input_iso)),
      input_cell_(input_cell),
      oracle_(oracle),
      opening_filter_(opening_filter),
      state_index_(0, StateIndexHash{&states_}, StateIndexEq{&states_}) {
  buchi_ = &automata_->automaton(beta);
}

TypeId TaskVass::InternIso(const PartialIsoType& iso) {
  return pool_->InternNormalized(iso);
}

CellId TaskVass::InternCell(const Cell& cell) {
  return pool_->InternCell(cell);
}

int TaskVass::InternState(State s) {
  // Push the candidate first so the by-id index can hash/compare it;
  // on a hit the candidate is popped again.
  int candidate = static_cast<int>(states_.size());
  states_.push_back(std::move(s));
  auto [it, inserted] = state_index_.insert(candidate);
  if (!inserted) {
    states_.pop_back();
    return *it;
  }
  return candidate;
}

int64_t TaskVass::InternRecord(const RecordKey& key, const std::string& note) {
  auto [it, inserted] =
      record_index_.try_emplace(key, static_cast<int64_t>(records_.size()));
  if (inserted) {
    TransitionRecord rec;
    rec.service = key.service;
    rec.target_state = key.target;
    rec.child_beta = key.child_beta;
    rec.child_key = key.child_key;
    rec.child_result_index = key.child_result_index;
    rec.note = note;
    records_.push_back(std::move(rec));
  }
  return it->second;
}

int TaskVass::DimOf(int relation, TypeId ts) {
  uint64_t key = RelTypeKey(relation, ts);
  auto it = dim_index_.find(key);
  if (it != dim_index_.end()) return it->second;
  int id = static_cast<int>(dim_types_.size());
  dim_types_.emplace_back(relation, ts);
  dim_index_.emplace(key, id);
  return id;
}

int TaskVass::IbIdOf(int relation, TypeId ts) {
  uint64_t key = RelTypeKey(relation, ts);
  auto it = ib_index_.find(key);
  if (it != ib_index_.end()) return it->second;
  int id = static_cast<int>(ib_types_.size());
  ib_types_.emplace_back(relation, ts);
  ib_index_.emplace(key, id);
  return id;
}

int TaskVass::InternOutcome(const ChildOutcome& outcome) {
  OutcomeKey key;
  key.bottom = outcome.bottom;
  // Child outcomes arrive as canonical pool representatives (the
  // engine normalizes and interns them when deduplicating returning
  // outputs), so both lookups are pool hits.
  key.iso = pool_->InternNormalized(outcome.iso);
  key.cell = pool_->InternCell(outcome.cell);
  auto it = outcome_index_.find(key);
  if (it != outcome_index_.end()) return it->second;
  int id = static_cast<int>(outcomes_.size());
  // Store the canonical (normalized) instance from the pool so every
  // consumer sees the interned representative.
  ChildOutcome stored = outcome;
  stored.iso = pool_->type(key.iso);
  outcomes_.push_back(std::move(stored));
  outcome_index_.emplace(key, id);
  return id;
}

std::vector<bool> TaskVass::MakeLetter(const SymbolicConfig& config,
                                       const ServiceRef& service,
                                       TaskId opened_child,
                                       Assignment child_beta) const {
  const std::vector<HltlProp>& props = automata_->props();
  std::vector<bool> letter(props.size(), false);
  for (size_t p = 0; p < props.size(); ++p) {
    const HltlProp& prop = props[p];
    switch (prop.kind) {
      case HltlProp::Kind::kCondition: {
        Truth t = ctx_->EvalSym(*prop.condition, config);
        HAS_CHECK_MSG(t != Truth::kUnknown,
                      "property condition undecided in symbolic state");
        letter[p] = t == Truth::kTrue;
        break;
      }
      case HltlProp::Kind::kService:
        letter[p] = prop.service == service;
        break;
      case HltlProp::Kind::kChildFormula: {
        // [ψ]_Tc holds iff this step opens Tc and the guessed child
        // assignment sets ψ's bit.
        if (opened_child == kNoTask) break;
        const HltlNode& node =
            all_automata_->property().node(prop.child_node);
        if (node.task != opened_child) break;
        int bit =
            all_automata_->ForTask(opened_child).AssignmentBit(prop.child_node);
        if (bit >= 0) letter[p] = ((child_beta >> bit) & 1) != 0;
        break;
      }
    }
  }
  return letter;
}

std::vector<int> TaskVass::InitialStates() {
  std::vector<int> out;
  bool truncated = false;
  std::vector<SymbolicConfig> openings =
      EnumerateOpening(*ctx_, input_iso_, input_cell_, &truncated);
  truncated_ = truncated_ || truncated;
  ServiceRef open_self = ServiceRef::Opening(ctx_->task_id());
  for (const SymbolicConfig& config : openings) {
    if (opening_filter_ != nullptr &&
        ctx_->EvalSym(*opening_filter_, config) != Truth::kTrue) {
      continue;
    }
    std::vector<bool> letter = MakeLetter(config, open_self, kNoTask, 0);
    for (int q : buchi_->initial()) {
      if (!buchi_->CompatibleWith(q, letter)) continue;
      State s;
      s.iso = InternIso(config.iso);
      s.cell = InternCell(config.cell);
      s.service = open_self;
      s.q = q;
      s.stages.assign(ctx_->task().children().size(), ChildStage{});
      int id = InternState(std::move(s));
      if (std::find(out.begin(), out.end(), id) == out.end()) {
        out.push_back(id);
      }
    }
  }
  return out;
}

void TaskVass::ApplyInsert(int relation, bool input_bound, TypeId ts,
                           std::vector<int>* ib, Delta* delta) {
  if (!input_bound) {
    delta->emplace_back(DimOf(relation, ts), 1);
    return;
  }
  int id = IbIdOf(relation, ts);
  if (std::find(ib->begin(), ib->end(), id) == ib->end()) ib->push_back(id);
}

void TaskVass::EmitEdges(const State& from, State target,
                         const std::vector<bool>& letter, const Delta& delta,
                         RecordKey rec, const std::string& note,
                         std::vector<VassEdge>* out) {
  for (int q2 : buchi_->successors(from.q)) {
    if (!buchi_->CompatibleWith(q2, letter)) continue;
    target.q = q2;
    rec.target = InternState(target);
    out->push_back(VassEdge{rec.target, delta, InternRecord(rec, note)});
  }
}

void TaskVass::EmitConfig(const State& from, const SymbolicConfig& next,
                          TaskId opened_child, std::vector<ChildStage> stages,
                          const RecordKey& rec, const std::string& note,
                          std::vector<VassEdge>* out) {
  std::vector<bool> letter =
      MakeLetter(next, rec.service, opened_child, rec.child_beta);
  State target;
  target.iso = InternIso(next.iso);
  target.cell = InternCell(next.cell);
  target.service = rec.service;
  target.stages = std::move(stages);
  target.ib_bits = from.ib_bits;
  EmitEdges(from, std::move(target), letter, {}, rec, note, out);
}

void TaskVass::EmitAmple(const State& from, const SymbolicConfig& cur,
                         SuccessorMemo::ConfigEntry* config,
                         std::vector<VassEdge>* out) {
  const Task& task = ctx_->task();
  if (!config->ample_computed) {
    config->ample_computed = true;
    for (size_t i = 0; i < task.services().size(); ++i) {
      if (!ctx_->PorServiceEligible(static_cast<int>(i))) continue;
      const InternalService& svc = task.service(static_cast<int>(i));
      if (ctx_->EvalSym(*svc.pre, cur) != Truth::kTrue) continue;
      if (ctx_->EvalSym(*svc.post, cur) != Truth::kTrue) continue;
      SuccessorMemo::AmpleService ample;
      ample.service = static_cast<int>(i);
      config->ample.push_back(std::move(ample));
    }
    for (SuccessorMemo::AmpleService& ample : config->ample) {
      const InternalService& svc = task.service(ample.service);
      for (int rel = 0; rel < ctx_->num_set_relations(); ++rel) {
        if (!svc.InsertsInto(rel)) continue;
        SuccessorMemo::AmpleOp op;
        op.relation = rel;
        op.input_bound = ctx_->TsInputBound(cur.iso, rel);
        op.ts = pool_->InternNormalized(ctx_->TsType(cur.iso, rel));
        ample.ops.push_back(op);
      }
      ample.letter = memo_->InternLetter(MakeLetter(
          cur, ServiceRef::Internal(ctx_->task_id(), ample.service), kNoTask,
          0));
    }
  }
  for (const SuccessorMemo::AmpleService& ample : config->ample) {
    // The identity stutter: same configuration, fresh child stages,
    // counters and ib bits bumped by the inserts.
    State target;
    target.iso = from.iso;
    target.cell = from.cell;
    target.service = ServiceRef::Internal(ctx_->task_id(), ample.service);
    target.stages.resize(task.children().size());
    target.ib_bits = from.ib_bits;
    Delta delta;
    for (const SuccessorMemo::AmpleOp& op : ample.ops) {
      ApplyInsert(op.relation, op.input_bound, op.ts, &target.ib_bits, &delta);
    }
    std::sort(target.ib_bits.begin(), target.ib_bits.end());
    RecordKey rec;
    rec.service = target.service;
    EmitEdges(from, std::move(target), memo_->letter(ample.letter), delta,
              rec, task.service(ample.service).name, out);
  }
}

void TaskVass::EmitService(const State& from, int svc,
                           const SymbolicConfig& cur,
                           SuccessorMemo::ConfigEntry* config,
                           std::vector<VassEdge>* out) {
  SuccessorMemo::ServiceEntry& entry = memo_->Service(config, svc, cur);
  if (!entry.pre) return;
  truncated_ = truncated_ || entry.truncated;
  const Task& task = ctx_->task();
  RecordKey rec;
  rec.service = ServiceRef::Internal(ctx_->task_id(), svc);
  const std::string& note = task.service(svc).name;
  for (size_t si = 0; si < entry.succs.size(); ++si) {
    // Read-only input-bound precheck, ahead of any ib-bit allocation:
    // an input-bound retrieve can only succeed when the (relation,
    // type) bit is already in the state's set, or when this same
    // transition inserts the identical TS type into the same relation.
    // Skipping here saves the letter/interning/Büchi work for
    // infeasible successors and allocates no ib bit for them.
    bool feasible = true;
    int k = 0;
    for (const SuccessorMemo::SetOp& op : entry.set_ops) {
      if (!op.retrieves) continue;
      const SuccessorMemo::Retrieve& ret = memo_->RetrieveOf(&entry, si, k++);
      if (!ret.input_bound) continue;
      auto it = ib_index_.find(RelTypeKey(op.relation, ret.ts));
      bool in_set = it != ib_index_.end() &&
                    std::find(from.ib_bits.begin(), from.ib_bits.end(),
                              it->second) != from.ib_bits.end();
      bool inserted_same =
          op.inserts && op.insert_input_bound && op.insert_ts == ret.ts;
      if (!in_set && !inserted_same) {
        feasible = false;
        break;
      }
    }
    if (!feasible) continue;
    if (entry.succs[si].next_iso == kNoTypeId) {
      memo_->InternNext(
          &entry, si,
          MakeLetter(entry.raw[si]->next, rec.service, kNoTask, 0));
    }
    const SuccessorMemo::Successor& s = entry.succs[si];
    // Resolve the relation updates to counter dimensions and ib bits:
    // ascending relation index, inserts before retrieves within a
    // relation, so dimension numbering follows emission order.
    State target;
    target.iso = s.next_iso;
    target.cell = s.next_cell;
    target.service = rec.service;
    target.stages.resize(task.children().size());
    target.ib_bits = from.ib_bits;
    std::vector<int>& ib = target.ib_bits;
    Delta delta;
    k = 0;
    for (const SuccessorMemo::SetOp& op : entry.set_ops) {
      if (op.inserts) {
        ApplyInsert(op.relation, op.insert_input_bound, op.insert_ts, &ib,
                    &delta);
      }
      if (op.retrieves) {
        const SuccessorMemo::Retrieve& ret =
            memo_->RetrieveOf(&entry, si, k++);
        if (ret.input_bound) {
          // Present: the precheck above admitted this retrieve.
          auto it = std::find(ib.begin(), ib.end(),
                              IbIdOf(op.relation, ret.ts));
          HAS_CHECK(it != ib.end());
          ib.erase(it);
        } else {
          delta.emplace_back(DimOf(op.relation, ret.ts), -1);
        }
      }
    }
    std::sort(ib.begin(), ib.end());
    EmitEdges(from, std::move(target), memo_->letter(s.letter), delta, rec,
              note, out);
  }
}

int TaskVass::Successors(int state, std::vector<VassEdge>* out) {
  // Copy: interning a target appends to states_.
  const State from = states_[state];
  const Task& task = ctx_->task();
  // Returned states are absorbing.
  if (from.service.kind == ServiceRef::Kind::kClosing &&
      from.service.task == ctx_->task_id()) {
    return 0;
  }
  SymbolicConfig cur{pool_->type(from.iso), pool_->cell(from.cell)};

  bool any_active = false;
  for (const ChildStage& st : from.stages) {
    if (st.kind == ChildStage::Kind::kActive ||
        st.kind == ChildStage::Kind::kActiveBottom) {
      any_active = true;
    }
  }

  int ample = 0;
  // (A) Internal services: all subtasks must have returned
  // (restriction 4).
  if (!any_active) {
    // Partial-order reduction: the ample set collects every statically
    // eligible service (insert-only, unobserved, X-free skeletons —
    // TaskContext::PorServiceEligible) that is enabled AND whose
    // post-condition already holds, so its successor set contains the
    // IDENTITY STUTTER step: same iso/cell, marking bumped by the
    // insert deltas only. That step is the whole soundness argument —
    // from its target (same configuration, at least as many tokens)
    // every skipped transition remains enabled with a covering outcome,
    // because internal services resample all non-input variables from
    // the same input projection and inserts only ever ADD counters. So
    // the ample prefix is ONE stutter edge per eligible service
    // (ascending service index), each constructed directly
    // (EnumerateInternal would bury it in the service's full cell
    // fan-out); its length is what Successors returns, and the
    // explorer expands only that prefix while at least one prefix edge
    // makes progress — reaches a FRESH node (vass/karp_miller.cc).
    // Keeping all eligible stutters matters: once one service's
    // counters saturate to ω its stutter stops being fresh, and the
    // remaining services' diagonals must keep the reduction alive. The
    // full service list follows in natural order — ample services
    // included — so a revert expands the state exactly as a POR-off
    // build would (plus duplicate stutter edges that fold into their
    // own nodes). States entered by an observed service expand fully —
    // the stutter must not sit on a letter the property can see.
    // Everything else the choice reads is part of the state's
    // configuration, so the memo holds it per (type, cell) and the
    // choice is a pure function of the state.
    SuccessorMemo::ConfigEntry* config = &memo_->Config(from.iso, from.cell);
    const size_t first = out->size();
    if (ctx_->options().por && !ctx_->PorServiceIsProp(from.service)) {
      EmitAmple(from, cur, config, out);
    }
    // If no Büchi successor is compatible with the stutter letter the
    // prefix is empty — the state expands fully.
    ample = static_cast<int>(out->size() - first);
    for (size_t i = 0; i < task.services().size(); ++i) {
      EmitService(from, static_cast<int>(i), cur, config, out);
    }
  }

  // (B) Open a child (at most once per segment). The oracle round-trip
  // is batched per child: one input interning covers every β_c.
  for (size_t c = 0; c < task.children().size(); ++c) {
    if (from.stages[c].kind != ChildStage::Kind::kInit) continue;
    TaskId child_id = task.children()[c];
    const Task& child = ctx_->system().task(child_id);
    if (ctx_->EvalSym(*child.opening_pre(), cur) != Truth::kTrue) continue;
    const TaskContext* child_ctx = child_ctxs_->at(child_id);
    PartialIsoType child_in = ChildInputIso(*ctx_, *child_ctx, cur);
    Cell child_in_cell = ChildInputCell(*ctx_, *child_ctx, cur);
    int num_assignments = all_automata_->ForTask(child_id).num_assignments();
    RtOracle::BatchedChildResult batch = oracle_->QueryAll(
        child_id, child_in, child_in_cell,
        static_cast<Assignment>(num_assignments));
    RecordKey rec;
    rec.service = ServiceRef::Opening(child_id);
    const std::string note = StrCat("open ", child.name());
    const std::string bottom_note =
        StrCat("open ", child.name(), " (non-returning)");
    for (Assignment bc = 0;
         bc < static_cast<Assignment>(num_assignments); ++bc) {
      const ChildResult& result = *batch.results[bc];
      rec.child_beta = bc;
      rec.child_key = batch.keys[bc];
      std::vector<ChildStage> stages = from.stages;
      for (size_t oi = 0; oi < result.returning.size(); ++oi) {
        stages[c] = ChildStage{ChildStage::Kind::kActive,
                               InternOutcome(result.returning[oi]), bc};
        rec.child_result_index = static_cast<int>(oi);
        EmitConfig(from, cur, child_id, stages, rec, note, out);
      }
      if (result.has_bottom) {
        stages[c] = ChildStage{ChildStage::Kind::kActiveBottom, -1, bc};
        rec.child_result_index = -1;
        EmitConfig(from, cur, child_id, stages, rec, bottom_note, out);
      }
    }
  }

  // (C) Close an active (returning) child.
  for (size_t c = 0; c < task.children().size(); ++c) {
    if (from.stages[c].kind != ChildStage::Kind::kActive) continue;
    TaskId child_id = task.children()[c];
    const TaskContext* child_ctx = child_ctxs_->at(child_id);
    const ChildOutcome& o = outcomes_[from.stages[c].outcome];
    bool truncated = false;
    std::vector<SymbolicConfig> nexts = ApplyChildReturn(
        *ctx_, *child_ctx, cur, o.iso, o.cell, &truncated);
    truncated_ = truncated_ || truncated;
    std::vector<ChildStage> stages = from.stages;
    stages[c] = ChildStage{ChildStage::Kind::kClosed, -1, from.stages[c].beta};
    RecordKey rec;
    rec.service = ServiceRef::Closing(child_id);
    const std::string note =
        StrCat("close ", ctx_->system().task(child_id).name());
    for (const SymbolicConfig& next : nexts) {
      EmitConfig(from, next, kNoTask, stages, rec, note, out);
    }
  }

  // (D) Close this task (terminal returning segment: every opened child
  // has returned).
  if (!any_active && !ctx_->task().is_root() &&
      ctx_->EvalSym(*task.closing_pre(), cur) == Truth::kTrue) {
    RecordKey rec;
    rec.service = ServiceRef::Closing(ctx_->task_id());
    EmitConfig(from, cur, kNoTask, from.stages, rec, "close self", out);
  }
  return ample;
}

bool TaskVass::IsReturning(int state) const {
  const State& s = states_[state];
  return s.service.kind == ServiceRef::Kind::kClosing &&
         s.service.task == ctx_->task_id() && buchi_->finite_accepting(s.q);
}

bool TaskVass::IsBlocking(int state) const {
  const State& s = states_[state];
  if (!buchi_->finite_accepting(s.q)) return false;
  for (const ChildStage& st : s.stages) {
    if (st.kind == ChildStage::Kind::kActiveBottom) return true;
  }
  return false;
}

bool TaskVass::IsBuchiAccepting(int state) const {
  return buchi_->accepting(states_[state].q);
}

ChildOutcome TaskVass::OutputOf(int state) const {
  const State& s = states_[state];
  const Task& task = ctx_->task();
  std::set<int> keep(ctx_->input_vars().begin(), ctx_->input_vars().end());
  std::vector<ArithVar> numeric_keep;
  for (int v : task.ReturnVars()) keep.insert(v);
  for (int v : keep) {
    if (task.vars().var(v).sort == VarSort::kNumeric) {
      numeric_keep.push_back(v);
    }
  }
  ChildOutcome out;
  out.bottom = false;
  out.iso = pool_->type(s.iso).Project(keep, ctx_->nav_depth());
  if (ctx_->basis() != nullptr) {
    out.cell = pool_->cell(s.cell).RestrictTo(
        ctx_->basis()->PolysOverVars(numeric_keep));
  }
  return out;
}

const PartialIsoType& TaskVass::state_iso(int state) const {
  return pool_->type(states_[state].iso);
}

}  // namespace has
