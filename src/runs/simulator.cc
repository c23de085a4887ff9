#include "runs/simulator.h"

#include <algorithm>
#include <unordered_set>

#include "common/status.h"

namespace has {

namespace {

class Simulator {
 public:
  Simulator(const ArtifactSystem& system, const DatabaseInstance& db,
            const SimulatorOptions& options)
      : system_(system), db_(db), options_(options), rng_(options.seed) {
    // Candidate values: database IDs per relation, null, and a numeric
    // pool extended with every constant appearing in conditions. Both
    // pools are hash-deduplicated so repeated constants across services
    // neither bloat the pools nor skew the sampling.
    for (RelationId r = 0; r < db.schema().num_relations(); ++r) {
      for (const Tuple& t : db.tuples(r)) AddId(t[0]);
    }
    for (const Rational& x : options.numeric_pool) AddNum(Value::Real(x));
    for (TaskId t = 0; t < system.num_tasks(); ++t) {
      CollectConstants(system.task(t));
    }
  }

  /// Simulates the root; returns false if no opening step is possible.
  bool Run(RunTree* tree) {
    LocalRun root;
    root.task = system_.root();
    const Task& task = system_.task(system_.root());
    // Root inputs: sampled until Π holds.
    for (int attempt = 0; attempt < options_.valuation_attempts; ++attempt) {
      Valuation input(task.vars().size(), Value::Null());
      for (const auto& [own, parent] : task.fin()) {
        (void)parent;
        input[own] = SampleValue(task.vars().var(own).sort);
      }
      Valuation nu0 = OpeningValuation(task, input);
      if (EvalCondition(*system_.global_pre(), db_, nu0)) {
        tree->runs.emplace_back();  // reserve node 0
        SimulateRun(system_.root(), input, tree, 0);
        return true;
      }
    }
    return false;
  }

 private:
  void AddId(const Value& v) {
    if (seen_ids_.insert(v).second) id_pool_.push_back(v);
  }
  void AddNum(const Value& v) {
    if (seen_nums_.insert(v).second) num_pool_.push_back(v);
  }

  void CollectConstants(const Task& task) {
    std::vector<const Condition*> atoms;
    for (const InternalService& s : task.services()) {
      s.pre->CollectAtoms(&atoms);
      s.post->CollectAtoms(&atoms);
    }
    task.opening_pre()->CollectAtoms(&atoms);
    task.closing_pre()->CollectAtoms(&atoms);
    for (const Condition* a : atoms) {
      if (a->kind() == CondKind::kEq) {
        for (const Term* t : {&a->lhs(), &a->rhs()}) {
          if (t->kind == Term::Kind::kConst) {
            AddNum(Value::Real(t->value));
          }
        }
      } else if (a->kind() == CondKind::kArith) {
        AddNum(Value::Real(-a->constraint().expr.constant()));
      }
    }
  }

  Value SampleValue(VarSort sort) {
    if (sort == VarSort::kId) {
      std::uniform_int_distribution<size_t> d(0, id_pool_.size());
      size_t i = d(rng_);
      return i == id_pool_.size() ? Value::Null() : id_pool_[i];
    }
    std::uniform_int_distribution<size_t> d(0, num_pool_.size() - 1);
    return num_pool_[d(rng_)];
  }

  /// Simulates one local run; fills tree->runs[node].
  void SimulateRun(TaskId task_id, const Valuation& input, RunTree* tree,
                   int node) {
    const Task& task = system_.task(task_id);
    LocalRun run;
    run.task = task_id;
    run.input = input;
    Valuation nu = OpeningValuation(task, input);
    TaskSets sets(static_cast<size_t>(task.num_set_relations()));
    run.steps.push_back(RunStep{ServiceRef::Opening(task_id), nu, sets, -1});

    std::set<TaskId> opened_in_segment;
    for (int step = 0; step < options_.max_steps_per_run; ++step) {
      // Candidate moves: internal services, child openings, closing.
      struct Move {
        enum class Kind { kInternal, kOpen, kClose } kind;
        int index = -1;       // internal service index or child position
      };
      std::vector<Move> moves;
      for (size_t i = 0; i < task.services().size(); ++i) {
        if (EvalCondition(*task.service(static_cast<int>(i)).pre, db_, nu)) {
          moves.push_back(
              Move{Move::Kind::kInternal, static_cast<int>(i)});
        }
      }
      for (size_t c = 0; c < task.children().size(); ++c) {
        TaskId child = task.children()[c];
        if (opened_in_segment.count(child) > 0) continue;
        if (EvalCondition(*system_.task(child).opening_pre(), db_, nu)) {
          moves.push_back(Move{Move::Kind::kOpen, static_cast<int>(c)});
        }
      }
      if (!task.is_root() && EvalCondition(*task.closing_pre(), db_, nu)) {
        moves.push_back(Move{Move::Kind::kClose, -1});
      }
      if (moves.empty()) break;
      std::uniform_int_distribution<size_t> pick(0, moves.size() - 1);
      const Move move = moves[pick(rng_)];
      switch (move.kind) {
        case Move::Kind::kInternal: {
          const InternalService& svc = task.service(move.index);
          std::optional<std::pair<Valuation, TaskSets>> next =
              SampleInternal(task, svc, nu, sets);
          if (!next.has_value()) continue;  // try another move next loop
          nu = next->first;
          sets = next->second;
          run.steps.push_back(RunStep{
              ServiceRef::Internal(task_id, move.index), nu, sets, -1});
          opened_in_segment.clear();
          break;
        }
        case Move::Kind::kOpen: {
          TaskId child_id = task.children()[move.index];
          const Task& child = system_.task(child_id);
          // Pass inputs, simulate the child synchronously.
          Valuation child_input(child.vars().size(), Value::Null());
          for (const auto& [own, parent] : child.fin()) {
            child_input[own] = nu[parent];
          }
          int child_node = tree->AddRun(LocalRun{});
          SimulateRun(child_id, child_input, tree, child_node);
          run.steps.push_back(RunStep{ServiceRef::Opening(child_id), nu,
                                      sets, child_node});
          opened_in_segment.insert(child_id);
          const LocalRun& child_run = tree->runs[child_node];
          if (child_run.returning) {
            Valuation next = nu;
            for (const auto& [parent_var, own_var] : child.fout()) {
              bool is_id =
                  task.vars().var(parent_var).sort == VarSort::kId;
              if (!is_id || nu[parent_var].is_null()) {
                next[parent_var] = child_run.output[own_var];
              }
            }
            nu = next;
            run.steps.push_back(
                RunStep{ServiceRef::Closing(child_id), nu, sets, -1});
          } else {
            // Child never returns: this run blocks here.
            run.returning = false;
            tree->runs[node] = std::move(run);
            return;
          }
          break;
        }
        case Move::Kind::kClose: {
          run.steps.push_back(
              RunStep{ServiceRef::Closing(task_id), nu, sets, -1});
          run.returning = true;
          run.output = nu;
          tree->runs[node] = std::move(run);
          return;
        }
      }
    }
    run.returning = false;
    tree->runs[node] = std::move(run);
  }

  /// Rejection-samples a successor valuation for an internal service,
  /// applying the per-relation insert/retrieve semantics of δ. Retrieved
  /// tuples are chosen relation by relation in ascending index order;
  /// when relations share variables a later choice can invalidate an
  /// earlier one, so membership is re-checked before accepting.
  std::optional<std::pair<Valuation, TaskSets>> SampleInternal(
      const Task& task, const InternalService& svc, const Valuation& nu,
      const TaskSets& sets) {
    std::set<int> inputs;
    for (const auto& [own, parent] : task.fin()) {
      (void)parent;
      inputs.insert(own);
    }
    for (int attempt = 0; attempt < options_.valuation_attempts; ++attempt) {
      Valuation next = nu;
      for (int v = 0; v < task.vars().size(); ++v) {
        if (inputs.count(v) > 0) continue;
        next[v] = SampleValue(task.vars().var(v).sort);
      }
      // Pick each retrieved tuple (ascending relation index) and write
      // it into the candidate valuation first ...
      for (int rel = 0; rel < task.num_set_relations(); ++rel) {
        if (!svc.RetrievesFrom(rel)) continue;
        // Choose the retrieved tuple: a member of S_rel (∪ inserted).
        SetContents candidates = RelationContents(sets, rel);
        if (svc.InsertsInto(rel)) {
          candidates.insert(SetTupleOf(task, rel, nu));
        }
        if (candidates.empty()) return std::nullopt;
        std::uniform_int_distribution<size_t> d(0, candidates.size() - 1);
        auto it = candidates.begin();
        std::advance(it, d(rng_));
        const std::vector<Value>& chosen = *it;
        const std::vector<int>& tuple = task.set_relations()[rel].vars;
        for (size_t k = 0; k < tuple.size(); ++k) {
          next[tuple[k]] = chosen[k];
        }
      }
      // ... then derive the successor sets from the FINAL valuation,
      // mirroring CheckInternalTransition: when relations share
      // variables a later choice can overwrite an earlier one, in which
      // case the earlier relation's retrieved tuple (re-read off the
      // final valuation) may be absent — reject the attempt.
      TaskSets next_sets = sets;
      next_sets.resize(static_cast<size_t>(task.num_set_relations()));
      bool ok = true;
      for (int rel = 0; rel < task.num_set_relations() && ok; ++rel) {
        if (svc.InsertsInto(rel)) {
          next_sets[rel].insert(SetTupleOf(task, rel, nu));
        }
        if (svc.RetrievesFrom(rel)) {
          std::vector<Value> retrieved = SetTupleOf(task, rel, next);
          if (next_sets[rel].count(retrieved) == 0) {
            ok = false;
            break;
          }
          next_sets[rel].erase(retrieved);
        }
      }
      if (ok && EvalCondition(*svc.post, db_, next)) {
        return std::make_pair(next, next_sets);
      }
    }
    return std::nullopt;
  }

  const ArtifactSystem& system_;
  const DatabaseInstance& db_;
  SimulatorOptions options_;
  std::mt19937_64 rng_;
  std::vector<Value> id_pool_;
  std::vector<Value> num_pool_;
  std::unordered_set<Value, ValueHash> seen_ids_;
  std::unordered_set<Value, ValueHash> seen_nums_;
};

}  // namespace

std::optional<RunTree> SimulateTree(const ArtifactSystem& system,
                                    const DatabaseInstance& db,
                                    const SimulatorOptions& options) {
  Simulator sim(system, db, options);
  RunTree tree;
  if (!sim.Run(&tree)) return std::nullopt;
  return tree;
}

}  // namespace has
