// Karp–Miller coverability graph with ω-acceleration. Provides exact
// state (repeated) reachability for VASS per Section 4.2:
//   - a task VASS state q is reachable iff some coverability-graph node
//     carries q (state reachability / returning & blocking paths of
//     Lemma 21);
//   - repeated reachability (lasso paths) reduces to finding a
//     reachable accepting node lying on a closed walk of the graph
//     whose net effect is ≥ 0 on ω-coordinates (see repeated.h).
//
// The pumping property of Karp–Miller trees makes both directions
// sound: node markings are exact on non-ω coordinates and arbitrarily
// pumpable on ω ones.
//
// Exploration is a single-threaded BFS in node-creation order, so the
// graph (node numbering, markings, edges, labels) and every counter
// are deterministic for a given system.
//
// With KarpMillerOptions::prune_coverability the explorer applies
// antichain subsumption (minimal-coverability-set pruning): dominated
// successors are discarded and strictly-covered active nodes retired.
// The pruned graph preserves exactly the reachable VASS states (state
// reachability is unaffected), and it records a COVER-EDGE at each of
// the two prune points — a dropped successor becomes an edge from its
// parent to the antichain node that dominated it (naming the dropped
// transition, whose label and delta it reads from the kept successor
// list), and a retired node gets a label-less edge to its coverer — so
// the pruned forest plus cover-edges carries the closed-walk structure
// repeated-reachability (lasso) consumers need: see vass/repeated.h
// for the criterion and why traversing cover-edges is sound.
#ifndef HAS_VASS_KARP_MILLER_H_
#define HAS_VASS_KARP_MILLER_H_

#include <functional>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/hashing.h"
#include "vass/dominance_index.h"
#include "vass/vass.h"

namespace has {

struct KarpMillerOptions {
  /// Hard cap on coverability-graph nodes; exceeded => truncated().
  size_t max_nodes = 1 << 18;
  /// Antichain subsumption pruning (minimal-coverability-set style, à
  /// la Reynier–Servais): a successor whose marking is ≤ an active
  /// node's marking (same VASS state, ω-aware compare) is dropped
  /// before interning, and an active node strictly covered by a
  /// newcomer is deactivated — retired from the antichain and, if it
  /// has not been expanded yet, excluded from the frontier, cutting its
  /// entire would-be subtree. The pruned graph carries exactly the
  /// REACHABLE VASS STATES of the full graph (coverability-preserving),
  /// so state-reachability consumers (returning/blocking detection,
  /// FindNode) are unaffected. Both prune points additionally record a
  /// cover-edge (Edge::cover) so closed-walk (lasso) analysis runs
  /// directly on the pruned graph — see the file comment and
  /// vass/repeated.h. Deactivation is round-granular: a node already
  /// in the BFS round's frontier when it is covered still expands; only
  /// newcomers of the round being expanded are cut.
  bool prune_coverability = false;
  /// Ample-prefix partial-order reduction: when the system reports a
  /// positive ample prefix for a state (VassSystem::Successors), expand
  /// only those leading edges of the state — PROVIDED at least one
  /// prefix edge makes PROGRESS: it lands on a fresh node, or folds
  /// into an antichain entry whose marking is STRICTLY larger than the
  /// edge's target. If every prefix edge folds into an EQUAL marking
  /// (an already-interned duplicate, or a dominator that adds nothing)
  /// the node reverts to full expansion, which discharges the
  /// ample-set ignoring condition (C3): deferred transitions ride a
  /// chain of progress witnesses that either creates fresh nodes
  /// (acyclic by creation order, finite — ω-acceleration saturates
  /// strictly growing markings) or strictly ascends the marking order
  /// (acyclic by strictness), and every chain therefore ends at a
  /// fully-expanded node whose configuration and marking cover the
  /// deferring state's. Default OFF here so
  /// direct KarpMiller consumers (unit tests, explicit VASSes) are
  /// unaffected; the verifier sets it from VerifierOptions::por.
  bool por = false;
};

class KarpMiller {
 public:
  explicit KarpMiller(VassSystem* system, KarpMillerOptions options = {});

  /// Explores the coverability graph from (s, 0̄) for each initial
  /// state s.
  void Build(const std::vector<int>& initial_states);

  bool truncated() const { return truncated_; }
  int num_nodes() const { return static_cast<int>(nodes_.size()); }
  int node_state(int n) const { return nodes_[n].state; }
  /// Packed view of node n's marking. Payloads live in the graph's
  /// arena (struct-of-arrays, appended in node-creation order — see
  /// vass/marking.h); the view is valid for the graph's lifetime.
  MarkingView node_marking(int n) const { return nodes_[n].marking; }

  /// A coverability-graph edge: a plain 12-byte value with no heap
  /// allocation. `index` names the transition in the source node's
  /// kept successor list (the VassSystem::Successors output for its
  /// VASS state, kept for the life of the graph), so the label and the
  /// raw action delta are read through edge_label/edge_delta rather
  /// than copied per edge. The delta matters: closed-walk effects on
  /// ω-coordinates are not recoverable from the markings.
  ///
  /// With pruning, `cover` marks a subsumption edge recorded at a prune
  /// point instead of a materialized successor:
  ///   - a DROPPED successor (marking dominated by an antichain node)
  ///     becomes a cover-edge from its parent to the dominator; its
  ///     `index` still names the dropped transition, so it reads the
  ///     transition's label and delta — the transition is real, only
  ///     its target was folded into a larger node;
  ///   - a RETIRED (deactivated) node gets a label-less cover-edge
  ///     (`index` -1: label -1, empty delta) to the newcomer that
  ///     strictly covers it, so walks entering the retired node
  ///     continue through the coverer's subtree.
  /// Both jumps land on a marking ≥ the one the unpruned graph would
  /// have carried (effect-widening), which is what makes them sound for
  /// the lasso criterion in vass/repeated.cc.
  struct Edge {
    int target = -1;
    /// Position in the source node's kept successor list; -1 for a
    /// retire cover-edge.
    int index = -1;
    bool cover = false;
  };

  /// A node's edges: one contiguous run of the graph's flat edge
  /// array. Valid until the next Build call.
  class EdgeSpan {
   public:
    EdgeSpan(const Edge* data, size_t size) : data_(data), size_(size) {}
    const Edge* begin() const { return data_; }
    const Edge* end() const { return data_ + size_; }
    size_t size() const { return size_; }
    const Edge& operator[](size_t i) const { return data_[i]; }

   private:
    const Edge* data_;
    size_t size_;
  };

  /// Graph edges out of node n.
  EdgeSpan edges(int n) const {
    const Node& node = nodes_[n];
    return EdgeSpan(edges_.data() + node.edge_begin, node.edge_count);
  }
  /// Action label of edge `e` out of node n (-1 for a retire
  /// cover-edge).
  int64_t edge_label(int n, const Edge& e) const {
    return e.index < 0 ? -1 : nodes_[n].succ->edges[e.index].label;
  }
  /// Action delta of edge `e` out of node n (empty for a retire
  /// cover-edge).
  const Delta& edge_delta(int n, const Edge& e) const {
    return e.index < 0 ? kNoDelta : nodes_[n].succ->edges[e.index].delta;
  }

  /// Spanning-tree parent of node n (-1 for roots).
  int node_parent(int n) const { return nodes_[n].parent; }

  /// First node (in creation order) whose VASS state satisfies `pred`;
  /// -1 if none.
  int FindNode(const std::function<bool(int)>& pred) const;

  /// Action labels along the spanning-tree path from a root to node n.
  std::vector<int64_t> PathLabels(int n) const;

  /// Statistics for the benchmark harness.
  size_t TotalEdges() const { return edges_.size(); }
  /// Successor-list accounting: one hit or miss per processed node. A
  /// miss is the first expansion of a VASS state (the one
  /// VassSystem::Successors call for it); a hit reuses the kept list.
  size_t succ_cache_hits() const { return cache_hits_; }
  size_t succ_cache_misses() const { return cache_misses_; }

  /// Pruning accounting (all 0 unless prune_coverability).
  /// Successor candidates dropped by the antichain domination check.
  size_t pruned_successors() const { return pruned_successors_; }
  /// Nodes retired before expansion (their subtrees were never built).
  size_t deactivated_nodes() const { return deactivated_count_; }
  /// Largest per-state antichain observed.
  size_t antichain_peak() const { return antichain_peak_; }
  /// Cover-edges recorded at the prune points (one per dropped
  /// successor plus one per retired node; included in TotalEdges).
  size_t cover_edges() const { return cover_edges_; }
  /// Marking payloads touched across all domination probes
  /// (DominanceLeq calls made by the bucketed index; deterministic,
  /// since probes follow the explorer's sequential decision order).
  /// NOTE: before the bucketed index this counted entries EXAMINED
  /// (payload compares + summary skips); the narrowing to payload
  /// touches was an explicit baseline re-record.
  size_t antichain_probes() const { return antichain_probes_; }
  /// Summary buckets examined across all probes (one strengthened
  /// summary test per bucket stands in for one per entry —
  /// vass/dominance_index.h). Deterministic like antichain_probes.
  size_t antichain_bucket_probes() const { return antichain_bucket_probes_; }
  /// Antichain entries resolved by a summary test alone — bucket-key
  /// misses count every member of the bucket, the ω-saturated wild
  /// bucket filters per entry. The summary filter is a sound necessary
  /// condition (miss ⇒ dominance impossible; vass/marking.h), so
  /// skipping never changes the dominator decision and the graph stays
  /// node-identical.
  size_t antichain_skipped_by_summary() const {
    return antichain_skipped_by_summary_;
  }
  /// Largest per-state bucket count observed (wild bucket included).
  size_t antichain_buckets_peak() const { return antichain_buckets_peak_; }
  /// Partial-order-reduction accounting (both 0 unless options.por and
  /// the system reports ample prefixes).
  /// Successors skipped because an ample prefix expanded in their
  /// place.
  size_t ample_reduced_successors() const {
    return ample_reduced_successors_;
  }
  /// Nodes whose ample prefix was abandoned because a prefix edge
  /// folded into an existing node (the C3 full-expansion rule).
  size_t ample_full_expansions() const { return ample_full_expansions_; }
  /// Whether node n was deactivated (always false without pruning).
  bool node_deactivated(int n) const {
    return static_cast<size_t>(n) < deactivated_.size() &&
           deactivated_[static_cast<size_t>(n)] != 0;
  }

 private:
  /// A VASS state's successor edges and ample-prefix length, as the
  /// system returned them.
  struct StateSuccessors {
    std::vector<VassEdge> edges;
    int ample = 0;
  };

  struct Node {
    int state = -1;
    int parent = -1;          // spanning-tree parent
    /// Packed payload in marking_arena_ (canonical form).
    MarkingView marking;
    int64_t parent_label = -1;
    /// The state's kept successor list, set when the node expands; the
    /// Edge::index of the node's expansion edges points into it.
    const StateSuccessors* succ = nullptr;
    /// The node's run in edges_.
    size_t edge_begin = 0;
    size_t edge_count = 0;
  };

  /// (VASS state, marking) — the interned identity of a node. States
  /// are already pool-interned ids upstream, so hashing the pair is a
  /// flat integer mix with no serialization.
  using NodeKey = std::pair<int, std::vector<int64_t>>;

  int InternNode(int state, const std::vector<int64_t>& marking, int parent,
                 int64_t parent_label, bool* created);

  /// Accelerated successor marking of `parent_node` under `delta` into
  /// state `target`: marking apply, ω-acceleration against the
  /// spanning-tree ancestry, canonical trailing-zero strip. False if
  /// the delta is not enabled.
  bool SuccessorMarking(int parent_node, int target, const Delta& delta,
                        std::vector<int64_t>* out) const;

  /// `state`'s successors: asked of the system on the state's first
  /// expansion and kept for the life of the graph (the kept lists are
  /// bounded by max_nodes, since every kept state is the state of an
  /// expanded node). The reference stays valid for the graph's
  /// lifetime.
  const StateSuccessors& SuccessorsOf(int state);

  /// MINIMUM-id active antichain node of `state` whose marking
  /// dominates `marking` (ω-aware, 0-padded compare); -1 if none. The
  /// minimum over all dominators is a pure function of the antichain
  /// CONTENT — independent of bucket or scan order (see
  /// vass/dominance_index.h for the rank-cutoff walk that keeps it
  /// sublinear). Non-const for the probe accounting.
  int DominatorOf(int state, const MarkingView& marking);

  /// Inserts freshly interned `node` into its state's antichain and
  /// retires every entry its marking strictly covers. Retired entries
  /// with id >= round_first_new_id_ (same-round newcomers, hence not
  /// yet expanded) are deactivated: flagged so they never reach a
  /// frontier, and given a cover-edge to `node` so walks entering them
  /// continue through the coverer's subtree.
  void AntichainAbsorb(int node);

  /// Appends the deferred retire cover-edges to edges_, one run per
  /// retired node.
  void FlushRetireEdges();

  static const Delta kNoDelta;

  VassSystem* system_;
  KarpMillerOptions options_;
  std::vector<Node> nodes_;
  /// Every node's edges, each node's expansion edges one contiguous run
  /// (CSR: Node::edge_begin/edge_count). A node's run is written while
  /// it expands, so runs follow expansion order.
  std::vector<Edge> edges_;
  /// (retired node, coverer) pairs recorded while another node is
  /// expanding, appended to edges_ when Build returns. A retired node
  /// never expands, so this edge is its whole run.
  std::vector<std::pair<int, int>> retire_edges_;
  /// Packed marking payloads, appended in node-creation order (a
  /// node's marking is adjacent to its round neighbours — the entries
  /// antichain probes walk together).
  MarkingArena marking_arena_;
  std::unordered_map<NodeKey, int, IdVectorHash> index_;
  std::unordered_map<int, StateSuccessors> succs_;
  size_t cache_hits_ = 0;
  size_t cache_misses_ = 0;
  bool truncated_ = false;

  // --- antichain pruning state (prune_coverability only) ---------------
  /// VASS state -> the state's maximal active markings (pairwise
  /// incomparable), bucketed by extended summary so probes enumerate
  /// only summary-compatible buckets (vass/dominance_index.h).
  std::unordered_map<int, DominanceIndex> antichain_;
  /// Per node: retired before expansion (parallel to nodes_).
  std::vector<char> deactivated_;
  /// First node id of the current round's newcomers: entries at or
  /// beyond it are unexpanded and may still be deactivated; older
  /// covered entries only leave the antichain (round-granular
  /// deactivation — see KarpMillerOptions::prune_coverability).
  size_t round_first_new_id_ = 0;
  size_t pruned_successors_ = 0;
  size_t deactivated_count_ = 0;
  size_t antichain_peak_ = 0;
  size_t cover_edges_ = 0;
  size_t antichain_probes_ = 0;
  size_t antichain_bucket_probes_ = 0;
  size_t antichain_skipped_by_summary_ = 0;
  size_t antichain_buckets_peak_ = 0;

  // --- partial-order reduction accounting (options.por only) -----------
  size_t ample_reduced_successors_ = 0;
  size_t ample_full_expansions_ = 0;
};

}  // namespace has

#endif  // HAS_VASS_KARP_MILLER_H_
