// Cross-batch cluster-reuse cache of Algorithm 1, engineered for the CR
// hot path.
//
// Per column block the cache maps an LSH signature (the cluster ID) to the
// cluster's representative sub-vector and its precomputed output row.
// Internally each block is an open-addressing table (power-of-two
// capacity, linear probing on SignatureKey) whose fixed-size 32-byte
// slots — signature and slab entry id together, so a probe step touches
// exactly one cache line — index into contiguous slab storage for
// representatives and outputs: no per-entry heap allocations, one
// predictable probe stream per lookup, exact O(1) memory accounting.
// Lookups are batched per block (FindBatch), and the hit payloads are
// gathered with the SIMD copy kernel. Capacity is bounded by an entry
// budget and/or a byte budget with generation-stamped second-chance
// (clock) eviction, O(1) amortized per insert.
//
// The cache stores and looks up; it counts no events. FindBatch returns
// its hits and InsertBatch its evictions, and the caller (ReuseConv2d)
// owns the lookup, hit and eviction counts and the reuse rate R.
//
// Concurrency contract (single-writer / multi-reader):
//   - FindBatch/GatherHits and all accessors are const, perform no
//     structural mutation, and are safe to call concurrently with each
//     other from any number of threads. The only shared write on these
//     paths is the per-entry recency stamp a hit stores while a budget is
//     set, a relaxed atomic store.
//   - InsertBatch/Clear/set_* mutate and must be externally serialized
//     against everything else (in ReuseConv2d the cache is owned by one
//     layer and driven from its calling thread).
//
// During training the cached outputs grow stale as W changes — that is
// the approximation the CR flag trades for speed (paper Section V-B);
// Clear() is the knob strategies use to bound it.

#ifndef ADR_CORE_CLUSTER_CACHE_H_
#define ADR_CORE_CLUSTER_CACHE_H_

#include <cstdint>
#include <vector>

#include "clustering/lsh.h"

namespace adr {

class ClusterReuseCache {
 public:
  /// \brief Point-in-time state, for telemetry.
  struct Stats {
    int64_t entries = 0;
    int64_t slots = 0;  ///< open-addressing capacity across blocks
    int64_t resident_bytes = 0;
    int64_t alloc_events = 0;
  };

  ClusterReuseCache() = default;
  ClusterReuseCache(const ClusterReuseCache&) = delete;
  ClusterReuseCache& operator=(const ClusterReuseCache&) = delete;

  /// \brief Resolves `count` signatures of one block in one pass:
  /// entries[i] receives the slab entry id on a hit and -1 on a miss.
  /// Returns the number of hits.
  int64_t FindBatch(int64_t block, const LshSignature* signatures,
                    int64_t count, int32_t* entries) const;

  /// \brief Copies the payloads of FindBatch hits into row-strided
  /// destinations with the SIMD copy kernel: for every i with
  /// entries[i] >= 0, outputs[i * out_stride ..] receives the cached
  /// output row and (when `reps` is non-null) reps[i * rep_stride ..] the
  /// representative.
  void GatherHits(int64_t block, const int32_t* entries, int64_t count,
                  float* outputs, int64_t out_stride, float* reps,
                  int64_t rep_stride) const;

  /// \brief Inserts `count` clusters in ascending order: cluster_ids[i]
  /// selects signatures[cluster_ids[i]], row cluster_ids[i] of `reps`
  /// (stride `length`) and of `outputs` (stride `m`) — the layout
  /// FinishForwardFromClustering already holds (block signatures and
  /// centroids, and the per-cluster output buffer). Every entry of a block
  /// carries the block's (length, m), fixed at its first insert. Returns
  /// the number of entries evicted to bring the cache back within budget.
  int64_t InsertBatch(int64_t block, const LshSignature* signatures,
                      const int32_t* cluster_ids, int64_t count,
                      const float* reps, int64_t length,
                      const float* outputs, int64_t m);

  /// \brief Drops all entries (e.g. when L, H, or the W-staleness policy
  /// says the cache is no longer valid). Keeps the configured budgets.
  void Clear();

  int64_t TotalEntries() const { return total_entries_; }

  /// \brief Bounds the total entry count across blocks; 0 = unbounded
  /// (the paper's Algorithm 1 never evicts). Takes effect on the next
  /// insert.
  void set_max_entries(int64_t max_entries) { max_entries_ = max_entries; }
  int64_t max_entries() const { return max_entries_; }

  /// \brief Bounds ResidentBytes(); 0 = unbounded. Takes effect on the
  /// next insert.
  void set_max_bytes(int64_t max_bytes) { max_bytes_ = max_bytes; }
  int64_t max_bytes() const { return max_bytes_; }

  /// \brief Exact bytes of cached payload (representatives + outputs +
  /// signatures), maintained incrementally — O(1), no walk.
  int64_t ResidentBytes() const { return resident_bytes_; }

  /// \brief Cumulative heap allocations performed by the cache (slab and
  /// table growth). Frozen at steady state: a warm cache serves hits —
  /// and recycles evicted capacity for new inserts — with zero
  /// allocations per step (see tests/cluster_cache_test.cc).
  int64_t alloc_events() const { return alloc_events_; }

  Stats GetStats() const;

 private:
  /// One open-addressing slot. The alignment pads the 20 live bytes to 32
  /// so two slots share a cache line and no slot ever straddles one: a
  /// probe step costs exactly one line whether it compares the signature,
  /// reads the entry id, or both.
  struct alignas(32) Slot {
    LshSignature sig;
    int32_t entry = -1;  ///< slab entry id, -1 = empty
  };

  /// One column block: an open-addressing table over slab storage.
  struct Block {
    // Payload geometry, fixed at the block's first insert.
    int64_t rep_len = -1;
    int64_t out_len = -1;
    int64_t stride = 0;  ///< rep_len + out_len floats per entry

    // The table: capacity (a power of two) packed slots.
    std::vector<Slot> slots;
    uint64_t mask = 0;  ///< capacity - 1; 0 with no table yet

    // Entry-indexed slab storage: entry e's representative lives at
    // slab[e * stride], its output at slab[e * stride + rep_len].
    std::vector<float> slab;
    std::vector<LshSignature> entry_sig;
    std::vector<int32_t> entry_slot;  ///< back-pointer for O(1) removal
    std::vector<uint8_t> live;
    // Second-chance recency: stamp is the generation of the last touch
    // (stored with atomic_ref from the const lookup paths), visited the
    // stamp recorded at the clock's previous visit. stamp != visited =>
    // touched since => one more pass.
    std::vector<uint64_t> stamp;
    std::vector<uint64_t> visited;
    std::vector<int32_t> free_entries;
    int64_t num_entries = 0;
    int64_t clock_hand = 0;  ///< next entry id the clock inspects

    int64_t capacity() const { return static_cast<int64_t>(slots.size()); }
  };

  // The one probe loop, for lookups, inserts and rehash: returns the index
  // of the slot in the table (`slots`, capacity mask + 1) whose signature
  // is `sig`, or of the first empty slot. Callers pass the table pointer
  // and mask, so a batch hoists them out of its loop; it is always
  // inlined, so a lookup pays no call.
  [[gnu::always_inline]] static inline uint64_t ProbeSlot(
      const Slot* slots, uint64_t mask, const LshSignature& sig);

  Block& EnsureBlock(int64_t block);
  void EnsureTableCapacity(Block& block);
  int32_t AllocEntry(Block& block);
  void RemoveEntry(int64_t block_index, int32_t entry);
  /// Evicts until within budget; returns the number of entries evicted.
  int64_t EvictIfNeeded();
  bool OverBudget() const {
    return (max_entries_ > 0 && total_entries_ > max_entries_) ||
           (max_bytes_ > 0 && resident_bytes_ > max_bytes_);
  }
  int64_t EntryBytes(const Block& block) const {
    return block.stride * static_cast<int64_t>(sizeof(float)) +
           static_cast<int64_t>(sizeof(LshSignature));
  }
  void InsertOne(Block& block, const LshSignature& sig,
                 const float* representative, const float* output);

  std::vector<Block> blocks_;
  int64_t total_entries_ = 0;
  int64_t resident_bytes_ = 0;
  int64_t max_entries_ = 0;
  int64_t max_bytes_ = 0;
  int64_t alloc_events_ = 0;
  /// Advanced once per mutating insert call; lookups stamp entries with
  /// the current value (see Block::stamp).
  uint64_t generation_ = 1;
  /// Round-robin clock position across blocks.
  int64_t clock_block_ = 0;
};

}  // namespace adr

#endif  // ADR_CORE_CLUSTER_CACHE_H_
