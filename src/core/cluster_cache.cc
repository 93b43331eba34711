#include "core/cluster_cache.h"

#include <algorithm>
#include <type_traits>

#include "tensor/simd.h"
#include "util/check.h"
#include "util/parallel.h"

namespace adr {

namespace {

// Initial open-addressing capacity of a block (power of two). Small
// layers stay tiny; big layers double a handful of times and then stop.
constexpr int64_t kInitialSlots = 64;

// Grow the table once num_entries exceeds 7/8 of this fraction... kept
// simple: rebuild when occupancy would exceed ~70% so probes stay short.
bool NeedsGrow(int64_t entries, int64_t capacity) {
  return capacity == 0 || 10 * (entries + 1) > 7 * capacity;
}

int64_t ProbeBucket(int64_t probe_len) {
  return std::min<int64_t>(probe_len, ClusterReuseCache::kProbeBuckets) - 1;
}

}  // namespace

int64_t ClusterReuseCache::ProbeSlot(const Block& block,
                                     const LshSignature& sig,
                                     int64_t* probe_len) {
  // Load factor is capped well below 1, so an empty slot always ends the
  // scan. The signature comparison is an xor/or reduction to a single
  // well-predicted branch instead of two short-circuit word compares —
  // that plus the one-line Slot layout is what makes a probe step a
  // handful of cycles.
  const uint64_t w0 = sig.words[0];
  const uint64_t w1 = sig.words[1];
  uint64_t idx = SignatureKey(sig) & block.mask;
  int64_t len = 1;
  for (;;) {
    const Slot& slot = block.slots[static_cast<size_t>(idx)];
    if (slot.entry < 0) break;
    if (((slot.sig.words[0] ^ w0) | (slot.sig.words[1] ^ w1)) == 0) break;
    idx = (idx + 1) & block.mask;
    ++len;
  }
  *probe_len = len;
  return static_cast<int64_t>(idx);
}

bool ClusterReuseCache::Find(int64_t block_index, const LshSignature& signature,
                             View* view) const {
  ADR_CHECK_GE(block_index, 0);
  lookups_.fetch_add(1, std::memory_order_relaxed);
  if (static_cast<size_t>(block_index) >= blocks_.size()) {
    probe_counts_[0].fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  const Block& block = blocks_[static_cast<size_t>(block_index)];
  if (block.capacity() == 0) {
    probe_counts_[0].fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  int64_t probe_len = 0;
  const int64_t slot = ProbeSlot(block, signature, &probe_len);
  probe_counts_[static_cast<size_t>(ProbeBucket(probe_len))].fetch_add(
      1, std::memory_order_relaxed);
  const int32_t entry = block.slots[static_cast<size_t>(slot)].entry;
  if (entry < 0) return false;
  hits_.fetch_add(1, std::memory_order_relaxed);
  // Recency touch for second-chance eviction — only maintained while a
  // budget is set (an unbounded cache never evicts, so the random-access
  // stamp write would be dead weight on the hot path). Concurrent readers
  // may race on the same entry; they all store the same generation
  // snapshot.
  if (max_entries_ > 0 || max_bytes_ > 0) {
    std::atomic_ref<uint64_t>(
        const_cast<uint64_t&>(block.stamp[static_cast<size_t>(entry)]))
        .store(generation_, std::memory_order_relaxed);
  }
  if (view != nullptr) {
    const float* base =
        block.slab.data() + static_cast<int64_t>(entry) * block.stride;
    view->representative = base;
    view->output = base + block.rep_len;
    view->length = block.rep_len;
    view->m = block.out_len;
  }
  return true;
}

int64_t ClusterReuseCache::FindBatch(int64_t block_index,
                                     const LshSignature* signatures,
                                     int64_t count, int32_t* entries) const {
  ADR_CHECK_GE(block_index, 0);
  if (count <= 0) return 0;
  lookups_.fetch_add(count, std::memory_order_relaxed);
  if (static_cast<size_t>(block_index) >= blocks_.size() ||
      blocks_[static_cast<size_t>(block_index)].capacity() == 0) {
    std::fill_n(entries, static_cast<size_t>(count), int32_t{-1});
    probe_counts_[0].fetch_add(count, std::memory_order_relaxed);
    return 0;
  }
  const Block& block = blocks_[static_cast<size_t>(block_index)];
  const uint64_t generation = generation_;
  const bool track_recency = max_entries_ > 0 || max_bytes_ > 0;
  std::atomic<int64_t> total_hits{0};
  // Chunk boundaries depend only on (count, grain), and entries[i] is the
  // only per-index output, so decisions are thread-count independent.
  // Counters aggregate per chunk: one fetch_add per counter per chunk.
  ParallelFor(count, GrainForCost(64), [&](int64_t begin, int64_t end) {
    // The probe loop is written out here against local raw pointers
    // instead of calling ProbeSlot: hoisting the table pointer, mask, and
    // output pointers out of the closure keeps the per-lookup path free
    // of both a function call and repeated member-chain loads, which
    // together are worth ~2ns of the ~4ns budget per lookup.
    const Slot* slots = block.slots.data();
    const uint64_t mask = block.mask;
    uint64_t* stamps = const_cast<uint64_t*>(block.stamp.data());
    int64_t chunk_hits = 0;
    std::array<int64_t, kProbeBuckets> chunk_probes = {};
    // The loop is instantiated twice so the common unbudgeted case pays
    // neither the recency-stamp store nor its per-hit branch.
    const auto scan = [&](auto track) {
      for (int64_t i = begin; i < end; ++i) {
        const LshSignature sig = signatures[i];
        const uint64_t w0 = sig.words[0];
        const uint64_t w1 = sig.words[1];
        uint64_t idx = SignatureKey(sig) & mask;
        int64_t probe_len = 1;
        for (;;) {
          const Slot& slot = slots[idx];
          if (slot.entry < 0) break;
          if (((slot.sig.words[0] ^ w0) | (slot.sig.words[1] ^ w1)) == 0) {
            break;
          }
          idx = (idx + 1) & mask;
          ++probe_len;
        }
        ++chunk_probes[static_cast<size_t>(ProbeBucket(probe_len))];
        const int32_t entry = slots[idx].entry;
        entries[i] = entry;
        if (entry >= 0) {
          ++chunk_hits;
          if constexpr (decltype(track)::value) {
            std::atomic_ref<uint64_t>(stamps[static_cast<size_t>(entry)])
                .store(generation, std::memory_order_relaxed);
          }
        }
      }
    };
    if (track_recency) {
      scan(std::true_type{});
    } else {
      scan(std::false_type{});
    }
    if (chunk_hits > 0) {
      hits_.fetch_add(chunk_hits, std::memory_order_relaxed);
      total_hits.fetch_add(chunk_hits, std::memory_order_relaxed);
    }
    for (int b = 0; b < kProbeBuckets; ++b) {
      if (chunk_probes[static_cast<size_t>(b)] > 0) {
        probe_counts_[static_cast<size_t>(b)].fetch_add(
            chunk_probes[static_cast<size_t>(b)], std::memory_order_relaxed);
      }
    }
  });
  return total_hits.load(std::memory_order_relaxed);
}

void ClusterReuseCache::GatherHits(int64_t block_index, const int32_t* entries,
                                   int64_t count, float* outputs,
                                   int64_t out_stride, float* reps,
                                   int64_t rep_stride) const {
  if (count <= 0) return;
  ADR_CHECK_GE(block_index, 0);
  ADR_CHECK_LT(static_cast<size_t>(block_index), blocks_.size());
  const Block& block = blocks_[static_cast<size_t>(block_index)];
  const simd::Kernels& kernels = simd::Active();
  const int64_t row_cost = block.rep_len + block.out_len;
  ParallelFor(count, GrainForCost(row_cost), [&](int64_t begin, int64_t end) {
    for (int64_t i = begin; i < end; ++i) {
      const int32_t entry = entries[i];
      if (entry < 0) continue;
      const float* base =
          block.slab.data() + static_cast<int64_t>(entry) * block.stride;
      kernels.copy(base + block.rep_len, outputs + i * out_stride,
                   block.out_len);
      if (reps != nullptr) {
        kernels.copy(base, reps + i * rep_stride, block.rep_len);
      }
    }
  });
}

ClusterReuseCache::Block& ClusterReuseCache::EnsureBlock(int64_t block) {
  ADR_CHECK_GE(block, 0);
  if (static_cast<size_t>(block) >= blocks_.size()) {
    blocks_.resize(static_cast<size_t>(block) + 1);
    ++alloc_events_;
    if (static_cast<size_t>(clock_block_) >= blocks_.size()) clock_block_ = 0;
  }
  return blocks_[static_cast<size_t>(block)];
}

void ClusterReuseCache::EnsureTableCapacity(Block& block) {
  if (!NeedsGrow(block.num_entries, block.capacity())) return;
  int64_t capacity = std::max<int64_t>(block.capacity() * 2, kInitialSlots);
  while (NeedsGrow(block.num_entries, capacity)) capacity *= 2;
  block.slots.assign(static_cast<size_t>(capacity), Slot{});
  block.mask = static_cast<uint64_t>(capacity - 1);
  ++alloc_events_;
  // Rehash every live entry into the fresh table.
  const int64_t entry_capacity = static_cast<int64_t>(block.entry_sig.size());
  for (int64_t e = 0; e < entry_capacity; ++e) {
    if (!block.live[static_cast<size_t>(e)]) continue;
    int64_t probe_len = 0;
    const int64_t slot =
        ProbeSlot(block, block.entry_sig[static_cast<size_t>(e)], &probe_len);
    ADR_DCHECK(block.slots[static_cast<size_t>(slot)].entry < 0);
    block.slots[static_cast<size_t>(slot)].entry = static_cast<int32_t>(e);
    block.slots[static_cast<size_t>(slot)].sig =
        block.entry_sig[static_cast<size_t>(e)];
    block.entry_slot[static_cast<size_t>(e)] = static_cast<int32_t>(slot);
  }
}

int32_t ClusterReuseCache::AllocEntry(Block& block) {
  if (!block.free_entries.empty()) {
    const int32_t entry = block.free_entries.back();
    block.free_entries.pop_back();
    return entry;
  }
  const size_t entry = block.entry_sig.size();
  const size_t slab_capacity_before = block.slab.capacity();
  const size_t meta_capacity_before = block.entry_sig.capacity();
  block.slab.resize((entry + 1) * static_cast<size_t>(block.stride));
  block.entry_sig.emplace_back();
  block.entry_slot.push_back(-1);
  block.live.push_back(0);
  block.stamp.push_back(0);
  block.visited.push_back(0);
  // The free list must be able to absorb every entry without allocating
  // (RemoveEntry pushes onto it from the eviction path).
  block.free_entries.reserve(block.entry_sig.capacity());
  if (block.slab.capacity() != slab_capacity_before ||
      block.entry_sig.capacity() != meta_capacity_before) {
    ++alloc_events_;
  }
  return static_cast<int32_t>(entry);
}

void ClusterReuseCache::RemoveEntry(int64_t block_index, int32_t entry) {
  Block& block = blocks_[static_cast<size_t>(block_index)];
  ADR_DCHECK(block.live[static_cast<size_t>(entry)]);
  // Backward-shift deletion: close the probe chain over the vacated slot
  // so lookups never need tombstones.
  uint64_t hole = static_cast<uint64_t>(block.entry_slot[static_cast<size_t>(entry)]);
  uint64_t probe = hole;
  while (true) {
    probe = (probe + 1) & block.mask;
    const Slot& candidate = block.slots[static_cast<size_t>(probe)];
    if (candidate.entry < 0) break;
    const uint64_t ideal = SignatureKey(candidate.sig) & block.mask;
    // Shift back only entries whose probe chain passes through the hole.
    if (((probe - ideal) & block.mask) >= ((probe - hole) & block.mask)) {
      block.slots[static_cast<size_t>(hole)] = candidate;
      block.entry_slot[static_cast<size_t>(candidate.entry)] =
          static_cast<int32_t>(hole);
      hole = probe;
    }
  }
  block.slots[static_cast<size_t>(hole)].entry = -1;

  block.live[static_cast<size_t>(entry)] = 0;
  block.entry_slot[static_cast<size_t>(entry)] = -1;
  block.free_entries.push_back(entry);
  --block.num_entries;
  --total_entries_;
  resident_bytes_ -= EntryBytes(block);
}

void ClusterReuseCache::EvictIfNeeded() {
  // Second-chance clock over (block, entry id). An entry touched since
  // the clock's last visit (stamp != visited) gets one pass; untouched
  // entries are evicted. Passes are granted at most once per touch, so
  // the scan is O(1) amortized per insert, and within one call stamps are
  // frozen (the writer is serialized against lookups' stamping only in
  // the sense that any stamp seen grants at most one pass), so the loop
  // terminates.
  while (OverBudget() && total_entries_ > 0) {
    Block& block = blocks_[static_cast<size_t>(clock_block_)];
    const int64_t entry_capacity = static_cast<int64_t>(block.entry_sig.size());
    if (block.num_entries == 0 || block.clock_hand >= entry_capacity) {
      block.clock_hand = 0;
      clock_block_ = (clock_block_ + 1) % static_cast<int64_t>(blocks_.size());
      continue;
    }
    const int64_t e = block.clock_hand++;
    if (!block.live[static_cast<size_t>(e)]) continue;
    if (block.stamp[static_cast<size_t>(e)] !=
        block.visited[static_cast<size_t>(e)]) {
      block.visited[static_cast<size_t>(e)] =
          block.stamp[static_cast<size_t>(e)];
      continue;
    }
    RemoveEntry(clock_block_, static_cast<int32_t>(e));
    ++evictions_;
  }
}

void ClusterReuseCache::InsertOne(Block& block, const LshSignature& sig,
                                  const float* representative,
                                  const float* output) {
  EnsureTableCapacity(block);
  int64_t probe_len = 0;
  const int64_t slot = ProbeSlot(block, sig, &probe_len);
  int32_t entry = block.slots[static_cast<size_t>(slot)].entry;
  const bool is_new = entry < 0;
  if (is_new) {
    entry = AllocEntry(block);
    block.entry_sig[static_cast<size_t>(entry)] = sig;
    block.entry_slot[static_cast<size_t>(entry)] =
        static_cast<int32_t>(slot);
    block.live[static_cast<size_t>(entry)] = 1;
    // One free pass for the fresh entry (visited lags stamp by one
    // generation), matching the pass a lookup hit would grant.
    block.visited[static_cast<size_t>(entry)] = generation_ - 1;
    block.slots[static_cast<size_t>(slot)].entry = entry;
    block.slots[static_cast<size_t>(slot)].sig = sig;
    ++block.num_entries;
    ++total_entries_;
    resident_bytes_ += EntryBytes(block);
  }
  block.stamp[static_cast<size_t>(entry)] = generation_;
  float* base = block.slab.data() + static_cast<int64_t>(entry) * block.stride;
  std::copy_n(representative, static_cast<size_t>(block.rep_len), base);
  std::copy_n(output, static_cast<size_t>(block.out_len),
              base + block.rep_len);
  ++inserts_;
}

void ClusterReuseCache::Insert(int64_t block_index,
                               const LshSignature& signature,
                               const float* representative, int64_t length,
                               const float* output, int64_t m) {
  ADR_CHECK_GT(length, 0);
  ADR_CHECK_GT(m, 0);
  Block& block = EnsureBlock(block_index);
  if (block.rep_len < 0) {
    block.rep_len = length;
    block.out_len = m;
    block.stride = length + m;
  } else {
    ADR_CHECK_EQ(block.rep_len, length);
    ADR_CHECK_EQ(block.out_len, m);
  }
  ++generation_;
  InsertOne(block, signature, representative, output);
  EvictIfNeeded();
}

void ClusterReuseCache::InsertBatch(int64_t block_index,
                                    const LshSignature* signatures,
                                    const int32_t* cluster_ids, int64_t count,
                                    const float* reps, int64_t length,
                                    const float* outputs, int64_t m) {
  if (count <= 0) return;
  ADR_CHECK_GT(length, 0);
  ADR_CHECK_GT(m, 0);
  Block& block = EnsureBlock(block_index);
  if (block.rep_len < 0) {
    block.rep_len = length;
    block.out_len = m;
    block.stride = length + m;
  } else {
    ADR_CHECK_EQ(block.rep_len, length);
    ADR_CHECK_EQ(block.out_len, m);
  }
  ++generation_;
  for (int64_t i = 0; i < count; ++i) {
    const int64_t c = cluster_ids[i];
    InsertOne(block, signatures[c], reps + c * length, outputs + c * m);
  }
  EvictIfNeeded();
}

void ClusterReuseCache::Clear() {
  blocks_.clear();
  total_entries_ = 0;
  resident_bytes_ = 0;
  evictions_ = 0;
  inserts_ = 0;
  generation_ = 1;
  clock_block_ = 0;
  lookups_.store(0, std::memory_order_relaxed);
  hits_.store(0, std::memory_order_relaxed);
  for (auto& bucket : probe_counts_) {
    bucket.store(0, std::memory_order_relaxed);
  }
}

ClusterReuseCache::Stats ClusterReuseCache::GetStats() const {
  Stats stats;
  stats.entries = total_entries_;
  for (const Block& block : blocks_) stats.slots += block.capacity();
  stats.resident_bytes = resident_bytes_;
  stats.lookups = lookups();
  stats.hits = hits();
  stats.inserts = inserts_;
  stats.evictions = evictions_;
  stats.alloc_events = alloc_events_;
  for (int b = 0; b < kProbeBuckets; ++b) {
    stats.probe_counts[static_cast<size_t>(b)] =
        probe_counts_[static_cast<size_t>(b)].load(std::memory_order_relaxed);
  }
  return stats;
}

}  // namespace adr
