// Tests for the slab-backed cluster-reuse cache: differential
// bit-exactness against the original map-based implementation (preserved
// in core/cluster_cache_reference.h), batched-lookup consistency,
// second-chance eviction under entry and byte budgets, the
// zero-allocation steady state, and concurrent read thread safety (run
// under TSan via scripts/tsan_tests.txt).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <thread>
#include <vector>

#include "core/cluster_cache.h"
#include "core/cluster_cache_reference.h"
#include "core/clustered_matmul.h"
#include "core/reuse_conv2d.h"
#include "core/subvector_clustering.h"
#include "core/subvector_clustering_reference.h"
#include "tests/cache_harness.h"
#include "tests/clustering_harness.h"
#include "tests/kernel_harness.h"
#include "tensor/gemm.h"
#include "tensor/simd.h"
#include "tensor/tensor_ops.h"
#include "util/parallel.h"
#include "util/rng.h"

namespace adr {
namespace {

using testutil::FindEntry;
using testutil::InsertEntry;
using testutil::ThreadCountGuard;

LshSignature MakeSignature(uint64_t a, uint64_t b = 0) {
  LshSignature sig;
  sig.words[0] = a;
  sig.words[1] = b;
  return sig;
}

// ---------------------------------------------------------------------------
// Differential forward: the original FinishForwardFromClustering logic,
// verbatim over the ReferenceClusterCache (sequential Find per cluster,
// memcpy on hit, compact gather-GEMM over the misses, per-miss Insert in
// ascending cluster order). The production path through the slab cache
// must reproduce its outputs, hit/miss decisions, and counts
// bit-exactly at unbounded capacity.

struct ReferenceForwardResult {
  Tensor y;
  /// The clustering, a hit's centroid row overwritten with the cached
  /// representative.
  ReuseClustering clustering;
  /// Whether the cache served the cluster, indexed [block][cluster].
  std::vector<std::vector<bool>> reused;
  int64_t clusters_total = 0;
  int64_t clusters_reused = 0;
};

ReferenceForwardResult ReferenceForward(const BlockLshFamilies& families,
                                        const float* x, int64_t num_rows,
                                        const Tensor& weight,
                                        const Tensor* bias,
                                        int64_t rows_per_group,
                                        ReferenceClusterCache* cache) {
  ReuseClustering clustering =
      ReferenceClusterSubVectors(families, x, num_rows, rows_per_group);
  const int64_t m = weight.shape()[1];
  ReferenceForwardResult result;
  result.y = Tensor(Shape({num_rows, m}));
  float* y = result.y.data();
  std::fill_n(y, static_cast<size_t>(num_rows * m), 0.0f);
  const simd::Kernels& kernels = simd::Active();

  for (size_t bi = 0; bi < clustering.blocks.size(); ++bi) {
    SubMatrixClustering& block = clustering.blocks[bi];
    const int64_t num_clusters = block.clustering.num_clusters();
    const int64_t length = block.length;
    const float* w_block = weight.data() + block.col_offset * m;
    result.clusters_total += num_clusters;
    result.reused.emplace_back(static_cast<size_t>(num_clusters), false);

    std::vector<float> yc(static_cast<size_t>(num_clusters * m));
    std::vector<int32_t> miss_clusters;
    for (int64_t c = 0; c < num_clusters; ++c) {
      const ReferenceClusterCache::Entry* entry =
          cache->Find(static_cast<int64_t>(bi), block.signatures[c]);
      if (entry != nullptr) {
        std::memcpy(yc.data() + c * m, entry->output.data(),
                    sizeof(float) * static_cast<size_t>(m));
        std::memcpy(block.centroids.data() + c * length,
                    entry->representative.data(),
                    sizeof(float) * static_cast<size_t>(length));
        result.reused.back()[static_cast<size_t>(c)] = true;
        ++result.clusters_reused;
      } else {
        miss_clusters.push_back(static_cast<int32_t>(c));
      }
    }

    const int64_t num_miss = static_cast<int64_t>(miss_clusters.size());
    if (num_miss > 0) {
      if (num_miss == num_clusters) {
        Gemm(block.centroids.data(), w_block, yc.data(), num_clusters,
             length, m);
      } else {
        std::vector<float> compact(static_cast<size_t>(num_miss * length));
        std::vector<float> compact_y(static_cast<size_t>(num_miss * m));
        for (int64_t i = 0; i < num_miss; ++i) {
          std::memcpy(compact.data() + i * length,
                      block.centroids.data() + miss_clusters[i] * length,
                      sizeof(float) * static_cast<size_t>(length));
        }
        Gemm(compact.data(), w_block, compact_y.data(), num_miss, length, m);
        for (int64_t i = 0; i < num_miss; ++i) {
          std::memcpy(yc.data() + miss_clusters[i] * m,
                      compact_y.data() + i * m,
                      sizeof(float) * static_cast<size_t>(m));
        }
      }
      for (int64_t i = 0; i < num_miss; ++i) {
        const int64_t c = miss_clusters[i];
        ReferenceClusterCache::Entry entry;
        entry.representative.assign(block.centroids.data() + c * length,
                                    block.centroids.data() + (c + 1) * length);
        entry.output.assign(yc.data() + c * m, yc.data() + (c + 1) * m);
        cache->Insert(static_cast<int64_t>(bi), block.signatures[c],
                      std::move(entry));
      }
    }

    for (int64_t i = 0; i < num_rows; ++i) {
      kernels.add(yc.data() +
                      block.clustering.assignment[static_cast<size_t>(i)] * m,
                  y + i * m, m);
    }
  }
  if (bias != nullptr) {
    AddRowBias(bias->data(), y, num_rows, m);
  }
  result.clustering = std::move(clustering);
  return result;
}

// Batches of noisy prototype rows: overlapping prototypes across batches
// produce a realistic mix of cache hits and misses every batch.
Tensor PrototypeBatch(int64_t n, int64_t k, int batch_index, Rng* rng) {
  Rng proto_rng(1234);  // prototypes shared by every batch
  Tensor protos = Tensor::RandomGaussian(Shape({8, k}), &proto_rng);
  Tensor x(Shape({n, k}));
  for (int64_t i = 0; i < n; ++i) {
    // Rotate through a batch-dependent window of 4 prototypes, so
    // consecutive batches share half their prototypes.
    const int64_t p = (i + batch_index) % 4 + (batch_index % 2) * 2;
    for (int64_t j = 0; j < k; ++j) {
      x.at(i, j) = protos.at(p, j) + rng->NextGaussian() * 0.002f;
    }
  }
  return x;
}

TEST(ClusterCacheDifferentialTest, MatchesReferenceMapBitExactly) {
  constexpr int64_t kN = 48, kK = 20, kM = 7;
  constexpr int kBatches = 5;
  Rng rng(11);
  Tensor w = Tensor::RandomGaussian(Shape({kK, kM}), &rng);
  Tensor bias = Tensor::RandomGaussian(Shape({kM}), &rng);
  auto families = BlockLshFamilies::Create(kK, 10, 12, 3);
  ASSERT_TRUE(families.ok());

  ThreadCountGuard guard;
  for (const simd::Kernels* kernels : testutil::Backends()) {
    simd::ScopedKernelsOverride override_kernels(*kernels);
    for (int threads : {1, 4}) {
      ThreadPool::SetGlobalThreads(threads);
      ClusterReuseCache cache;
      ReferenceClusterCache reference;
      int64_t lookups = 0, hits = 0, evictions = 0;
      Rng data_rng(77);  // same batch stream for every configuration
      for (int batch = 0; batch < kBatches; ++batch) {
        const Tensor x = PrototypeBatch(kN, kK, batch, &data_rng);
        // The slab cache's decision per cluster, probed before the
        // forward (an unbudgeted FindBatch changes nothing).
        const ReuseClustering fresh =
            ReferenceClusterSubVectors(*families, x.data(), kN, kN);
        std::vector<std::vector<int32_t>> entries;
        for (size_t bi = 0; bi < fresh.blocks.size(); ++bi) {
          const SubMatrixClustering& block = fresh.blocks[bi];
          entries.emplace_back(block.signatures.size());
          cache.FindBatch(static_cast<int64_t>(bi), block.signatures.data(),
                          static_cast<int64_t>(block.signatures.size()),
                          entries.back().data());
        }
        const ForwardReuseResult ours = ClusteredMatmulForward(
            *families, x.data(), kN, w, &bias, kN, &cache);
        const ReferenceForwardResult expected = ReferenceForward(
            *families, x.data(), kN, w, &bias, kN, &reference);

        // Forward outputs: bitwise equal, not merely close.
        ASSERT_EQ(MaxAbsDiff(ours.y_rows, expected.y),
                  0.0f)
            << "backend=" << kernels->name << " threads=" << threads
            << " batch=" << batch;
        // Identical hit/miss decisions, cluster by cluster, and identical
        // clusterings: a hit's centroid row holds the same cached
        // representative in both.
        ASSERT_EQ(entries.size(), expected.reused.size());
        int64_t batch_hits = 0;
        for (size_t bi = 0; bi < expected.reused.size(); ++bi) {
          ASSERT_EQ(entries[bi].size(), expected.reused[bi].size());
          for (size_t c = 0; c < entries[bi].size(); ++c) {
            ASSERT_EQ(entries[bi][c] >= 0, expected.reused[bi][c])
                << "block " << bi << " cluster " << c << " batch " << batch;
            if (entries[bi][c] >= 0) ++batch_hits;
          }
        }
        testutil::ExpectSameClustering(ours.clustering, expected.clustering);
        ASSERT_EQ(ours.stats.clusters_reused, batch_hits);
        ASSERT_EQ(ours.stats.clusters_reused, expected.clusters_reused);
        ASSERT_EQ(ours.stats.clusters_total, expected.clusters_total);
        lookups += ours.stats.clusters_total;
        hits += ours.stats.clusters_reused;
        evictions += ours.stats.cache_evictions;
      }
      // Cumulative counts, occupancy, and exact memory accounting agree
      // with the reference's counters and full walks.
      EXPECT_GT(hits, 0);
      EXPECT_EQ(lookups, reference.lookups());
      EXPECT_EQ(hits, reference.hits());
      EXPECT_EQ(cache.TotalEntries(), reference.TotalEntries());
      EXPECT_EQ(cache.ResidentBytes(), reference.ApproximateMemoryBytes());
      EXPECT_EQ(evictions, 0);
    }
  }
}

// ---------------------------------------------------------------------------
// Batched lookup semantics.

TEST(ClusterCacheTest, FindBatchMatchesSequentialFind) {
  ClusterReuseCache cache;
  ClusterReuseCache probe;  // independent instance probed sequentially
  constexpr int64_t kLen = 6, kM = 3;
  std::vector<float> rep(kLen), out(kM);
  for (int i = 0; i < 200; ++i) {
    const LshSignature sig = MakeSignature(static_cast<uint64_t>(i) * 7 + 1,
                                           static_cast<uint64_t>(i));
    for (auto& v : rep) v = static_cast<float>(i);
    for (auto& v : out) v = static_cast<float>(-i);
    InsertEntry(&cache, 0, sig, rep.data(), kLen, out.data(), kM);
    InsertEntry(&probe, 0, sig, rep.data(), kLen, out.data(), kM);
  }

  // Every third signature misses.
  std::vector<LshSignature> queries;
  for (int i = 0; i < 300; ++i) {
    queries.push_back(i % 3 == 2
                          ? MakeSignature(0xdead0000 + static_cast<uint64_t>(i))
                          : MakeSignature(static_cast<uint64_t>(i % 200) * 7 + 1,
                                          static_cast<uint64_t>(i % 200)));
  }
  std::vector<int32_t> entries(queries.size(), -2);
  const int64_t hits =
      cache.FindBatch(0, queries.data(),
                      static_cast<int64_t>(queries.size()), entries.data());

  int64_t expected_hits = 0;
  for (size_t i = 0; i < queries.size(); ++i) {
    const bool hit = FindEntry(probe, 0, queries[i]);
    ASSERT_EQ(entries[i] >= 0, hit) << "query " << i;
    if (hit) ++expected_hits;
  }
  EXPECT_EQ(hits, expected_hits);

  // GatherHits copies exactly the hit payloads, leaving miss rows alone.
  std::vector<float> outputs(queries.size() * kM, 99.0f);
  std::vector<float> reps(queries.size() * kLen, 99.0f);
  cache.GatherHits(0, entries.data(), static_cast<int64_t>(queries.size()),
                   outputs.data(), kM, reps.data(), kLen);
  for (size_t i = 0; i < queries.size(); ++i) {
    if (entries[i] < 0) {
      EXPECT_EQ(outputs[i * kM], 99.0f);
      continue;
    }
    const float id = static_cast<float>(i % 200);
    EXPECT_EQ(reps[i * kLen], id) << "query " << i;
    EXPECT_EQ(outputs[i * kM], -id) << "query " << i;
  }
}

TEST(ClusterCacheTest, FindBatchOnEmptyCacheMissesEverything) {
  ClusterReuseCache cache;
  std::vector<LshSignature> queries(10, MakeSignature(42));
  std::vector<int32_t> entries(10, 0);
  EXPECT_EQ(cache.FindBatch(3, queries.data(), 10, entries.data()), 0);
  for (int32_t e : entries) EXPECT_EQ(e, -1);
}

TEST(ClusterCacheTest, FindBatchDecisionsAreThreadCountIndependent) {
  ThreadCountGuard guard;
  ClusterReuseCache cache;
  const float rep[] = {1.0f};
  const float out[] = {2.0f};
  for (int i = 0; i < 500; ++i) {
    InsertEntry(&cache, 0, MakeSignature(static_cast<uint64_t>(i) * 11 + 3),
                rep, 1, out, 1);
  }
  std::vector<LshSignature> queries;
  for (int i = 0; i < 2000; ++i) {
    queries.push_back(MakeSignature(static_cast<uint64_t>(i) * 11 + 3));
  }
  std::vector<std::vector<int32_t>> results;
  for (int threads : {1, 4}) {
    ThreadPool::SetGlobalThreads(threads);
    results.emplace_back(queries.size(), -2);
    cache.FindBatch(0, queries.data(), static_cast<int64_t>(queries.size()),
                    results.back().data());
  }
  EXPECT_EQ(results[0], results[1]);
}

// ---------------------------------------------------------------------------
// Eviction.

TEST(ClusterCacheEvictionTest, ByteBudgetBoundsResidentBytes) {
  ClusterReuseCache cache;
  // One entry: (4 + 2) floats + one signature = 24 + 16 = 40 bytes.
  const float rep[] = {1, 2, 3, 4};
  const float out[] = {5, 6};
  const int64_t entry_bytes =
      6 * static_cast<int64_t>(sizeof(float)) +
      static_cast<int64_t>(sizeof(LshSignature));
  cache.set_max_bytes(2 * entry_bytes + entry_bytes / 2);  // fits 2, not 3
  int64_t evictions = 0;
  for (int i = 1; i <= 5; ++i) {
    evictions += InsertEntry(&cache, 0, MakeSignature(static_cast<uint64_t>(i)),
                             rep, 4, out, 2);
  }
  EXPECT_EQ(cache.TotalEntries(), 2);
  EXPECT_EQ(cache.ResidentBytes(), 2 * entry_bytes);
  EXPECT_EQ(evictions, 3);
  EXPECT_LE(cache.ResidentBytes(), cache.max_bytes());
}

TEST(ClusterCacheEvictionTest, SecondChanceKeepsRecentlyHitEntry) {
  ClusterReuseCache cache;
  cache.set_max_entries(3);
  const float rep[] = {1.0f};
  const float out[] = {2.0f};
  const LshSignature a = MakeSignature(1), b = MakeSignature(2),
                     c = MakeSignature(3), d = MakeSignature(4),
                     e = MakeSignature(5);
  EXPECT_EQ(InsertEntry(&cache, 0, a, rep, 1, out, 1), 0);
  EXPECT_EQ(InsertEntry(&cache, 0, b, rep, 1, out, 1), 0);
  EXPECT_EQ(InsertEntry(&cache, 0, c, rep, 1, out, 1), 0);
  // Over budget: every entry spends its second chance, then the clock
  // wraps and evicts the oldest untouched entry (a).
  EXPECT_EQ(InsertEntry(&cache, 0, d, rep, 1, out, 1), 1);
  EXPECT_FALSE(FindEntry(cache, 0, a));

  // Touch b: the next eviction scan must spare it and take c instead.
  EXPECT_TRUE(FindEntry(cache, 0, b));
  EXPECT_EQ(InsertEntry(&cache, 0, e, rep, 1, out, 1), 1);
  EXPECT_TRUE(FindEntry(cache, 0, b)) << "recently-hit entry was evicted";
  EXPECT_FALSE(FindEntry(cache, 0, c))
      << "untouched entry should have been evicted";
  EXPECT_TRUE(FindEntry(cache, 0, d));
  EXPECT_TRUE(FindEntry(cache, 0, e));
  EXPECT_EQ(cache.TotalEntries(), 3);
}

TEST(ClusterCacheEvictionTest, EntryBudgetHoldsAcrossBlocks) {
  ClusterReuseCache cache;
  cache.set_max_entries(16);
  const float rep[] = {1.0f};
  const float out[] = {2.0f};
  int64_t evictions = 0;
  for (int i = 0; i < 200; ++i) {
    evictions += InsertEntry(&cache, i % 3,
                             MakeSignature(static_cast<uint64_t>(i) + 1), rep,
                             1, out, 1);
    EXPECT_LE(cache.TotalEntries(), 16);
  }
  EXPECT_EQ(cache.TotalEntries(), 16);
  EXPECT_EQ(evictions, 200 - 16);
}

TEST(ClusterCacheEvictionTest, ClearResetsCountersAndKeepsBudgets) {
  ClusterReuseCache cache;
  cache.set_max_entries(2);
  const float rep[] = {1.0f};
  const float out[] = {2.0f};
  int64_t evictions = 0;
  for (int i = 0; i < 8; ++i) {
    evictions += InsertEntry(
        &cache, 0, MakeSignature(static_cast<uint64_t>(i) + 1), rep, 1, out, 1);
  }
  EXPECT_GT(evictions, 0);

  cache.Clear();
  const ClusterReuseCache::Stats stats = cache.GetStats();
  EXPECT_EQ(stats.entries, 0);
  EXPECT_EQ(stats.slots, 0);
  EXPECT_EQ(stats.resident_bytes, 0);
  // Budgets survive and keep biting.
  EXPECT_EQ(cache.max_entries(), 2);
  evictions = 0;
  for (int i = 0; i < 8; ++i) {
    evictions += InsertEntry(
        &cache, 0, MakeSignature(static_cast<uint64_t>(i) + 1), rep, 1, out, 1);
  }
  EXPECT_EQ(cache.TotalEntries(), 2);
  EXPECT_EQ(evictions, 6);
}

TEST(CacheEvictionTest, EvictsUntouchedOldestBeyondCap) {
  // With no intervening hits, second-chance degenerates to FIFO: the
  // oldest untouched entry goes first.
  ClusterReuseCache cache;
  cache.set_max_entries(2);
  LshSignature s1, s2, s3;
  s1.SetBit(1);
  s2.SetBit(2);
  s3.SetBit(3);
  const float rep[] = {1.0f};
  const float out[] = {2.0f};
  InsertEntry(&cache, 0, s1, rep, 1, out, 1);
  InsertEntry(&cache, 0, s2, rep, 1, out, 1);
  EXPECT_EQ(cache.TotalEntries(), 2);
  EXPECT_EQ(InsertEntry(&cache, 0, s3, rep, 1, out, 1), 1);  // evicts s1
  EXPECT_EQ(cache.TotalEntries(), 2);
  EXPECT_FALSE(FindEntry(cache, 0, s1));
  EXPECT_TRUE(FindEntry(cache, 0, s2));
  EXPECT_TRUE(FindEntry(cache, 0, s3));
}

TEST(CacheEvictionTest, UnboundedByDefault) {
  ClusterReuseCache cache;
  const float rep[] = {1.0f};
  const float out[] = {2.0f};
  for (int i = 0; i < 100; ++i) {
    LshSignature sig;
    sig.SetBit(i % 128);
    sig.words[0] ^= static_cast<uint64_t>(i) << 32;
    EXPECT_EQ(InsertEntry(&cache, 0, sig, rep, 1, out, 1), 0);
  }
  EXPECT_EQ(cache.TotalEntries(), 100);
}

TEST(CacheEvictionTest, ReinsertDoesNotDoubleCount) {
  ClusterReuseCache cache;
  cache.set_max_entries(4);
  LshSignature sig;
  sig.SetBit(5);
  const float rep[] = {0.0f};
  const float out1[] = {1.0f};
  const float out2[] = {2.0f};
  InsertEntry(&cache, 0, sig, rep, 1, out1, 1);
  InsertEntry(&cache, 0, sig, rep, 1, out2, 1);  // overwrite, not a new entry
  EXPECT_EQ(cache.TotalEntries(), 1);
  float got = 0.0f;
  ASSERT_TRUE(FindEntry(cache, 0, sig, &got));
  EXPECT_EQ(got, 2.0f);
}

TEST(CacheEvictionTest, MemoryAccounting) {
  ClusterReuseCache cache;
  LshSignature sig;
  const float rep[] = {1, 2, 3, 4};  // 16 bytes
  const float out[] = {1, 2};        // 8 bytes
  InsertEntry(&cache, 0, sig, rep, 4, out, 2);
  EXPECT_EQ(cache.ResidentBytes(),
            static_cast<int64_t>(sizeof(LshSignature)) + 24);
}

// Regression: growing a table rehashes every live entry into new slots.
// The rehash once left the entry -> slot back-pointers stale, so a later
// eviction backward-shifted from the wrong slot and corrupted the table
// (and aborted in debug builds). Grow one block through several rehashes
// under each kind of budget, keep evicting, and check every lookup
// against an unbounded reference map holding every payload ever
// inserted: a resident entry must return exactly its own payload, and
// every resident entry must stay findable.
TEST(ClusterCacheEvictionTest, EvictionAfterTableGrowthKeepsEntriesFindable) {
  constexpr int64_t kLength = 3, kM = 2, kBudgetEntries = 150;
  const int64_t entry_bytes = (kLength + kM) * static_cast<int64_t>(sizeof(float)) +
                              static_cast<int64_t>(sizeof(LshSignature));
  for (const bool byte_budget : {false, true}) {
    SCOPED_TRACE(byte_budget ? "max_bytes" : "max_entries");
    ClusterReuseCache cache;
    if (byte_budget) {
      cache.set_max_bytes(kBudgetEntries * entry_bytes);
    } else {
      cache.set_max_entries(kBudgetEntries);
    }
    ReferenceClusterCache reference;
    std::vector<LshSignature> inserted;
    int64_t last_slots = 0, rehashes = 0, evictions = 0;
    for (int i = 0; i < 600; ++i) {
      const LshSignature sig =
          MakeSignature(static_cast<uint64_t>(i) * 0x9e37 + 1, i % 5);
      ReferenceClusterCache::Entry entry;
      for (int64_t j = 0; j < kLength; ++j) {
        entry.representative.push_back(static_cast<float>(i * 10 + j));
      }
      for (int64_t j = 0; j < kM; ++j) {
        entry.output.push_back(static_cast<float>(-i * 10 - j));
      }
      evictions += InsertEntry(&cache, 0, sig, entry.representative.data(),
                               kLength, entry.output.data(), kM);
      reference.Insert(0, sig, std::move(entry));
      inserted.push_back(sig);
      // Touch a few older entries so the clock grants second chances.
      if (i % 7 == 0) FindEntry(cache, 0, inserted[static_cast<size_t>(i / 2)]);
      const int64_t slots = cache.GetStats().slots;
      if (slots != last_slots) {
        if (last_slots != 0) ++rehashes;
        last_slots = slots;
      }
      if (i % 50 != 49) continue;
      int64_t found = 0;
      for (const LshSignature& s : inserted) {
        float got_rep[kLength];
        float got_out[kM];
        if (!FindEntry(cache, 0, s, got_out, got_rep)) continue;
        ++found;
        const ReferenceClusterCache::Entry* want = reference.Find(0, s);
        ASSERT_NE(want, nullptr);
        for (int64_t j = 0; j < kLength; ++j) {
          ASSERT_EQ(got_rep[j], want->representative[static_cast<size_t>(j)]);
        }
        for (int64_t j = 0; j < kM; ++j) {
          ASSERT_EQ(got_out[j], want->output[static_cast<size_t>(j)]);
        }
      }
      ASSERT_EQ(found, cache.TotalEntries()) << "after insert " << i;
    }
    EXPECT_GE(rehashes, 2);
    EXPECT_EQ(cache.TotalEntries(), kBudgetEntries);
    EXPECT_EQ(evictions, 600 - kBudgetEntries);
  }
}

TEST(ClusterCacheTest, StatsCountEntriesAndSlots) {
  ClusterReuseCache cache;
  const float rep[] = {1.0f};
  const float out[] = {2.0f};
  std::vector<LshSignature> sigs;
  for (int i = 0; i < 40; ++i) {
    sigs.push_back(MakeSignature(static_cast<uint64_t>(i) + 1));
    InsertEntry(&cache, 0, sigs.back(), rep, 1, out, 1);
  }
  std::vector<int32_t> entries(sigs.size());
  EXPECT_EQ(cache.FindBatch(0, sigs.data(), 40, entries.data()), 40);
  const ClusterReuseCache::Stats stats = cache.GetStats();
  EXPECT_EQ(stats.entries, 40);
  EXPECT_EQ(stats.resident_bytes, cache.ResidentBytes());
  EXPECT_GT(stats.alloc_events, 0);
  // Power-of-two capacity with load <= 70%.
  EXPECT_GE(stats.slots, 64);
  EXPECT_EQ(stats.slots & (stats.slots - 1), 0);
}

// ---------------------------------------------------------------------------
// Zero heap allocations at steady state.

TEST(ClusterCacheTest, WarmCacheStopsAllocating) {
  ClusterReuseCache cache;
  cache.set_max_entries(256);
  std::vector<float> rep(32, 1.0f), out(16, 2.0f);
  // Warm: fill well past the budget so slab, table, and free list have
  // all reached their steady capacity.
  for (int i = 0; i < 2000; ++i) {
    InsertEntry(&cache, 0, MakeSignature(static_cast<uint64_t>(i) + 1, 9),
                rep.data(), 32, out.data(), 16);
  }
  const int64_t warm_allocs = cache.alloc_events();
  EXPECT_GT(warm_allocs, 0);

  // Steady state: every insert recycles an evicted entry, every lookup is
  // read-only — zero cache-side allocations.
  std::vector<int32_t> entries(64);
  std::vector<LshSignature> queries(64);
  for (int step = 0; step < 50; ++step) {
    for (int i = 0; i < 64; ++i) {
      queries[static_cast<size_t>(i)] =
          MakeSignature(static_cast<uint64_t>(2000 + step * 64 + i), 9);
    }
    cache.FindBatch(0, queries.data(), 64, entries.data());
    for (const LshSignature& sig : queries) {
      InsertEntry(&cache, 0, sig, rep.data(), 32, out.data(), 16);
    }
    ASSERT_EQ(cache.alloc_events(), warm_allocs) << "allocation at step "
                                                 << step;
  }
}

TEST(ClusterCacheTest, SteadyStateTrainingPerformsNoCacheAllocations) {
  // Mirrors workspace_arena_test: a CR-enabled layer fed identical
  // batches must stop touching the heap from the cache after the first
  // step populates it.
  Conv2dConfig config;
  config.in_channels = 3;
  config.out_channels = 8;
  config.kernel = 3;
  config.stride = 1;
  config.pad = 1;
  config.in_height = 8;
  config.in_width = 8;
  ReuseConfig reuse;
  reuse.sub_vector_length = 9;
  reuse.num_hashes = 10;
  reuse.scope = ClusterScope::kAcrossBatch;

  Rng rng(41);
  ReuseConv2d layer("cache_steady", config, reuse, &rng);
  Rng data_rng(42);
  const Tensor input = Tensor::RandomGaussian(Shape({2, 3, 8, 8}), &data_rng);
  const Tensor grad_out =
      Tensor::RandomGaussian(Shape({2, 8, 8, 8}), &data_rng);

  layer.Forward(input, /*training=*/true);
  layer.Backward(grad_out);
  ASSERT_NE(layer.cache(), nullptr);
  const int64_t warm_allocs = layer.cache()->alloc_events();
  EXPECT_GT(warm_allocs, 0);

  for (int step = 0; step < 4; ++step) {
    layer.Forward(input, /*training=*/true);
    layer.Backward(grad_out);
    EXPECT_EQ(layer.cache()->alloc_events(), warm_allocs)
        << "cache-side allocation at step " << step;
  }
  // The first of the five identical batches misses everywhere, the other
  // four hit everywhere.
  EXPECT_GT(layer.stats().cache_hits, 0);
  EXPECT_EQ(layer.stats().cache_hits * 5, layer.stats().cache_lookups * 4);
  EXPECT_EQ(layer.stats().cache_entries, layer.cache()->TotalEntries());
}

// ---------------------------------------------------------------------------
// Concurrency: FindBatch and GatherHits are const and safe from many
// threads; TSan checks the recency-stamp stores they share.

TEST(ClusterCacheTest, ConcurrentFindBatchIsThreadSafe) {
  ClusterReuseCache cache;
  // A budget (never exceeded here) keeps recency stamping active so the
  // concurrent readers exercise the atomic stamp stores under TSan.
  cache.set_max_entries(4096);
  std::vector<float> rep(8, 1.0f), out(4, 2.0f);
  constexpr int kResident = 512;
  for (int i = 0; i < kResident; ++i) {
    InsertEntry(&cache, 0, MakeSignature(static_cast<uint64_t>(i) + 1),
                rep.data(), 8, out.data(), 4);
  }

  constexpr int kThreads = 4;
  constexpr int kRounds = 50;
  constexpr int kQueries = 256;  // half hit, half miss
  std::vector<std::thread> workers;
  std::vector<int64_t> per_thread_hits(kThreads, 0);
  std::vector<int64_t> per_thread_expected(kThreads, 0);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      std::vector<LshSignature> queries(kQueries);
      std::vector<int32_t> entries(kQueries);
      std::vector<float> outputs(kQueries * 4);
      std::vector<float> reps(kQueries * 8);
      for (int round = 0; round < kRounds; ++round) {
        for (int i = 0; i < kQueries; ++i) {
          const uint64_t key = static_cast<uint64_t>((i * kThreads + t + round) %
                                                     (2 * kResident));
          queries[static_cast<size_t>(i)] = MakeSignature(key + 1);
          // Signatures 1..kResident are resident, the rest miss.
          if (key < kResident) ++per_thread_expected[static_cast<size_t>(t)];
        }
        per_thread_hits[static_cast<size_t>(t)] +=
            cache.FindBatch(0, queries.data(), kQueries, entries.data());
        cache.GatherHits(0, entries.data(), kQueries, outputs.data(), 4,
                         reps.data(), 8);
      }
    });
  }
  for (auto& worker : workers) worker.join();

  for (int t = 0; t < kThreads; ++t) {
    EXPECT_GT(per_thread_hits[static_cast<size_t>(t)], 0);
    EXPECT_EQ(per_thread_hits[static_cast<size_t>(t)],
              per_thread_expected[static_cast<size_t>(t)])
        << "thread " << t;
  }
  EXPECT_EQ(cache.TotalEntries(), kResident);  // structurally untouched
}

}  // namespace
}  // namespace adr
