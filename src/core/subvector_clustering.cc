#include "core/subvector_clustering.h"

#include <algorithm>
#include <string>
#include <utility>

#include "tensor/simd.h"
#include "util/check.h"
#include "util/parallel.h"
#include "util/trace.h"

namespace adr {

namespace {

// Cost of one row's signature-table probe in GrainForCost units: a
// dependent load of a random slot, the compare, the size update and, for
// a new cluster, the inserts.
constexpr int64_t kProbeOps = 64;

}  // namespace

double ReuseClustering::AverageRemainingRatio() const {
  if (blocks.empty() || num_rows == 0) return 0.0;
  double total = 0.0;
  for (const auto& block : blocks) {
    total += block.clustering.remaining_ratio();
  }
  return total / static_cast<double>(blocks.size());
}

int64_t ReuseClustering::TotalClusters() const {
  int64_t total = 0;
  for (const auto& block : blocks) total += block.clustering.num_clusters();
  return total;
}

Result<BlockLshFamilies> BlockLshFamilies::Create(int64_t k,
                                                  int64_t sub_vector_length,
                                                  int num_hashes,
                                                  uint64_t seed) {
  if (k <= 0) return Status::InvalidArgument("K must be > 0");
  const int64_t length = sub_vector_length <= 0 || sub_vector_length > k
                             ? k
                             : sub_vector_length;
  BlockLshFamilies out;
  out.k_ = k;
  for (int64_t offset = 0; offset < k; offset += length) {
    const int64_t block_len = std::min(length, k - offset);
    LshFamily family;
    const uint64_t block_seed =
        seed + 0x9e3779b97f4a7c15ULL * static_cast<uint64_t>(offset + 1);
    ADR_RETURN_NOT_OK(
        LshFamily::Create(block_len, num_hashes, block_seed, &family));
    out.families_.push_back(std::move(family));
    out.offsets_.push_back(offset);
    out.lengths_.push_back(block_len);
  }
  return out;
}

void StreamingSubVectorClusterer::Begin(const BlockLshFamilies* families,
                                        int64_t num_rows,
                                        int64_t rows_per_group) {
  ADR_CHECK(families != nullptr);
  ADR_CHECK_GT(num_rows, 0);
  ADR_CHECK_GT(rows_per_group, 0);
  ADR_CHECK_EQ(num_rows % rows_per_group, 0)
      << "rows_per_group must divide num_rows";
  families_ = families;
  num_rows_ = num_rows;
  rows_per_group_ = rows_per_group;
  next_row_ = 0;
  // A group holds at most min(rows_per_group, 2^H) distinct signatures;
  // twice that, rounded up to a power of two, keeps the load factor at or
  // below 1/2.
  const int num_hashes = families->family(0).num_hashes();
  const int64_t distinct =
      num_hashes >= 62 ? rows_per_group
                       : std::min(rows_per_group, int64_t{1} << num_hashes);
  size_t capacity = 16;
  while (capacity < 2 * static_cast<size_t>(distinct)) capacity <<= 1;
  // When every possible signature has a slot of its own within that
  // capacity, index the table by the signature (its bits at or above H
  // are zero) and shrink it to exactly 2^H slots.
  identity_keys_ =
      num_hashes < 62 && (size_t{1} << num_hashes) <= capacity;
  if (identity_keys_) capacity = size_t{1} << num_hashes;
  table_mask_ = capacity - 1;
  const size_t num_blocks = static_cast<size_t>(families->num_blocks());
  blocks_.resize(num_blocks);
  result_.num_rows = num_rows;
  result_.num_cols = families->k();
  result_.blocks.resize(num_blocks);
  for (size_t b = 0; b < num_blocks; ++b) {
    BlockState& bs = blocks_[b];
    if (bs.slot_id.size() == capacity) {
      ResetGroup(&bs);  // leftovers of the previous cycle's last group
    } else {
      bs.slot_id.assign(capacity, -1);
      bs.used_slots.clear();
    }
    SubMatrixClustering& out = result_.blocks[b];
    out.col_offset = families->block_offset(static_cast<int64_t>(b));
    out.length = families->block_length(static_cast<int64_t>(b));
    out.centroids.clear();
    out.clustering.cluster_sizes.clear();
    out.clustering.assignment.resize(static_cast<size_t>(num_rows));
    out.signatures.clear();
  }
}

void StreamingSubVectorClusterer::ResetGroup(BlockState* bs) {
  for (const int32_t slot : bs->used_slots) {
    bs->slot_id[static_cast<size_t>(slot)] = -1;
  }
  bs->used_slots.clear();
}

void StreamingSubVectorClusterer::ClusterBlockTile(
    const simd::Kernels& kernels, int64_t block, const float* tile,
    int64_t row_begin, int64_t tile_rows) {
  BlockState& bs = blocks_[static_cast<size_t>(block)];
  SubMatrixClustering& out = result_.blocks[static_cast<size_t>(block)];
  std::vector<int64_t>& sizes = out.clustering.cluster_sizes;
  std::vector<LshSignature>& sigs = out.signatures;
  const LshSignature* tile_sigs = bs.tile_sigs.data();
  int32_t* ids = out.clustering.assignment.data() + row_begin;
  // Id assignment in ascending global row order replays
  // ClusterBySignature's first-seen order. The table empties at every
  // group boundary, so rows run in segments between boundaries.
  int64_t i = 0;
  while (i < tile_rows) {
    const int64_t in_group = (row_begin + i) % rows_per_group_;
    if (in_group == 0) ResetGroup(&bs);
    const int64_t segment_end =
        std::min(tile_rows, i + rows_per_group_ - in_group);
    for (; i < segment_end; ++i) {
      const LshSignature& sig = tile_sigs[i];
      // Identity keys give every signature its own slot, so the probe
      // stops at the first one.
      size_t slot = static_cast<size_t>(identity_keys_ ? sig.words[0]
                                                       : SignatureKey(sig)) &
                    table_mask_;
      int32_t id;
      while ((id = bs.slot_id[slot]) >= 0 &&
             !(sigs[static_cast<size_t>(id)] == sig)) {
        slot = (slot + 1) & table_mask_;
      }
      if (id < 0) {
        id = static_cast<int32_t>(sizes.size());
        bs.slot_id[slot] = id;
        bs.used_slots.push_back(static_cast<int32_t>(slot));
        sizes.push_back(0);
        sigs.push_back(sig);
      }
      ids[i] = id;
      ++sizes[static_cast<size_t>(id)];
    }
  }
  // The centroid sums accumulate in ComputeCentroids' row order with the
  // same single-rounding adds, so they are bit-identical to the
  // materialized reference.
  out.centroids.resize(sizes.size() * static_cast<size_t>(out.length), 0.0f);
  kernels.scatter_add_rows(tile + out.col_offset, families_->k(), tile_rows,
                           ids, out.centroids.data(), out.length);
}

void StreamingSubVectorClusterer::ConsumeTile(const float* tile,
                                              int64_t row_begin,
                                              int64_t tile_rows) {
  ADR_CHECK_EQ(row_begin, next_row_) << "tiles must arrive in row order";
  ADR_CHECK_GT(tile_rows, 0);
  ADR_CHECK_LE(row_begin + tile_rows, num_rows_);
  const int64_t k = families_->k();
  const int64_t num_blocks = families_->num_blocks();
  // Blocks are independent, so both phases run as a ParallelFor over
  // blocks. Grains come from per-block cost estimates: the projection's
  // FMAs, and one probe plus one add per row and column.
  const int64_t block_cols = families_->block_length(0);
  const int64_t hash_grain = GrainForCost(
      tile_rows * block_cols * families_->family(0).padded_hashes());
  const int64_t pass_grain = GrainForCost(tile_rows * (block_cols + kProbeOps));

  // Every block's columns are hashed in place at stride k, through the
  // same kernel call the reference makes on the full matrix.
  {
    ADR_TRACE_SPAN("lsh_hash");
    ParallelFor(num_blocks, hash_grain, [&](int64_t begin, int64_t end) {
      for (int64_t b = begin; b < end; ++b) {
        BlockState& bs = blocks_[static_cast<size_t>(b)];
        bs.tile_sigs.resize(static_cast<size_t>(tile_rows));
        families_->family(b).HashRowsInto(tile + families_->block_offset(b),
                                          tile_rows, k, bs.tile_sigs.data());
      }
    });
  }

  ADR_TRACE_SPAN("cluster_pass");
  const simd::Kernels& kernels = simd::Active();
  ParallelFor(num_blocks, pass_grain, [&](int64_t begin, int64_t end) {
    for (int64_t b = begin; b < end; ++b) {
      ClusterBlockTile(kernels, b, tile, row_begin, tile_rows);
    }
  });
  next_row_ += tile_rows;
}

ReuseClustering& StreamingSubVectorClusterer::Finish() {
  ADR_CHECK_EQ(next_row_, num_rows_) << "tiles did not cover all rows";
  const simd::Kernels& kernels = simd::Active();
  for (SubMatrixClustering& out : result_.blocks) {
    const std::vector<int64_t>& sizes = out.clustering.cluster_sizes;
    const int64_t num_clusters = out.clustering.num_clusters();
    float* c = out.centroids.data();
    for (int64_t cl = 0; cl < num_clusters; ++cl) {
      const int64_t size = sizes[static_cast<size_t>(cl)];
      ADR_CHECK_GT(size, 0) << "empty cluster " << cl;
      kernels.scale(1.0f / static_cast<float>(size), c + cl * out.length,
                    out.length);
    }
    out.reused_from_cache.assign(static_cast<size_t>(num_clusters), false);
  }
  return result_;
}

}  // namespace adr
