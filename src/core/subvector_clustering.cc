#include "core/subvector_clustering.h"

#include <algorithm>
#include <string>
#include <utility>

#include "tensor/simd.h"
#include "util/check.h"
#include "util/trace.h"

namespace adr {

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

ReuseClustering ClusterSubVectors(const BlockLshFamilies& families,
                                  const float* x, int64_t num_rows,
                                  int64_t rows_per_group) {
  ADR_CHECK_GT(num_rows, 0);
  ADR_CHECK_GT(rows_per_group, 0);
  ADR_CHECK_EQ(num_rows % rows_per_group, 0)
      << "rows_per_group must divide num_rows";
  const int64_t k = families.k();

  ReuseClustering result;
  result.num_rows = num_rows;
  result.num_cols = k;
  result.blocks.resize(static_cast<size_t>(families.num_blocks()));

  std::vector<LshSignature> sigs;
  for (int64_t b = 0; b < families.num_blocks(); ++b) {
    SubMatrixClustering& block = result.blocks[static_cast<size_t>(b)];
    block.col_offset = families.block_offset(b);
    block.length = families.block_length(b);
    const LshFamily& family = families.family(b);

    Clustering& merged = block.clustering;
    merged.assignment.resize(static_cast<size_t>(num_rows));
    for (int64_t group_start = 0; group_start < num_rows;
         group_start += rows_per_group) {
      sigs.resize(static_cast<size_t>(rows_per_group));
      family.HashRowsInto(x + group_start * k + block.col_offset,
                          rows_per_group, k, sigs.data());
      std::vector<LshSignature> group_cluster_sigs;
      const Clustering group =
          ClusterBySignature(sigs, &group_cluster_sigs);
      const int32_t id_offset =
          static_cast<int32_t>(merged.cluster_sizes.size());
      for (int64_t i = 0; i < rows_per_group; ++i) {
        merged.assignment[static_cast<size_t>(group_start + i)] =
            id_offset + group.assignment[static_cast<size_t>(i)];
      }
      merged.cluster_sizes.insert(merged.cluster_sizes.end(),
                                  group.cluster_sizes.begin(),
                                  group.cluster_sizes.end());
      block.signatures.insert(block.signatures.end(),
                              group_cluster_sigs.begin(),
                              group_cluster_sigs.end());
    }

    block.centroids = ComputeCentroids(x + block.col_offset, num_rows,
                                       block.length, k, merged);
    block.reused_from_cache.assign(
        static_cast<size_t>(merged.num_clusters()), false);
  }
  return result;
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
  table_mask_ = capacity - 1;
  blocks_.resize(static_cast<size_t>(families->num_blocks()));
  for (BlockState& bs : blocks_) {
    if (bs.slot_id.size() == capacity) {
      ResetGroup(&bs);  // leftovers of the previous cycle's last group
    } else {
      bs.slot_id.assign(capacity, -1);
      bs.used_slots.clear();
    }
    bs.centroids.clear();
    bs.sizes.clear();
    bs.sigs.clear();
    bs.assignment.resize(static_cast<size_t>(num_rows));
  }
}

void StreamingSubVectorClusterer::ResetGroup(BlockState* bs) {
  for (const int32_t slot : bs->used_slots) {
    bs->slot_id[static_cast<size_t>(slot)] = -1;
  }
  bs->used_slots.clear();
}

void StreamingSubVectorClusterer::ConsumeTile(const float* tile,
                                              int64_t row_begin,
                                              int64_t tile_rows) {
  ADR_CHECK_EQ(row_begin, next_row_) << "tiles must arrive in row order";
  ADR_CHECK_GT(tile_rows, 0);
  ADR_CHECK_LE(row_begin + tile_rows, num_rows_);
  const int64_t k = families_->k();
  const int64_t num_blocks = families_->num_blocks();
  const LshSignatureHash sig_hasher;

  // Every block's columns are hashed in place at stride k, through the
  // same kernel call ClusterSubVectors makes on the full matrix.
  {
    ADR_TRACE_SPAN("lsh_hash");
    for (int64_t b = 0; b < num_blocks; ++b) {
      BlockState& bs = blocks_[static_cast<size_t>(b)];
      bs.tile_sigs.resize(static_cast<size_t>(tile_rows));
      families_->family(b).HashRowsInto(tile + families_->block_offset(b),
                                        tile_rows, k, bs.tile_sigs.data());
    }
  }

  // Serial per-row pass in ascending global row order: id assignment
  // replays ClusterBySignature's first-seen order (with the per-group
  // reset), and the centroid sums accumulate in ComputeCentroids' row
  // order with the same elementwise adds, so both are bit-identical to
  // the materialized path.
  ADR_TRACE_SPAN("cluster_pass");
  for (int64_t b = 0; b < num_blocks; ++b) {
    BlockState& bs = blocks_[static_cast<size_t>(b)];
    const int64_t offset = families_->block_offset(b);
    const int64_t length = families_->block_length(b);
    for (int64_t i = 0; i < tile_rows; ++i) {
      const int64_t row = row_begin + i;
      if (row % rows_per_group_ == 0) ResetGroup(&bs);
      const LshSignature& sig = bs.tile_sigs[static_cast<size_t>(i)];
      size_t slot = sig_hasher(sig) & table_mask_;
      int32_t id;
      while ((id = bs.slot_id[slot]) >= 0 &&
             !(bs.sigs[static_cast<size_t>(id)] == sig)) {
        slot = (slot + 1) & table_mask_;
      }
      if (id < 0) {
        id = static_cast<int32_t>(bs.sizes.size());
        bs.slot_id[slot] = id;
        bs.used_slots.push_back(static_cast<int32_t>(slot));
        bs.sizes.push_back(0);
        bs.sigs.push_back(sig);
        bs.centroids.resize(bs.centroids.size() +
                                static_cast<size_t>(length),
                            0.0f);
      }
      bs.assignment[static_cast<size_t>(row)] = id;
      ++bs.sizes[static_cast<size_t>(id)];
      const float* src = tile + i * k + offset;
      float* sum = bs.centroids.data() + id * length;
      for (int64_t j = 0; j < length; ++j) sum[j] += src[j];
    }
  }
  next_row_ += tile_rows;
}

ReuseClustering StreamingSubVectorClusterer::Finish() {
  ADR_CHECK_EQ(next_row_, num_rows_) << "tiles did not cover all rows";
  const simd::Kernels& kernels = simd::Active();
  ReuseClustering result;
  result.num_rows = num_rows_;
  result.num_cols = families_->k();
  result.blocks.resize(blocks_.size());
  for (size_t b = 0; b < blocks_.size(); ++b) {
    BlockState& bs = blocks_[b];
    SubMatrixClustering& out = result.blocks[b];
    out.col_offset = families_->block_offset(static_cast<int64_t>(b));
    out.length = families_->block_length(static_cast<int64_t>(b));
    const int64_t num_clusters = static_cast<int64_t>(bs.sizes.size());
    float* c = bs.centroids.data();
    for (int64_t cl = 0; cl < num_clusters; ++cl) {
      const int64_t size = bs.sizes[static_cast<size_t>(cl)];
      ADR_CHECK_GT(size, 0) << "empty cluster " << cl;
      kernels.scale(1.0f / static_cast<float>(size), c + cl * out.length,
                    out.length);
    }
    out.centroids =
        Tensor(Shape({num_clusters, out.length}), std::move(bs.centroids));
    bs.centroids = std::vector<float>();
    out.clustering.cluster_sizes = std::move(bs.sizes);
    out.clustering.assignment = std::move(bs.assignment);
    out.signatures = std::move(bs.sigs);
    out.reused_from_cache = std::move(bs.reused_pool);
    out.reused_from_cache.assign(static_cast<size_t>(num_clusters), false);
  }
  return result;
}

void StreamingSubVectorClusterer::Recycle(ReuseClustering&& old) {
  if (blocks_.size() < old.blocks.size()) blocks_.resize(old.blocks.size());
  for (size_t b = 0; b < old.blocks.size(); ++b) {
    BlockState& bs = blocks_[b];
    SubMatrixClustering& ob = old.blocks[b];
    bs.centroids = std::move(ob.centroids).TakeData();
    bs.sizes = std::move(ob.clustering.cluster_sizes);
    bs.sigs = std::move(ob.signatures);
    bs.assignment = std::move(ob.clustering.assignment);
    bs.reused_pool = std::move(ob.reused_from_cache);
  }
}

}  // namespace adr
