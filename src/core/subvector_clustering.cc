#include "core/subvector_clustering.h"

#include <algorithm>
#include <cstring>
#include <string>
#include <utility>

#include "tensor/simd.h"
#include "util/check.h"

namespace adr {

namespace {

// Bytes of one block chunk; see StreamingSubVectorClusterer::ChunkRows.
constexpr int64_t kChunkBytes = 16 * 1024;

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
  stride_ = ChunkStride(families->block_length(0));
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
    bs.next_row = 0;
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

template <bool kIdentityKeys>
void StreamingSubVectorClusterer::AssignIds(BlockState* bs,
                                            SubMatrixClustering* out,
                                            int64_t row_begin,
                                            int64_t num_rows) {
  std::vector<int64_t>& sizes = out->clustering.cluster_sizes;
  std::vector<LshSignature>& sigs = out->signatures;
  const LshSignature* chunk_sigs = bs->chunk_sigs.data();
  int32_t* slot_id = bs->slot_id.data();
  int32_t* ids = out->clustering.assignment.data() + row_begin;
  // Id assignment in ascending global row order replays
  // ClusterBySignature's first-seen order. The table empties at every
  // group boundary, so rows run in segments between boundaries.
  int64_t i = 0;
  while (i < num_rows) {
    const int64_t in_group = (row_begin + i) % rows_per_group_;
    if (in_group == 0) ResetGroup(bs);
    const int64_t segment_end =
        std::min(num_rows, i + rows_per_group_ - in_group);
    for (; i < segment_end; ++i) {
      const LshSignature& sig = chunk_sigs[i];
      size_t slot;
      int32_t id;
      if constexpr (kIdentityKeys) {
        // Every signature owns the slot it names, so a filled slot is
        // always this signature's.
        slot = static_cast<size_t>(sig.words[0]);
        id = slot_id[slot];
      } else {
        slot = static_cast<size_t>(SignatureKey(sig)) & table_mask_;
        while ((id = slot_id[slot]) >= 0 &&
               !(sigs[static_cast<size_t>(id)] == sig)) {
          slot = (slot + 1) & table_mask_;
        }
      }
      if (id < 0) {
        id = static_cast<int32_t>(sizes.size());
        slot_id[slot] = id;
        bs->used_slots.push_back(static_cast<int32_t>(slot));
        sizes.push_back(0);
        sigs.push_back(sig);
      }
      ids[i] = id;
      ++sizes[static_cast<size_t>(id)];
    }
  }
}

void StreamingSubVectorClusterer::ConsumeBlock(int64_t block,
                                               const float* chunk,
                                               int64_t row_stride,
                                               int64_t row_begin,
                                               int64_t num_rows) {
  ADR_CHECK(block >= 0 && block < families_->num_blocks());
  BlockState& bs = blocks_[static_cast<size_t>(block)];
  ADR_CHECK_EQ(row_begin, bs.next_row) << "chunks must arrive in row order";
  ADR_CHECK_GT(num_rows, 0);
  ADR_CHECK_LE(row_begin + num_rows, num_rows_);
  ADR_CHECK_GE(row_stride, stride_);
  SubMatrixClustering& out = result_.blocks[static_cast<size_t>(block)];

  // Hash the chunk in place, through the same kernel call the reference
  // makes on the full matrix.
  if (bs.chunk_sigs.size() < static_cast<size_t>(num_rows)) {
    bs.chunk_sigs.resize(static_cast<size_t>(num_rows));
  }
  families_->family(block).HashRowsInto(chunk, num_rows, row_stride,
                                        bs.chunk_sigs.data());
  if (identity_keys_) {
    AssignIds<true>(&bs, &out, row_begin, num_rows);
  } else {
    AssignIds<false>(&bs, &out, row_begin, num_rows);
  }

  // The centroid sums accumulate in ComputeCentroids' row order with the
  // same single-rounding adds, so lanes below L are bit-identical to the
  // materialized reference. Full padded rows keep the kernel unmasked.
  const simd::Kernels& kernels = simd::Active();
  out.centroids.resize(
      out.clustering.cluster_sizes.size() * static_cast<size_t>(stride_),
      0.0f);
  kernels.scatter_add_rows(chunk, row_stride, num_rows,
                           out.clustering.assignment.data() + row_begin,
                           out.centroids.data(), stride_);
  bs.next_row += num_rows;
  if (bs.next_row == num_rows_) FinishBlock(kernels, &out);
}

void StreamingSubVectorClusterer::FinishBlock(const simd::Kernels& kernels,
                                              SubMatrixClustering* out) {
  const std::vector<int64_t>& sizes = out->clustering.cluster_sizes;
  const int64_t num_clusters = out->clustering.num_clusters();
  const int64_t length = out->length;
  float* c = out->centroids.data();
  // In ascending cluster order a compacted row never overwrites a padded
  // row still to be read: (cl + 1) * L <= (cl + 1) * stride.
  for (int64_t cl = 0; cl < num_clusters; ++cl) {
    const int64_t size = sizes[static_cast<size_t>(cl)];
    ADR_CHECK_GT(size, 0) << "empty cluster " << cl;
    float* centroid = c + cl * length;
    std::memmove(centroid, c + cl * stride_,
                 sizeof(float) * static_cast<size_t>(length));
    kernels.scale(1.0f / static_cast<float>(size), centroid, length);
  }
  out->centroids.resize(static_cast<size_t>(num_clusters * length));
}

ReuseClustering& StreamingSubVectorClusterer::Finish() {
  for (const BlockState& bs : blocks_) {
    ADR_CHECK_EQ(bs.next_row, num_rows_) << "chunks did not cover all rows";
  }
  return result_;
}

int64_t StreamingSubVectorClusterer::ChunkStride(int64_t length) {
  return (length + simd::kMaxWidth - 1) / simd::kMaxWidth * simd::kMaxWidth;
}

int64_t StreamingSubVectorClusterer::ChunkRows(int64_t stride) {
  const int64_t rows =
      kChunkBytes / static_cast<int64_t>(sizeof(float)) / stride / 4 * 4;
  return std::max<int64_t>(4, rows);
}

}  // namespace adr
