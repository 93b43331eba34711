#include "clustering/lsh.h"

#include <string>
#include <type_traits>
#include <vector>

#include "util/check.h"
#include "util/parallel.h"

namespace adr {

Status LshFamily::Create(int64_t dim, int num_hashes, uint64_t seed,
                         LshFamily* out) {
  if (dim <= 0) {
    return Status::InvalidArgument("LSH dimension must be > 0, got " +
                                   std::to_string(dim));
  }
  if (num_hashes < 1 || num_hashes > kMaxLshHashes) {
    return Status::InvalidArgument(
        "LSH num_hashes must be in [1, " + std::to_string(kMaxLshHashes) +
        "], got " + std::to_string(num_hashes));
  }
  out->dim_ = dim;
  out->num_hashes_ = num_hashes;
  out->padded_hashes_ =
      (num_hashes + simd::kMaxWidth - 1) / simd::kMaxWidth * simd::kMaxWidth;
  // Sample hyperplane-major (fixed RNG order, so signatures are stable
  // across releases), then transpose into the zero-padded kernel panel.
  std::vector<float> planes(static_cast<size_t>(num_hashes) * dim);
  Rng rng(seed);
  for (auto& v : planes) v = rng.NextGaussian();
  out->panel_.assign(static_cast<size_t>(dim * out->padded_hashes_), 0.0f);
  for (int h = 0; h < num_hashes; ++h) {
    for (int64_t j = 0; j < dim; ++j) {
      out->panel_[static_cast<size_t>(j * out->padded_hashes_ + h)] =
          planes[static_cast<size_t>(h) * dim + j];
    }
  }
  return Status::OK();
}

namespace {

// The kernel writes kSignatureWords packed words per row straight into
// a signature array, so an array of signatures must be exactly its words.
static_assert(std::is_standard_layout_v<LshSignature> &&
                  sizeof(LshSignature) ==
                      simd::kSignatureWords * sizeof(uint64_t),
              "LshSignature must be exactly its packed words");
static_assert(kMaxLshHashes == 64 * simd::kSignatureWords);

uint64_t* SignatureWords(LshSignature* sigs) { return sigs->words.data(); }

}  // namespace

LshSignature LshFamily::Hash(const float* row) const {
  LshSignature sig;
  HashRowsInto(row, 1, dim_, &sig);
  return sig;
}

void LshFamily::HashRows(const float* data, int64_t num_rows,
                         int64_t row_stride,
                         std::vector<LshSignature>* out) const {
  out->resize(static_cast<size_t>(num_rows));
  HashRowsInto(data, num_rows, row_stride, out->data());
}

void LshFamily::HashRowsInto(const float* data, int64_t num_rows,
                             int64_t row_stride, LshSignature* out) const {
  ADR_CHECK_GE(row_stride, dim_);
  const simd::Kernels& kernels = simd::Active();
  // A row's bits do not depend on how rows are chunked, so the split only
  // matters for speed: 4-row-aligned chunks keep every kernel call on its
  // 4-row register tile.
  const int64_t grain =
      (GrainForCost(dim_ * padded_hashes_) + 3) / 4 * 4;
  ParallelFor(num_rows, grain, [&](int64_t begin, int64_t end) {
    kernels.lsh_sign_project(data + begin * row_stride, row_stride,
                             end - begin, panel_.data(), dim_, padded_hashes_,
                             num_hashes_, SignatureWords(out + begin));
  });
}

Clustering ClusterBySignature(const std::vector<LshSignature>& row_signatures,
                              std::vector<LshSignature>* signatures_out) {
  Clustering clustering;
  clustering.assignment.resize(row_signatures.size());
  if (signatures_out != nullptr) signatures_out->clear();

  // Open-addressing (linear probing) table: clustering runs once per
  // column block per batch, so the constant factor matters. Slots hold
  // the cluster id; -1 is empty.
  size_t capacity = 16;
  while (capacity < 2 * row_signatures.size()) capacity <<= 1;
  const size_t mask = capacity - 1;
  std::vector<int32_t> slot_id(capacity, -1);
  std::vector<LshSignature> slot_sig(capacity);
  const LshSignatureHash hasher;

  for (size_t i = 0; i < row_signatures.size(); ++i) {
    const LshSignature& sig = row_signatures[i];
    size_t slot = hasher(sig) & mask;
    while (slot_id[slot] >= 0 && !(slot_sig[slot] == sig)) {
      slot = (slot + 1) & mask;
    }
    int32_t id = slot_id[slot];
    if (id < 0) {
      id = static_cast<int32_t>(clustering.cluster_sizes.size());
      slot_id[slot] = id;
      slot_sig[slot] = sig;
      clustering.cluster_sizes.push_back(0);
      if (signatures_out != nullptr) signatures_out->push_back(sig);
    }
    clustering.assignment[i] = id;
    ++clustering.cluster_sizes[static_cast<size_t>(id)];
  }
  return clustering;
}

}  // namespace adr
