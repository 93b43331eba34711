// Sign-random-projection LSH for angular distance (paper Section III-B).
//
// H Gaussian hyperplanes map each row vector to an H-bit signature
// (Eq. 4); a sign is invariant under positive scaling, so rows need no
// normalization. Rows sharing a signature form a cluster. The signature
// doubles as the cross-batch cluster ID used by cluster reuse (Algorithm 1).

#ifndef ADR_CLUSTERING_LSH_H_
#define ADR_CLUSTERING_LSH_H_

#include <array>
#include <cstdint>
#include <functional>
#include <unordered_map>
#include <vector>

#include "clustering/clustering.h"
#include "tensor/simd.h"
#include "tensor/tensor.h"
#include "util/rng.h"
#include "util/status.h"

namespace adr {

/// \brief Maximum number of hash functions supported (two 64-bit words).
inline constexpr int kMaxLshHashes = 128;

/// \brief An H-bit LSH signature; hashable, usable as a cross-batch
/// cluster ID.
struct LshSignature {
  std::array<uint64_t, simd::kSignatureWords> words = {0, 0};

  bool operator==(const LshSignature& other) const {
    return words == other.words;
  }
  void SetBit(int i) { words[i >> 6] |= uint64_t{1} << (i & 63); }
};

/// \brief Well-mixed 64-bit key of a packed signature — the shared hash
/// of the unordered-map functor below and the cluster-reuse cache's
/// open-addressing tables (whose slot index is the key masked to a
/// power-of-two capacity, so every bit must carry entropy).
inline uint64_t SignatureKey(const LshSignature& s) {
  // splitmix-style mix of the two words.
  uint64_t h = s.words[0] * 0x9e3779b97f4a7c15ULL;
  h ^= h >> 29;
  h += s.words[1] * 0xbf58476d1ce4e5b9ULL;
  h ^= h >> 32;
  return h;
}

struct LshSignatureHash {
  size_t operator()(const LshSignature& s) const {
    return static_cast<size_t>(SignatureKey(s));
  }
};

/// \brief A fixed family of H Gaussian hyperplanes over dimension L.
///
/// The family is sampled once from a seed and then immutable, so the same
/// signatures are comparable across batches (required by cluster reuse).
class LshFamily {
 public:
  /// \brief Samples `num_hashes` hyperplanes of dimension `dim`.
  ///
  /// Returns InvalidArgument if num_hashes is outside [1, kMaxLshHashes]
  /// or dim <= 0.
  static Status Create(int64_t dim, int num_hashes, uint64_t seed,
                       LshFamily* out);

  int64_t dim() const { return dim_; }
  int num_hashes() const { return num_hashes_; }

  /// \brief Signature of one row vector (`row` has `dim()` elements).
  ///
  /// The row is interpreted under the angular metric: only the signs of the
  /// projections matter, so no explicit normalization is needed here.
  /// Computed by the same sign-projection kernel as HashRows, so per-row
  /// and batched signatures are bit-identical for any fixed SIMD backend.
  LshSignature Hash(const float* row) const;

  /// \brief Signatures for `num_rows` rows with the given stride.
  void HashRows(const float* data, int64_t num_rows, int64_t row_stride,
                std::vector<LshSignature>* out) const;

  /// \brief HashRows into a caller-owned array of `num_rows` signatures —
  /// the allocation-free form the clustering paths use. Rows are read in
  /// place at any stride >= dim(); nothing is copied or buffered.
  void HashRowsInto(const float* data, int64_t num_rows, int64_t row_stride,
                    LshSignature* out) const;

  /// \brief Hash count rounded up to a multiple of simd::kMaxWidth: the
  /// row length of panel().
  int64_t padded_hashes() const { return padded_hashes_; }

  /// \brief Dimension-major hyperplanes, panel()[j * padded_hashes() + h],
  /// with zero planes for h >= num_hashes(): the operand of the
  /// sign-projection kernel. Exposed so the golden-kernel harness can
  /// recompute projections at higher precision.
  const std::vector<float>& panel() const { return panel_; }

 private:
  int64_t dim_ = 0;
  int num_hashes_ = 0;
  int64_t padded_hashes_ = 0;
  std::vector<float> panel_;
};

/// \brief Groups rows by LSH signature into a Clustering.
///
/// `signatures_out` (optional) receives the signature of each *cluster*
/// (indexed by cluster id), which cluster reuse uses as the cache key.
Clustering ClusterBySignature(const std::vector<LshSignature>& row_signatures,
                              std::vector<LshSignature>* signatures_out);

}  // namespace adr

#endif  // ADR_CLUSTERING_LSH_H_
