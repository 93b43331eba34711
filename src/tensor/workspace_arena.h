// WorkspaceArena: per-layer scratch memory planned once and reused every
// training step.
//
// The conv hot paths (tiled im2col, LSH projection scratch, the centroid
// gather GEMM, the backward reductions) need several transient buffers per
// batch. Allocating them from the heap every step dominates the allocator
// and pollutes the cache; production training stacks preallocate per-layer
// workspaces instead. The arena gives each layer exactly that: a bump
// allocator whose epoch is one training step.
//
// Protocol:
//   arena.Reset();                  // start of Forward: frees nothing,
//                                   // consolidates capacity (see below)
//   float* a = arena.AllocFloats(n);  // valid until the next Reset()
//   ...more Alloc* calls in Forward and the matching Backward...
//
// Capacity management. Requests beyond the primary slab are served from
// fresh overflow slabs (a hot-path heap allocation, counted by
// alloc_slabs()). The next Reset() consolidates: the primary slab grows to
// the epoch high-water mark and the overflow slabs are freed, so every
// subsequent epoch with the same (batch, config) runs entirely inside the
// primary slab — zero heap allocations in steady state. Consolidations are
// planning actions, tracked separately by consolidations().
//
// Not thread-safe: an arena belongs to one layer and is used from the
// layer's calling thread only. Pointers handed out may be *read/written*
// by pool workers inside a step, but Alloc/Reset must stay on the owner.

#ifndef ADR_TENSOR_WORKSPACE_ARENA_H_
#define ADR_TENSOR_WORKSPACE_ARENA_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

namespace adr {

class WorkspaceArena {
 public:
  WorkspaceArena() = default;
  ~WorkspaceArena();

  WorkspaceArena(const WorkspaceArena&) = delete;
  WorkspaceArena& operator=(const WorkspaceArena&) = delete;

  /// \brief 64-byte-aligned uninitialized buffer of `bytes` bytes, valid
  /// until the next Reset(). bytes == 0 returns a valid unique pointer.
  void* AllocBytes(int64_t bytes);

  /// \brief 64-byte-aligned uninitialized float buffer.
  float* AllocFloats(int64_t count) {
    return static_cast<float*>(
        AllocBytes(count * static_cast<int64_t>(sizeof(float))));
  }

  /// \brief 64-byte-aligned uninitialized int32 buffer.
  int32_t* AllocInt32(int64_t count) {
    return static_cast<int32_t*>(
        AllocBytes(count * static_cast<int64_t>(sizeof(int32_t))));
  }

  /// \brief Starts a new epoch: all outstanding buffers become invalid.
  /// If the previous epoch spilled into overflow slabs, the primary slab
  /// is regrown to the high-water mark and the overflow slabs are freed
  /// (one consolidation), so the new epoch runs allocation-free at the
  /// same shapes.
  void Reset();

  /// \brief Frees everything; capacity drops to zero.
  void Release();

  /// Bytes of backing memory currently reserved (primary + overflow).
  int64_t reserved_bytes() const;
  /// Bytes handed out in the current epoch (aligned sizes).
  int64_t used_bytes() const { return epoch_used_; }
  /// Largest used_bytes() ever observed at this capacity plan.
  int64_t high_water_bytes() const { return high_water_; }
  /// Cumulative hot-path slab allocations (Alloc* calls that had to touch
  /// the heap). Constant across steps == the zero-allocation steady state.
  int64_t alloc_slabs() const { return alloc_slabs_; }
  /// Cumulative Reset()-time capacity consolidations.
  int64_t consolidations() const { return consolidations_; }

 private:
  struct Slab {
    char* data = nullptr;
    int64_t size = 0;
  };

  static Slab NewSlab(int64_t bytes);
  static void FreeSlab(Slab* slab);

  Slab primary_;
  std::vector<Slab> overflow_;
  int64_t primary_offset_ = 0;
  int64_t epoch_used_ = 0;
  int64_t high_water_ = 0;
  int64_t alloc_slabs_ = 0;
  int64_t consolidations_ = 0;
};

/// \brief Allocation front-end that bumps from an arena when one is
/// provided and falls back to owned heap buffers otherwise. Lets one code
/// path serve both the arena-backed layer hot paths and standalone callers
/// (benches, tests) that have no arena.
class ScratchAllocator {
 public:
  explicit ScratchAllocator(WorkspaceArena* arena) : arena_(arena) {}

  float* Floats(int64_t count) {
    return static_cast<float*>(
        Bytes(count * static_cast<int64_t>(sizeof(float))));
  }
  int32_t* Int32(int64_t count) {
    return static_cast<int32_t*>(
        Bytes(count * static_cast<int64_t>(sizeof(int32_t))));
  }
  /// Uninitialized array of `count` trivially copyable T.
  template <typename T>
  T* Array(int64_t count) {
    return static_cast<T*>(Bytes(count * static_cast<int64_t>(sizeof(T))));
  }

 private:
  void* Bytes(int64_t bytes) {
    if (arena_ != nullptr) return arena_->AllocBytes(bytes);
    // Default-initialized (uninitialized contents), matching the arena's
    // contract — callers overwrite or zero-fill what they use.
    owned_.push_back(std::unique_ptr<char[]>(
        new char[static_cast<size_t>(bytes < 1 ? 1 : bytes)]));
    return owned_.back().get();
  }

  WorkspaceArena* arena_;
  // Buffers never move once created, so handed-out pointers stay valid
  // while the allocator lives.
  std::vector<std::unique_ptr<char[]>> owned_;
};

}  // namespace adr

#endif  // ADR_TENSOR_WORKSPACE_ARENA_H_
