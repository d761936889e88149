/**
 * @file
 * The simulated GPU's global memory pool and DRAM traffic accounting.
 *
 * Mirrors the custom allocator the paper assumes (Section III-B1,
 * footnote 7): training frameworks grab one large contiguous region of
 * device DRAM up front, and all tensors live at offsets inside it.
 * This is what lets VPPS address tensors with 4-byte offsets in its
 * script instructions; we reproduce that addressing exactly.
 *
 * Traffic accounting is tagged by memory space so the benches can
 * reproduce Fig 2 (share of DRAM loads that are weight matrices) and
 * Table I (megabytes of weights loaded).
 */
#pragma once

#include <array>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <optional>

namespace gpusim {

/** Category of data living in (or moving through) device DRAM. */
enum class MemSpace : std::uint8_t
{
    Weights,        //!< recurrent weight matrices (the cached class)
    WeightGrads,    //!< gradients of weight matrices
    Params,         //!< other parameters: biases, embedding tables
    ParamGrads,     //!< gradients of other parameters
    Activations,    //!< forward tensors
    ActGrads,       //!< backward tensors
    Script,         //!< VPPS execution scripts
    Workspace,      //!< scratch (gradient GEMM staging etc.)
    NumSpaces
};

/** @return a short human-readable name for a memory space. */
const char* memSpaceName(MemSpace space);

/** Per-space DRAM traffic counters, in bytes / operations. */
class TrafficStats
{
  public:
    static constexpr std::size_t kNumSpaces =
        static_cast<std::size_t>(MemSpace::NumSpaces);

    TrafficStats() { reset(); }

    void
    addLoad(MemSpace space, double bytes)
    {
        load_bytes_[idx(space)] += bytes;
    }

    void
    addStore(MemSpace space, double bytes)
    {
        store_bytes_[idx(space)] += bytes;
    }

    void addAtomics(double ops) { atomic_ops_ += ops; }

    double loadBytes(MemSpace space) const { return load_bytes_[idx(space)]; }
    double storeBytes(MemSpace space) const
    {
        return store_bytes_[idx(space)];
    }
    double atomicOps() const { return atomic_ops_; }

    /** @return total bytes loaded across all spaces. */
    double totalLoadBytes() const;

    /** @return total bytes stored across all spaces. */
    double totalStoreBytes() const;

    /** Zero all counters. */
    void reset();

    /** Accumulate another stats record into this one. */
    void merge(const TrafficStats& other);

  private:
    static std::size_t idx(MemSpace s) { return static_cast<std::size_t>(s); }

    std::array<double, kNumSpaces> load_bytes_;
    std::array<double, kNumSpaces> store_bytes_;
    double atomic_ops_;
};

/**
 * The device global-memory pool: one flat array of floats with bump
 * allocation and a stack-style per-batch reset mark.
 *
 * The array comes from calloc, so the OS hands out zeroed pages on
 * first touch and a pool costs only what its allocations use: a
 * multi-GB pool is not written up front.
 *
 * Offsets are 32-bit element indices, matching the paper's choice of
 * 4-byte tensor addresses inside script instructions (with 4-byte
 * floats this addresses up to 16 GB, the bound the paper states).
 */
class DeviceMemory
{
  public:
    using Offset = std::uint32_t;

    /** Sentinel for "no tensor". */
    static constexpr Offset kNullOffset = 0xFFFFFFFFu;

    /** Create a pool with capacity for the given number of floats. */
    explicit DeviceMemory(std::size_t pool_floats);

    /**
     * Allocate @p n floats, zero-initialized.
     * @return the element offset of the new region.
     */
    Offset allocate(std::size_t n, MemSpace space);

    /**
     * Allocation variant with an error channel: nullopt when the pool
     * cannot satisfy the request, instead of the fatal() that
     * allocate() raises. Callers with a recovery path (the batch
     * retry loop in vpps::Handle) use this form.
     */
    std::optional<Offset> tryAllocate(std::size_t n, MemSpace space);

    /** @return a mark capturing the current allocation frontier. */
    Offset mark() const { return frontier_; }

    /**
     * Roll the allocation frontier back to a previous mark; used to
     * recycle the activation region between batches.
     */
    void resetTo(Offset mark);

    /** @return pointer to the floats at @p off (functional payload). */
    float* data(Offset off);
    const float* data(Offset off) const;

    /**
     * Disable zero-initialization of allocations (timing-only mode:
     * nothing reads the contents, so the fill is wasted work).
     */
    void setZeroFill(bool zero_fill) { zero_fill_ = zero_fill; }

    /** @return number of floats currently allocated. */
    std::size_t used() const { return frontier_; }

    /** @return pool capacity in floats. */
    std::size_t capacity() const { return capacity_; }

  private:
    struct Free
    {
        void operator()(float* p) const { std::free(p); }
    };

    std::size_t capacity_;
    std::unique_ptr<float[], Free> pool_;
    Offset frontier_ = 0;
    bool zero_fill_ = true;
};

} // namespace gpusim
