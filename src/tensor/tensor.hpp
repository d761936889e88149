/**
 * @file
 * Non-owning tensor views into the device memory pool.
 *
 * Matching the paper's memory model (Section III-B1), every tensor is
 * an offset into one large device allocation; VPPS script instructions
 * address tensors by those 4-byte offsets.
 */
#pragma once

#include "gpusim/device_memory.hpp"
#include "tensor/shape.hpp"

namespace tensor {

/**
 * A view of a tensor living in device memory: an offset plus a shape.
 * Row-major storage (DyNet's default, which the paper relies on for
 * coalesced weight loads).
 */
class TensorRef
{
  public:
    TensorRef() = default;

    TensorRef(gpusim::DeviceMemory::Offset offset, Shape shape)
        : offset_(offset), shape_(shape)
    {
    }

    gpusim::DeviceMemory::Offset offset() const { return offset_; }
    const Shape& shape() const { return shape_; }

    /** @return true if this view points at real storage. */
    bool
    valid() const
    {
        return offset_ != gpusim::DeviceMemory::kNullOffset;
    }

    /** @return mutable element pointer within the pool. */
    float*
    data(gpusim::DeviceMemory& mem) const
    {
        return mem.data(offset_);
    }

    /** @return size of the tensor in bytes (fp32). */
    double bytes() const { return 4.0 * static_cast<double>(shape_.size()); }

  private:
    gpusim::DeviceMemory::Offset offset_ =
        gpusim::DeviceMemory::kNullOffset;
    Shape shape_;
};

} // namespace tensor
