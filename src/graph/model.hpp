/**
 * @file
 * Model parameters: weight matrices, biases, and embedding tables.
 *
 * Weight matrices are the "recurring parameters" VPPS caches in the
 * register file; biases and embedding tables stay in DRAM (they are
 * either tiny or far too large to cache), matching the paper's focus
 * on weight-matrix persistency. Model::gather() and Model::scatter()
 * own the one flat layout of every parameter (ParamId order) that
 * checkpoints, rollback snapshots and data-parallel gradients use.
 */
#pragma once

#include <string>
#include <vector>

#include "common/rng.hpp"
#include "gpusim/device.hpp"
#include "gpusim/device_memory.hpp"
#include "graph/node.hpp"
#include "tensor/shape.hpp"

namespace graph {

/** One trainable parameter. */
struct Parameter
{
    enum class Kind : std::uint8_t
    {
        WeightMatrix,   //!< dense matrix used by MatVec; cacheable
        Bias,           //!< vector used via ParamVec nodes
        Lookup          //!< embedding table used via Lookup nodes
    };

    Kind kind = Kind::WeightMatrix;
    std::string name;
    tensor::Shape shape;

    /** Master copy in device DRAM. */
    gpusim::DeviceMemory::Offset value =
        gpusim::DeviceMemory::kNullOffset;

    /** Gradient accumulator in device DRAM. */
    gpusim::DeviceMemory::Offset grad =
        gpusim::DeviceMemory::kNullOffset;

    /** @return DRAM traffic category for the master copy. */
    gpusim::MemSpace valueSpace() const;

    /** @return DRAM traffic category for the gradient. */
    gpusim::MemSpace gradSpace() const;

    /** @return parameter size in bytes (fp32). */
    double bytes() const { return 4.0 * static_cast<double>(shape.size()); }
};

/** Which of a parameter's two device buffers a flat copy moves. */
enum class ParamBuffer : std::uint8_t
{
    Value, //!< the master copy
    Grad   //!< the gradient accumulator
};

/**
 * A collection of parameters plus the trainer hyper-parameters the
 * paper's fb() call queries from the model object (learning rate,
 * weight decay).
 */
class Model
{
  public:
    /** Register a rows x cols weight matrix (the cacheable kind). */
    ParamId addWeightMatrix(const std::string& name, std::uint32_t rows,
                            std::uint32_t cols);

    /** Register a bias vector of the given length. */
    ParamId addBias(const std::string& name, std::uint32_t len);

    /** Register a vocab x dim embedding table. */
    ParamId addLookup(const std::string& name, std::uint32_t vocab,
                      std::uint32_t dim);

    /**
     * Allocate master copies and gradient buffers in device memory and
     * Glorot-initialize the values. Must be called exactly once,
     * before any graph is executed.
     */
    void allocate(gpusim::Device& device, common::Rng& rng);

    /** @return true once allocate() has run. */
    bool allocated() const { return allocated_; }

    Parameter& param(ParamId id);
    const Parameter& param(ParamId id) const;

    std::size_t numParams() const { return params_.size(); }

    /** @return ids of all weight-matrix parameters, in order. */
    std::vector<ParamId> weightMatrices() const;

    /** @return total bytes of weight matrices (the cacheable set). */
    double totalWeightMatrixBytes() const;

    /** @return total scalar parameter count across all kinds. */
    std::size_t totalScalars() const;

    /** @return the longest row length among all weight matrices
     *  (row_max in Eq 1). */
    std::uint32_t maxWeightRowLength() const;

    /**
     * Copy every parameter's @p buffer out of @p device into @p out,
     * concatenated in ParamId order: the one flat layout of
     * checkpoints, rollback snapshots and data-parallel gradients.
     * @p out is cleared and refilled, so a buffer the caller keeps
     * keeps its capacity.
     */
    void gather(const gpusim::Device& device, ParamBuffer buffer,
                std::vector<float>& out) const;

    /** Copy @p flat, laid out as gather() lays it out, back into
     *  every parameter's @p buffer. @p flat must hold at least
     *  totalScalars() floats. */
    void scatter(gpusim::Device& device, ParamBuffer buffer,
                 const std::vector<float>& flat) const;

    /** @name Trainer hyper-parameters (queried by fb(), Section III-D)
     *  @{ */
    float learning_rate = 0.1f;
    float weight_decay = 1e-6f;
    /** @} */

  private:
    std::vector<Parameter> params_;
    bool allocated_ = false;
};

} // namespace graph
