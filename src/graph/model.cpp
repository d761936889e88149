#include "graph/model.hpp"

#include <algorithm>
#include <cmath>

#include "common/logging.hpp"

namespace graph {

gpusim::MemSpace
Parameter::valueSpace() const
{
    return kind == Kind::WeightMatrix ? gpusim::MemSpace::Weights
                                      : gpusim::MemSpace::Params;
}

gpusim::MemSpace
Parameter::gradSpace() const
{
    return kind == Kind::WeightMatrix ? gpusim::MemSpace::WeightGrads
                                      : gpusim::MemSpace::ParamGrads;
}

ParamId
Model::addWeightMatrix(const std::string& name, std::uint32_t rows,
                       std::uint32_t cols)
{
    if (allocated_)
        common::fatal("Model: cannot add parameters after allocate()");
    Parameter p;
    p.kind = Parameter::Kind::WeightMatrix;
    p.name = name;
    p.shape = tensor::Shape(rows, cols);
    params_.push_back(std::move(p));
    return static_cast<ParamId>(params_.size() - 1);
}

ParamId
Model::addBias(const std::string& name, std::uint32_t len)
{
    if (allocated_)
        common::fatal("Model: cannot add parameters after allocate()");
    Parameter p;
    p.kind = Parameter::Kind::Bias;
    p.name = name;
    p.shape = tensor::Shape(len);
    params_.push_back(std::move(p));
    return static_cast<ParamId>(params_.size() - 1);
}

ParamId
Model::addLookup(const std::string& name, std::uint32_t vocab,
                 std::uint32_t dim)
{
    if (allocated_)
        common::fatal("Model: cannot add parameters after allocate()");
    Parameter p;
    p.kind = Parameter::Kind::Lookup;
    p.name = name;
    p.shape = tensor::Shape(vocab, dim);
    params_.push_back(std::move(p));
    return static_cast<ParamId>(params_.size() - 1);
}

void
Model::allocate(gpusim::Device& device, common::Rng& rng)
{
    if (allocated_)
        common::fatal("Model::allocate called twice");
    auto& mem = device.memory();
    for (auto& p : params_) {
        p.value = mem.allocate(p.shape.size(), p.valueSpace());
        p.grad = mem.allocate(p.shape.size(), p.gradSpace());
        // Glorot-uniform initialization; fan counts depend on use.
        const double fan_in = p.shape.cols();
        const double fan_out = p.shape.rows();
        const float limit = static_cast<float>(
            std::sqrt(6.0 / (fan_in + fan_out)));
        float* v = mem.data(p.value);
        for (std::size_t i = 0; i < p.shape.size(); ++i)
            v[i] = rng.nextFloat(-limit, limit);
    }
    allocated_ = true;
}

Parameter&
Model::param(ParamId id)
{
    if (id >= params_.size())
        common::panic("Model::param: bad id ", id);
    return params_[id];
}

const Parameter&
Model::param(ParamId id) const
{
    if (id >= params_.size())
        common::panic("Model::param: bad id ", id);
    return params_[id];
}

std::vector<ParamId>
Model::weightMatrices() const
{
    std::vector<ParamId> out;
    for (ParamId i = 0; i < params_.size(); ++i)
        if (params_[i].kind == Parameter::Kind::WeightMatrix)
            out.push_back(i);
    return out;
}

double
Model::totalWeightMatrixBytes() const
{
    double total = 0.0;
    for (const auto& p : params_)
        if (p.kind == Parameter::Kind::WeightMatrix)
            total += p.bytes();
    return total;
}

std::size_t
Model::totalScalars() const
{
    std::size_t total = 0;
    for (const auto& p : params_)
        total += p.shape.size();
    return total;
}

std::uint32_t
Model::maxWeightRowLength() const
{
    std::uint32_t row_max = 0;
    for (const auto& p : params_)
        if (p.kind == Parameter::Kind::WeightMatrix)
            row_max = std::max(row_max, p.shape.cols());
    return row_max;
}

namespace {

gpusim::DeviceMemory::Offset
bufferOf(const Parameter& p, ParamBuffer buffer)
{
    return buffer == ParamBuffer::Value ? p.value : p.grad;
}

} // namespace

void
Model::gather(const gpusim::Device& device, ParamBuffer buffer,
              std::vector<float>& out) const
{
    const auto& mem = device.memory();
    out.clear();
    for (const auto& p : params_) {
        const float* v = mem.data(bufferOf(p, buffer));
        out.insert(out.end(), v, v + p.shape.size());
    }
}

void
Model::scatter(gpusim::Device& device, ParamBuffer buffer,
               const std::vector<float>& flat) const
{
    auto& mem = device.memory();
    const float* src = flat.data();
    for (const auto& p : params_) {
        const std::size_t len = p.shape.size();
        std::copy(src, src + len, mem.data(bufferOf(p, buffer)));
        src += len;
    }
}

} // namespace graph
