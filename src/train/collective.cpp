#include "train/collective.hpp"

#include "common/logging.hpp"

namespace train {

float
reduceScalars(const std::vector<float>& leaves)
{
    if (leaves.empty()) return 0.0f;
    std::vector<float> level = leaves;
    while (level.size() > 1)
    {
        std::vector<float> next;
        next.reserve((level.size() + 1) / 2);
        std::size_t i = 0;
        for (; i + 1 < level.size(); i += 2)
            next.push_back(level[i] + level[i + 1]);
        if (i < level.size()) next.push_back(level[i]);
        level = std::move(next);
    }
    return level[0];
}

std::vector<float>
reduceVectors(const std::vector<std::vector<float>>& leaves)
{
    if (leaves.empty()) return {};
    const std::size_t len = leaves[0].size();
    for (const auto& leaf : leaves)
        if (leaf.size() != len)
            common::panic("train::reduceVectors: ragged leaves (",
                          leaf.size(), " vs ", len, ")");

    std::vector<std::vector<float>> level = leaves;
    while (level.size() > 1)
    {
        std::vector<std::vector<float>> next;
        next.reserve((level.size() + 1) / 2);
        std::size_t i = 0;
        for (; i + 1 < level.size(); i += 2)
        {
            std::vector<float> sum = std::move(level[i]);
            const std::vector<float>& rhs = level[i + 1];
            for (std::size_t k = 0; k < len; ++k) sum[k] += rhs[k];
            next.push_back(std::move(sum));
        }
        if (i < level.size()) next.push_back(std::move(level[i]));
        level = std::move(next);
    }
    return std::move(level[0]);
}

} // namespace train
