#include "vpps/kernel_cache.hpp"

#include <filesystem>
#include <fstream>
#include <iterator>
#include <sstream>

#include "common/logging.hpp"
#include "common/wire.hpp"

namespace vpps {

namespace {

/** An entry is a sealed image: magic "VPKC", version, the two counts
 *  (u64), module_load_s (f64 bits), the u64-length-prefixed source. */
constexpr std::uint32_t kMagic = 0x434B5056u;
constexpr std::uint32_t kVersion = 1;

std::uint64_t
hashCombine(std::uint64_t h, std::uint64_t v)
{
    h ^= v + 0x9E3779B97F4A7C15ull + (h << 6) + (h >> 2);
    return h;
}

} // namespace

KernelCache::KernelCache(std::string directory)
    : directory_(std::move(directory))
{
    // An empty directory makes the cache inert (load() misses,
    // store() is a no-op) rather than aborting: a served request must
    // never take the process down over a configuration slip.
    if (directory_.empty())
        common::warn("KernelCache: empty directory; caching disabled");
}

std::string
KernelCache::keyFor(const graph::Model& model,
                    const gpusim::DeviceSpec& spec, int rpw,
                    int ctas_per_sm, bool grads_cached)
{
    std::uint64_t h = 0xC0FFEEull;
    for (graph::ParamId m : model.weightMatrices()) {
        const auto& p = model.param(m);
        h = hashCombine(h, p.shape.rows());
        h = hashCombine(h, p.shape.cols());
    }
    h = hashCombine(h, static_cast<std::uint64_t>(rpw));
    h = hashCombine(h, static_cast<std::uint64_t>(ctas_per_sm));
    h = hashCombine(h, grads_cached ? 1 : 0);
    h = hashCombine(h, static_cast<std::uint64_t>(spec.num_sms));
    h = hashCombine(h, spec.regfile_bytes_per_sm);
    std::ostringstream oss;
    oss << std::hex << h;
    return oss.str();
}

std::string
KernelCache::pathFor(const std::string& key) const
{
    return directory_ + "/" + key + ".vppsk";
}

std::optional<CompiledKernel>
KernelCache::load(const graph::Model& model,
                  const gpusim::DeviceSpec& spec,
                  const VppsOptions& opts, int rpw) const
{
    if (directory_.empty())
        return std::nullopt; // inert cache
    // The plan the handle would build: needed both to form the key
    // and to reconstitute the kernel on a hit.
    auto plan_r = DistributionPlan::tryBuildAuto(model, spec, opts, rpw);
    if (!plan_r.ok())
        return std::nullopt; // no valid plan -> nothing cacheable
    auto plan = std::move(plan_r).value();
    const std::string key = keyFor(model, spec, rpw, plan.ctasPerSm(),
                                   plan.gradientsCached());
    std::ifstream in(pathFor(key), std::ios::binary);
    if (!in)
        return std::nullopt;
    const std::vector<std::uint8_t> bytes(
        (std::istreambuf_iterator<char>(in)),
        std::istreambuf_iterator<char>());

    common::WireReader r(bytes, "kernel cache entry");
    r.openImage(kMagic, kVersion);
    CompiledKernel kernel;
    kernel.num_instantiations =
        static_cast<std::size_t>(r.u64("instantiations"));
    kernel.source_lines = static_cast<std::size_t>(r.u64("lines"));
    // Program compilation is amortized away (prog_compile_s stays
    // zero); module load (PTX -> SASS) must still run (Section IV-F).
    kernel.module_load_s = r.f64("module_load_s");
    const auto source = r.bytes(r.count("source length", 1), "source");
    kernel.source.assign(source.begin(), source.end());
    r.closeImage();
    if (!r.ok()) {
        common::warn("KernelCache: ignoring corrupt entry ", key, ": ",
                     r.takeStatus().toString());
        return std::nullopt;
    }
    if (kernel.source.empty()) {
        common::warn("KernelCache: ignoring empty entry ", key);
        return std::nullopt;
    }
    kernel.plan = std::move(plan);
    return kernel;
}

void
KernelCache::store(const CompiledKernel& kernel,
                   const graph::Model& model,
                   const gpusim::DeviceSpec& spec) const
{
    if (directory_.empty())
        return; // inert cache
    std::error_code ec;
    std::filesystem::create_directories(directory_, ec);
    if (ec) {
        common::warn("KernelCache: cannot create ", directory_, ": ",
                     ec.message());
        return;
    }
    const std::string key =
        keyFor(model, spec, kernel.plan.rpw(),
               kernel.plan.ctasPerSm(), kernel.plan.gradientsCached());
    std::ofstream out(pathFor(key), std::ios::binary | std::ios::trunc);
    if (!out) {
        common::warn("KernelCache: cannot write entry ", key);
        return;
    }
    std::vector<std::uint8_t> image = common::beginImage(
        kMagic, kVersion, 8 + 8 + 8 + 8 + kernel.source.size());
    common::putU64(image, kernel.num_instantiations);
    common::putU64(image, kernel.source_lines);
    common::putF64(image, kernel.module_load_s);
    common::putU64(image, kernel.source.size());
    image.insert(image.end(), kernel.source.begin(), kernel.source.end());
    common::sealImage(image);
    out.write(reinterpret_cast<const char*>(image.data()),
              static_cast<std::streamsize>(image.size()));
}

} // namespace vpps
