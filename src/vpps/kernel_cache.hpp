/**
 * @file
 * On-disk cache for specialized kernels (the extension Section IV-F
 * sketches: "having a database for compiled kernels in a non-volatile
 * memory such as disk or SSD is imaginable, although ... only
 * intermediate PTX can be stored").
 *
 * A cache entry stores the generated source (the PTX stand-in) plus
 * the configuration needed to rebuild the distribution plan
 * deterministically. Because only "PTX" can be persisted, a cache hit
 * skips program compilation but still pays module load -- exactly the
 * split Table II reports.
 */
#pragma once

#include <optional>
#include <string>

#include "vpps/codegen.hpp"

namespace vpps {

/** Directory-backed cache of specialized kernels. */
class KernelCache
{
  public:
    /** @param directory created on first store if missing. */
    explicit KernelCache(std::string directory);

    /**
     * @return a key identifying (model parameter shapes, rpw, CTA
     * count, gradient strategy, device). Two models with identical
     * weight-matrix shape multisets share kernels -- the same sharing
     * NVRTC instantiation dedup exploits.
     */
    static std::string keyFor(const graph::Model& model,
                              const gpusim::DeviceSpec& spec, int rpw,
                              int ctas_per_sm, bool grads_cached);

    /**
     * Try to load a kernel. On a hit the distribution plan is
     * rebuilt deterministically for @p model and the returned
     * kernel's prog_compile_s is zero (already paid); module_load_s
     * remains (PTX -> SASS must rerun). An entry is a sealed image
     * (common/wire.hpp): a torn or corrupted one is a miss, with a
     * warning.
     */
    std::optional<CompiledKernel>
    load(const graph::Model& model, const gpusim::DeviceSpec& spec,
         const VppsOptions& opts, int rpw) const;

    /** Persist a freshly specialized kernel. */
    void store(const CompiledKernel& kernel,
               const graph::Model& model,
               const gpusim::DeviceSpec& spec) const;

    const std::string& directory() const { return directory_; }

  private:
    std::string pathFor(const std::string& key) const;

    std::string directory_;
};

} // namespace vpps
