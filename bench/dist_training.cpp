/**
 * @file
 * Data-parallel scaling sweep (DESIGN.md section 4.11): functional
 * TreeLSTM training through train::trainDataParallel across replica
 * counts {1,2,4,8} on NVLink and PCIe interconnects, overlapped and
 * barrier all-reduce schedules.
 *
 * Every cell trains the same global batch decomposition (8 fixed
 * microbatches), so losses and final parameters are bitwise identical
 * across the whole sweep -- the bench asserts that and exits 1 on any
 * divergence. What varies is simulated time: compute shrinks with R
 * while the collective grows, and the two interconnects cross over at
 * different replica counts. The summary names the largest replica
 * count that still improves throughput per interconnect (the scaling
 * knee) and how much the overlapped schedule buys over the barrier.
 *
 *   ./dist_training --smoke          # CI: 2 cells, 1 step
 */
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "common/logging.hpp"
#include "models/tree_lstm.hpp"
#include "train/data_parallel.hpp"

namespace {

/** One bench replica: fixed seeds so every replica of every cell
 *  starts from identical corpus and parameter bits. */
class BenchReplica : public train::ReplicaContext
{
  public:
    BenchReplica() : device_(gpusim::DeviceSpec{}, 128u << 20)
    {
        // A wide embedding makes the gradient payload big enough
        // (~21 MB) that the PCIe collective competes with compute at
        // high replica counts, while the trees stay small -- that
        // tension is what the sweep is probing.
        vocab_ = std::make_unique<data::Vocab>(20000, 400000);
        bank_ = std::make_unique<data::Treebank>(*vocab_, 16,
                                                 data_rng_, 4.0, 3,
                                                 6);
        bench_ = std::make_unique<models::TreeLstmModel>(
            *bank_, *vocab_, 256, 128, device_, param_rng_);
    }

    gpusim::Device& device() override { return device_; }
    models::BenchmarkModel& bench() override { return *bench_; }

  private:
    gpusim::Device device_;
    common::Rng data_rng_{311};
    common::Rng param_rng_{312};
    std::unique_ptr<data::Vocab> vocab_;
    std::unique_ptr<data::Treebank> bank_;
    std::unique_ptr<models::TreeLstmModel> bench_;
};

struct Cell
{
    std::size_t replicas;
    gpusim::LinkType link;
    bool overlap;
    train::DataParallelReport report;
    double inputs_per_sec = 0.0;
};

bool
bitwiseEqual(const std::vector<float>& a, const std::vector<float>& b)
{
    return a.size() == b.size() &&
           std::memcmp(a.data(), b.data(),
                       a.size() * sizeof(float)) == 0;
}

} // namespace

int
main(int argc, char** argv)
{
    const benchx::BenchCli cli =
        benchx::parseBenchArgs(argc, argv, {"--smoke"});
    benchx::Report report(cli, "dist_training");
    common::setVerbose(false);

    const bool smoke = cli.has("--smoke");
    const std::vector<std::size_t> replica_counts =
        smoke ? std::vector<std::size_t>{1, 2}
              : std::vector<std::size_t>{1, 2, 4, 8};
    const std::vector<gpusim::LinkType> links =
        smoke ? std::vector<gpusim::LinkType>{gpusim::LinkType::PCIe}
              : std::vector<gpusim::LinkType>{
                    gpusim::LinkType::NVLink, gpusim::LinkType::PCIe};
    const std::size_t steps = smoke ? 1 : 4;

    std::vector<Cell> cells;
    std::vector<float> ref_losses, ref_params;
    bool ok = true;

    for (const gpusim::LinkType link : links)
    {
        // Speedups are against this link's R=1 overlap cell, the
        // first one the loop runs.
        double base_total_us = 0.0;
        for (const std::size_t r : replica_counts)
        {
            for (const bool overlap : {true, false})
            {
                train::DataParallelOptions opts;
                opts.replicas = r;
                opts.microbatches = 8;
                opts.microbatch_size = 2;
                opts.steps = steps;
                opts.topology = gpusim::Topology::uniform(8, link);
                opts.overlap = overlap;
                opts.vpps.rpw = 2;
                opts.vpps.host_threads = cli.threads;

                auto run = train::trainDataParallel(
                    [](std::size_t) {
                        return std::make_unique<BenchReplica>();
                    },
                    opts);
                if (!run.ok() || !run.value().completed)
                {
                    common::warn("dist_training: cell failed: ",
                                 run.ok()
                                     ? run.value().status.toString()
                                     : run.status().toString());
                    ok = false;
                    continue;
                }

                Cell cell;
                cell.replicas = r;
                cell.link = link;
                cell.overlap = overlap;
                cell.report = std::move(run).value();
                const double inputs = static_cast<double>(
                    steps * opts.microbatches *
                    opts.microbatch_size);
                cell.inputs_per_sec =
                    inputs / (cell.report.total_us * 1e-6);

                // The whole sweep must agree bitwise -- the point of
                // the fixed decomposition.
                if (ref_losses.empty())
                {
                    ref_losses = cell.report.losses;
                    ref_params = cell.report.final_params;
                }
                else if (!bitwiseEqual(ref_losses,
                                       cell.report.losses) ||
                         !bitwiseEqual(ref_params,
                                       cell.report.final_params))
                {
                    common::warn(
                        "dist_training: bitwise divergence at ",
                        gpusim::linkTypeName(link), " R=", r,
                        overlap ? " overlap" : " barrier");
                    ok = false;
                }

                const train::DataParallelReport& rep = cell.report;
                if (r == 1 && overlap)
                    base_total_us = rep.total_us;
                const double base =
                    base_total_us > 0.0 ? base_total_us : rep.total_us;
                report.row(
                    std::string("link=") + gpusim::linkTypeName(link) +
                        ",replicas=" + std::to_string(r) +
                        ",schedule=" +
                        (overlap ? "overlap" : "barrier") +
                        ",microbatches=8,microbatch_size=2,steps=" +
                        std::to_string(steps),
                    {{"sim_us", rep.total_us},
                     {"compute_us", rep.compute_us},
                     {"allreduce_us", rep.allreduce_us},
                     {"exposed_comm_us", rep.exposed_comm_us},
                     {"update_us", rep.update_us},
                     {"overlap_total_us", rep.overlap_total_us},
                     {"barrier_total_us", rep.barrier_total_us},
                     {"inputs_per_sec", cell.inputs_per_sec},
                     {"speedup_vs_r1", base / rep.total_us},
                     {"comm_messages",
                      static_cast<double>(rep.comm_messages)},
                     {"comm_bytes_on_wire",
                      static_cast<double>(rep.comm_bytes_on_wire)},
                     {"replicas_identical",
                      rep.replicas_identical ? 1.0 : 0.0}});
                cells.push_back(std::move(cell));
            }
        }
    }

    // Scaling knee per interconnect: the largest R whose overlapped
    // run still beats the next-smaller R. On NVLink the collective is
    // cheap and scaling holds through R=8; on PCIe the exposed
    // all-reduce overtakes the shrinking compute earlier -- that gap
    // is the NVLink-vs-PCIe crossover.
    for (const gpusim::LinkType link : links)
    {
        std::size_t knee = 1;
        double best = 0.0;
        for (const Cell& c : cells)
            if (c.link == link && c.overlap &&
                c.inputs_per_sec > best)
            {
                best = c.inputs_per_sec;
                knee = c.replicas;
            }
        double overlap_gain = 0.0;
        for (const Cell& c : cells)
            if (c.link == link && c.overlap && c.replicas == knee)
                for (const Cell& d : cells)
                    if (d.link == link && !d.overlap &&
                        d.replicas == knee)
                        overlap_gain = d.report.total_us /
                                       c.report.total_us;
        report.row(std::string("link=") + gpusim::linkTypeName(link),
                   {{"best_replicas", static_cast<double>(knee)},
                    {"best_inputs_per_sec", best},
                    {"overlap_gain_at_best", overlap_gain},
                    {"bitwise_identical_sweep", ok ? 1.0 : 0.0}});
    }

    // NVLink-vs-PCIe crossover: the smallest replica count at which
    // the interconnect choice costs more than 10% throughput (0 for
    // none). Below it the collective hides under backward on either
    // fabric; above it PCIe's exposed all-reduce eats the scaling.
    if (links.size() >= 2)
    {
        std::map<std::size_t, double> nv, pc;
        for (const Cell& c : cells)
            if (c.overlap)
                (c.link == gpusim::LinkType::NVLink
                     ? nv
                     : pc)[c.replicas] = c.inputs_per_sec;
        std::size_t crossover = 0;
        for (const std::size_t r : replica_counts)
            if (nv.count(r) && pc.count(r) && pc[r] < 0.9 * nv[r])
            {
                crossover = r;
                break;
            }
        report.row("threshold=0.9",
                   {{"crossover_replicas",
                     static_cast<double>(crossover)}});
    }

    return ok ? 0 : 1;
}
