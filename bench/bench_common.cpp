#include "bench_common.hpp"

#include <malloc.h>

#include <cctype>
#include <charconv>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <sstream>

#include "common/logging.hpp"
#include "obs/json.hpp"
#include "models/bi_tagger.hpp"
#include "models/bilstm_char_tagger.hpp"
#include "models/rvnn.hpp"
#include "models/td_lstm.hpp"
#include "models/td_rnn.hpp"
#include "models/tree_lstm.hpp"

namespace benchx {

namespace {

constexpr std::size_t kPoolFloats = 704ull << 20; // ~2.8 GB of fp32

std::unique_ptr<models::BenchmarkModel>
makeApp(const std::string& app, Corpora& corpora,
        gpusim::Device& device, common::Rng& prng, std::uint32_t hidden,
        std::uint32_t embed)
{
    auto pick = [](std::uint32_t v, std::uint32_t dflt) {
        return v == 0 ? dflt : v;
    };
    if (app == "Tree-LSTM") {
        return std::make_unique<models::TreeLstmModel>(
            corpora.bank, corpora.vocab, pick(embed, 256),
            pick(hidden, 256), device, prng);
    }
    if (app == "BiLSTM") {
        return std::make_unique<models::BiLstmTagger>(
            corpora.ner, corpora.vocab, pick(embed, 256),
            pick(hidden, 256), 256, device, prng);
    }
    if (app == "BiGRU") {
        return std::make_unique<models::BiGruTagger>(
            corpora.ner, corpora.vocab, pick(embed, 256),
            pick(hidden, 256), 256, device, prng);
    }
    if (app == "BiLSTMwChar") {
        return std::make_unique<models::BiLstmCharTagger>(
            corpora.ner, corpora.vocab, pick(embed, 256),
            pick(hidden, 256), 256, 64, device, prng);
    }
    if (app == "TD-RNN") {
        return std::make_unique<models::TdRnnModel>(
            corpora.bank, corpora.vocab, pick(hidden, 512), device,
            prng);
    }
    if (app == "TD-LSTM") {
        return std::make_unique<models::TdLstmModel>(
            corpora.bank, corpora.vocab, pick(hidden, 256), device,
            prng);
    }
    if (app == "RvNN") {
        return std::make_unique<models::RvnnModel>(
            corpora.bank, corpora.vocab, pick(hidden, 512), device,
            prng);
    }
    common::fatal("bench: unknown application '", app, "'");
}

} // namespace

AppRig::AppRig(const std::string& app, std::uint32_t hidden,
               std::uint32_t embed, bool functional)
{
    common::setVerbose(false);
    // Keep large freed buffers (per-batch scripts) in the heap
    // instead of returning them to the OS: avoids re-faulting pages
    // every batch.
    mallopt(M_MMAP_THRESHOLD, 512 * 1024 * 1024);
    mallopt(M_TRIM_THRESHOLD, 512 * 1024 * 1024);
    device_ = std::make_unique<gpusim::Device>(gpusim::DeviceSpec{},
                                               kPoolFloats);
    device_->setFunctional(functional);
    model_ = makeApp(app, corpora_, *device_, param_rng_, hidden,
                     embed);
}

train::ThroughputResult
AppRig::measureBaseline(const std::string& which,
                        std::size_t num_inputs, std::size_t batch)
{
    std::unique_ptr<exec::Executor> executor;
    const gpusim::HostSpec host;
    if (which == "Naive")
        executor =
            std::make_unique<exec::NaiveExecutor>(*device_, host);
    else if (which == "DyNet-DB")
        executor =
            std::make_unique<exec::DepthBatchExecutor>(*device_, host);
    else if (which == "DyNet-AB")
        executor =
            std::make_unique<exec::AgendaBatchExecutor>(*device_, host);
    else if (which == "TF-Fold")
        executor = std::make_unique<exec::FoldExecutor>(*device_, host);
    else
        common::fatal("bench: unknown baseline '", which, "'");
    device_->resetStats();
    return train::measureExecutor(*executor, *model_, num_inputs,
                                  batch);
}

train::ThroughputResult
AppRig::measureVpps(std::size_t num_inputs, std::size_t batch,
                    vpps::VppsOptions opts)
{
    device_->resetStats();
    vpps::Handle handle(model_->model(), *device_, opts);
    return train::measureVpps(handle, *model_, num_inputs, batch);
}

BenchCli
parseBenchArgs(int argc, char** argv,
               const std::vector<std::string>& own_flags)
{
    BenchCli cli;
    // Accepts both "--flag value" and "--flag=value" for the
    // path-taking flags.
    auto valueOf = [&](const std::string& arg, const char* flag,
                       int& i, std::string& out) {
        const std::string prefix = std::string(flag) + "=";
        if (arg.rfind(prefix, 0) == 0) {
            out = arg.substr(prefix.size());
            return true;
        }
        if (arg == flag && i + 1 < argc) {
            out = argv[++i];
            return true;
        }
        return false;
    };
    // A thread count must be a whole positive decimal: "4x", "abc",
    // "0" and "-1" get the usage message, as an unknown flag does.
    auto threadsOf = [&](const std::string& arg, int& i) {
        if (arg != "--threads" || i + 1 >= argc)
            return false;
        const char* v = argv[i + 1];
        const char* end = v + std::strlen(v);
        int n = 0;
        const auto [stop, ec] = std::from_chars(v, end, n);
        if (ec != std::errc() || stop != end || n <= 0)
            return false;
        cli.threads = n;
        ++i;
        return true;
    };
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (threadsOf(arg, i) ||
            valueOf(arg, "--trace", i, cli.trace_path) ||
            valueOf(arg, "--metrics", i, cli.metrics_path)) {
            // handled by threadsOf / valueOf
        } else if (arg == "--json") {
            cli.json = true;
        } else if (arg == "--functional") {
            cli.functional = true;
        } else if (arg == "--vpps-only") {
            cli.vpps_only = true;
        } else if (std::find(own_flags.begin(), own_flags.end(),
                             arg) != own_flags.end()) {
            cli.given.push_back(arg);
        } else {
            std::cerr << "usage: " << argv[0]
                      << " [--threads N] [--json] [--functional]"
                         " [--vpps-only] [--trace FILE]"
                         " [--metrics FILE]";
            for (const std::string& flag : own_flags)
                std::cerr << " [" << flag << "]";
            std::cerr << "\n";
            std::exit(2);
        }
    }
    return cli;
}

ObsScope::ObsScope(gpusim::Device& device, const BenchCli& cli)
    : device_(device), trace_path_(cli.trace_path),
      metrics_path_(cli.metrics_path)
{
    if (!trace_path_.empty()) {
        // Sized so the stock bench runs keep every event (the full
        // serving_overload sweep emits ~450k): with zero drops the
        // exported trace is byte-identical at any host thread count.
        // Larger runs fall back to flight-recorder truncation and
        // the dropped() warning below.
        tracer_ = std::make_unique<obs::Tracer>(std::size_t{1} << 20);
        device_.installTracer(tracer_.get());
    }
    if (!metrics_path_.empty()) {
        metrics_ = std::make_unique<obs::MetricsRegistry>();
        device_.installMetrics(metrics_.get());
    }
}

ObsScope::~ObsScope()
{
    if (metrics_) {
        device_.publishMetrics(*metrics_);
        if (auto st = metrics_->writeJson(metrics_path_); !st.ok())
            common::warn("bench: ", st.toString());
        device_.installMetrics(nullptr);
    }
    if (tracer_) {
        if (tracer_->dropped() > 0)
            common::warn("bench: trace ring dropped ",
                         tracer_->dropped(),
                         " events (oldest overwritten); the file "
                         "holds the most recent window");
        if (auto st = obs::writeChromeTrace(trace_path_, *tracer_);
            !st.ok())
            common::warn("bench: ", st.toString());
        device_.installTracer(nullptr);
    }
}

Report::Report(const BenchCli& cli, std::string bench)
    : json_(cli.json), bench_(std::move(bench)),
      last_(std::chrono::steady_clock::now())
{
}

Report::~Report() { flushTable(); }

void
Report::row(const std::string& config, const Fields& fields)
{
    const auto now = std::chrono::steady_clock::now();
    const double host_wall_ms =
        std::chrono::duration<double, std::milli>(now - last_).count();
    last_ = now;
    if (json_) {
        std::string line = "{\"bench\":" + obs::jsonQuoted(bench_) +
                           ",\"config\":" + obs::jsonQuoted(config);
        for (const auto& [key, value] : fields) {
            line += ',' + obs::jsonQuoted(key) + ':';
            obs::appendJsonDouble(line, value);
        }
        line += ",\"host_wall_ms\":";
        obs::appendJsonDouble(line, host_wall_ms);
        std::cout << line << "}\n" << std::flush;
        return;
    }
    // Table columns: the config's keys (a bare token is a key with an
    // empty cell), then the field names.
    std::vector<std::string> columns;
    std::vector<std::string> cells;
    std::istringstream pairs(config);
    for (std::string pair; std::getline(pairs, pair, ',');) {
        const std::size_t eq = pair.find('=');
        columns.push_back(pair.substr(0, eq));
        cells.push_back(eq == std::string::npos ? ""
                                                : pair.substr(eq + 1));
    }
    for (const auto& [key, value] : fields) {
        columns.push_back(key);
        cells.emplace_back();
        obs::appendJsonDouble(cells.back(), value);
    }
    if (columns != columns_)
        flushTable();
    if (!table_) {
        table_.emplace(columns);
        columns_ = std::move(columns);
    }
    table_->addRow(std::move(cells));
}

void
Report::flushTable()
{
    if (!table_)
        return;
    std::cout << "\n== " << bench_ << " ==\n"
              << table_->str() << std::flush;
    table_.reset();
    columns_.clear();
}

namespace {

/** "DyNet-DB" -> "dynet_db_inputs_per_sec". */
std::string
rateField(const std::string& system)
{
    std::string key;
    for (const char c : system)
        key += c == '-' ? '_'
                        : static_cast<char>(std::tolower(
                              static_cast<unsigned char>(c)));
    return key + "_inputs_per_sec";
}

} // namespace

void
throughputSweep(Report& report, AppRig& rig, const BenchCli& cli,
                const std::string& prefix, const std::string& suffix,
                const std::vector<std::string>& baselines)
{
    vpps::VppsOptions opts = AppRig::defaultOptions();
    opts.host_threads = cli.threads;
    for (const std::size_t batch : kBatchSizes) {
        const std::size_t n = AppRig::pointInputs(batch);
        const auto vpps = rig.measureVpps(n, batch, opts);
        Fields fields = {{"sim_us", vpps.wall_us},
                         {rateField("VPPS"), vpps.inputs_per_sec}};
        if (!cli.vpps_only) {
            double best = 0.0;
            for (const std::string& which : baselines) {
                const double rate =
                    rig.measureBaseline(which, n, batch).inputs_per_sec;
                fields.emplace_back(rateField(which), rate);
                best = std::max(best, rate);
            }
            fields.emplace_back("vpps_over_best",
                                vpps.inputs_per_sec / best);
        }
        report.row(prefix + "batch=" + std::to_string(batch) + suffix,
                   fields);
    }
}

} // namespace benchx
