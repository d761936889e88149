/**
 * @file
 * Benchmark runner entry point. Runs one workload in this process and
 * prints one JSON object of raw measurements on stdout; run.py turns
 * it into metrics and checks the outputs.
 *
 *   vpps_perfbench --workload train_timing --seed 1 --seconds 20
 *                  [--trace 0|1]
 */
#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>

#include "common/logging.hpp"
#include "spans.hpp"
#include "workloads.hpp"

namespace {

[[noreturn]] void
usage(const char* argv0)
{
    std::cerr << "usage: " << argv0
              << " --workload train_timing|train_functional|serve_fleet"
                 " --seed N --seconds S [--trace 0|1]\n";
    std::exit(2);
}

} // namespace

int
main(int argc, char** argv)
{
    const auto process_start = perfbench::Clock::now();
    perfbench::RunArgs args;
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string flag = argv[i];
        const std::string value = argv[i + 1];
        if (flag == "--workload")
            args.workload = value;
        else if (flag == "--seed")
            args.seed = std::strtoull(value.c_str(), nullptr, 10);
        else if (flag == "--seconds")
            args.seconds = std::atof(value.c_str());
        else if (flag == "--trace")
            args.traced = value == "1";
        else
            usage(argv[0]);
    }
    if (argc % 2 == 0 || args.seconds <= 0.0)
        usage(argv[0]);
    common::setVerbose(false);

    perfbench::Report report;
    report.str("workload", args.workload);
    report.num("seed", double(args.seed));
    report.num("seconds", args.seconds);
    try {
        if (args.workload == "train_timing" ||
            args.workload == "train_functional")
            perfbench::runTrain(args, report);
        else if (args.workload == "serve_fleet")
            perfbench::runServe(args, report);
        else
            usage(argv[0]);
    } catch (const std::exception& e) {
        std::cerr << "vpps_perfbench: " << e.what() << "\n";
        return 1;
    }
    report.num("process_s", perfbench::secondsSince(process_start));
    std::cout << report.json() << "\n";
    return 0;
}
