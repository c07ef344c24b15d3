// Shared helpers for the figure-reproduction benches.
#pragma once

#include "telemetry/telemetry.hpp"
#include "util/csv.hpp"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <iostream>
#include <string>
#include <vector>

namespace inframe::bench {

// Scale of an experiment run, selectable from the command line:
//   --smoke : CI bitrot check — shortest run that still exercises the
//             whole pipeline (registered as a ctest with the `bench`
//             label)
//   --quick : fastest sanity pass a human would read numbers from
//   (none)  : default, balances fidelity and runtime
//   --full  : longest runs (closest statistics)
enum class Run_scale { smoke, quick, normal, full };

inline double scale_duration(Run_scale scale, double quick, double normal, double full)
{
    switch (scale) {
    // A smoke run shrinks the quick duration but never below ~3 data
    // frames (0.3 s at the default 120 Hz / tau 12), so every stage of
    // the pipeline still runs end to end.
    case Run_scale::smoke: return std::min(quick, 0.3);
    case Run_scale::quick: return quick;
    case Run_scale::normal: return normal;
    case Run_scale::full: return full;
    }
    return normal;
}

// Full command line of a scale-driven bench:
//   --smoke|--quick|--full   run scale (see Run_scale)
//   --csv <dir>              also write every table as <dir>/<slug>.csv
//   --trace <dir>            telemetry export (trace.json, frames.jsonl,
//                            metrics.json) for the whole bench run
struct Args {
    Run_scale scale = Run_scale::normal;
    std::string csv_dir;
    telemetry::Config telemetry;
};

// The shared flags above, listed once: parse_args reads them, and
// bench_micro_kernels strips them (with their values) before
// google-benchmark, which aborts on flags it does not know, sees argv.
struct Flag {
    const char* name;
    bool takes_value; // the next argument is the flag's value
    void (*apply)(Args& args, const char* value);
};

inline constexpr Flag shared_flags[] = {
    {"--smoke", false, [](Args& args, const char*) { args.scale = Run_scale::smoke; }},
    {"--quick", false, [](Args& args, const char*) { args.scale = Run_scale::quick; }},
    {"--full", false, [](Args& args, const char*) { args.scale = Run_scale::full; }},
    {"--csv", true, [](Args& args, const char* dir) { args.csv_dir = dir; }},
    // Read by telemetry::config_from_args, which also vets INFRAME_SIMD.
    {"--trace", true, nullptr},
};

inline const Flag* find_shared_flag(const char* arg)
{
    for (const Flag& flag : shared_flags) {
        if (std::strcmp(arg, flag.name) == 0) return &flag;
    }
    return nullptr;
}

inline Args parse_args(int argc, char** argv)
{
    Args args;
    args.telemetry = telemetry::config_from_args(argc, argv);
    for (int i = 1; i < argc; ++i) {
        const Flag* flag = find_shared_flag(argv[i]);
        if (flag == nullptr) continue;
        const char* value = nullptr;
        if (flag->takes_value) {
            if (i + 1 == argc) break;
            value = argv[++i];
        }
        if (flag->apply != nullptr) flag->apply(args, value);
    }
    return args;
}

// argv without the shared flags and their values, null-terminated.
inline std::vector<char*> without_shared_flags(int argc, char** argv)
{
    std::vector<char*> rest;
    for (int i = 0; i < argc; ++i) {
        const Flag* flag = find_shared_flag(argv[i]);
        if (flag == nullptr) {
            rest.push_back(argv[i]);
        }
        else if (flag->takes_value) {
            ++i;
        }
    }
    rest.push_back(nullptr);
    return rest;
}

inline void print_header(const char* figure, const char* paper_statement)
{
    std::printf("================================================================\n");
    std::printf("%s\n", figure);
    std::printf("paper: %s\n", paper_statement);
    std::printf("================================================================\n\n");
}

inline void print_table(const util::Table& table)
{
    table.print(std::cout);
    std::cout << "\n";
}

// Prints the table and, under --csv, also writes it as <csv_dir>/<slug>.csv
// (consistent column names: whatever the stdout table shows is what the
// CSV carries). Every bench table goes through here so each bench_* run
// leaves a machine-readable artifact next to its stdout output.
inline void emit_table(const Args& args, const char* slug, const util::Table& table)
{
    print_table(table);
    if (args.csv_dir.empty()) return;
    std::filesystem::create_directories(args.csv_dir);
    const auto path = (std::filesystem::path(args.csv_dir) / (std::string(slug) + ".csv")).string();
    table.write_csv_file(path);
    std::printf("[csv] %s\n\n", path.c_str());
}

} // namespace inframe::bench
