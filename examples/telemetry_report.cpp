// telemetry_report — fold a --trace directory back into human-readable
// tables.
//
//   telemetry_report <trace-dir>
//
// Reads the three artifacts a telemetry::Session writes (trace.json,
// frames.jsonl, metrics.json) through the same telemetry::json reader the
// smoke tests use and prints: span totals by name (with each name's share
// of wall time: the union of its spans over the trace's extent), counter
// and gauge values, histogram summaries, the per-frame decode story
// (erasure/parity-fill rates, confidence-margin distribution) and the
// impairment event log.

#include "telemetry/json.hpp"
#include "util/csv.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

namespace {

using namespace inframe;
namespace json = telemetry::json;

bool read_file(const std::string& path, std::string& out)
{
    std::ifstream in(path, std::ios::binary);
    if (!in) return false;
    std::ostringstream buffer;
    buffer << in.rdbuf();
    out = buffer.str();
    return true;
}

void report_spans(const std::string& dir)
{
    std::string text;
    if (!read_file(dir + "/trace.json", text)) {
        std::printf("trace.json: not found\n\n");
        return;
    }
    json::Value trace;
    std::string error;
    if (!json::parse(text, trace, &error)) {
        std::printf("trace.json: parse error: %s\n\n", error.c_str());
        return;
    }
    struct Tally {
        std::int64_t count = 0;
        double total_us = 0.0;
        double max_us = 0.0;
        std::vector<std::pair<double, double>> intervals; // [start, end) in us
    };
    std::map<std::string, Tally> by_name;
    double first_ts = 0.0, last_end = 0.0;
    bool any = false;
    for (const json::Value& event : trace["traceEvents"].as_array()) {
        if (event.string_or("ph", "") != "X") continue;
        const double ts = event.number_or("ts", 0.0);
        const double dur = event.number_or("dur", 0.0);
        Tally& tally = by_name[event.string_or("name", "?")];
        ++tally.count;
        tally.total_us += dur;
        tally.max_us = std::max(tally.max_us, dur);
        tally.intervals.emplace_back(ts, ts + dur);
        if (!any || ts < first_ts) first_ts = ts;
        last_end = std::max(last_end, ts + dur);
        any = true;
    }
    const double wall_us = any ? last_end - first_ts : 0.0;
    std::printf("spans (%zu names, wall %.1f ms):\n", by_name.size(), wall_us / 1000.0);
    util::Table table({"span", "count", "total ms", "mean us", "max us", "share of wall"});
    std::vector<std::pair<std::string, Tally>> sorted(by_name.begin(), by_name.end());
    std::sort(sorted.begin(), sorted.end(), [](const auto& a, const auto& b) {
        return a.second.total_us > b.second.total_us;
    });
    for (auto& [name, tally] : sorted) {
        // Share of wall is the time at least one span of this name was
        // open: spans that overlap on several threads count once, so the
        // share never exceeds 1.
        std::sort(tally.intervals.begin(), tally.intervals.end());
        double covered_us = 0.0;
        double covered_to = tally.intervals.front().first;
        for (const auto& [start, end] : tally.intervals) {
            covered_us += std::max(0.0, end - std::max(start, covered_to));
            covered_to = std::max(covered_to, end);
        }
        table.add_row({name, tally.count, tally.total_us / 1000.0,
                       tally.total_us / static_cast<double>(tally.count), tally.max_us,
                       wall_us > 0.0 ? covered_us / wall_us : 0.0});
    }
    table.print(std::cout);
    std::printf("\n");
}

void report_metrics(const std::string& dir)
{
    std::string text;
    if (!read_file(dir + "/metrics.json", text)) {
        std::printf("metrics.json: not found\n\n");
        return;
    }
    json::Value metrics;
    std::string error;
    if (!json::parse(text, metrics, &error)) {
        std::printf("metrics.json: parse error: %s\n\n", error.c_str());
        return;
    }
    {
        util::Table table({"counter", "value"});
        for (const auto& [name, value] : metrics["counters"].as_object())
            table.add_row({name, static_cast<long long>(value.as_number())});
        for (const auto& [name, value] : metrics["gauges"].as_object())
            table.add_row({name + " (gauge)", value.as_number()});
        if (table.row_count() > 0) {
            std::printf("counters and gauges:\n");
            table.print(std::cout);
            std::printf("\n");
        }
    }
    {
        util::Table table({"histogram", "count", "mean", "min", "max"});
        for (const auto& [name, h] : metrics["histograms"].as_object()) {
            const double count = h.number_or("count", 0.0);
            table.add_row({name, static_cast<long long>(count),
                           count > 0.0 ? h.number_or("sum", 0.0) / count : 0.0,
                           h.number_or("min", 0.0), h.number_or("max", 0.0)});
        }
        if (table.row_count() > 0) {
            std::printf("histograms:\n");
            table.print(std::cout);
            std::printf("\n");
        }
    }
}

void report_frames(const std::string& dir)
{
    std::string text;
    if (!read_file(dir + "/frames.jsonl", text)) {
        std::printf("frames.jsonl: not found\n\n");
        return;
    }
    std::vector<json::Value> lines;
    std::string error;
    if (!json::parse_lines(text, lines, &error)) {
        std::printf("frames.jsonl: parse error: %s\n\n", error.c_str());
        return;
    }

    std::int64_t frames = 0;
    double blocks_total = 0.0, blocks_unknown = 0.0, blocks_erased = 0.0, blocks_occluded = 0.0;
    double gobs_total = 0.0, gobs_available = 0.0, gobs_parity_ok = 0.0, gobs_recovered = 0.0;
    std::vector<double> margin_hist;
    std::map<std::string, std::int64_t> events;
    for (const json::Value& line : lines) {
        const std::string type = line.string_or("type", "");
        if (type == "event") {
            ++events[line.string_or("category", "?") + "/" + line.string_or("name", "?")];
            continue;
        }
        if (type != "frame") continue;
        ++frames;
        blocks_total += line.number_or("blocks_total", 0.0);
        blocks_unknown += line.number_or("blocks_unknown", 0.0);
        blocks_erased += line.number_or("blocks_erased", 0.0);
        blocks_occluded += line.number_or("blocks_occluded", 0.0);
        gobs_total += line.number_or("gobs_total", 0.0);
        gobs_available += line.number_or("gobs_available", 0.0);
        gobs_parity_ok += line.number_or("gobs_parity_ok", 0.0);
        gobs_recovered += line.number_or("gobs_recovered", 0.0);
        const json::Value& hist = line["margin_hist"];
        if (hist.is_array()) {
            const auto& buckets = hist.as_array();
            if (margin_hist.size() < buckets.size()) margin_hist.resize(buckets.size(), 0.0);
            for (std::size_t b = 0; b < buckets.size(); ++b)
                margin_hist[b] += buckets[b].as_number();
        }
    }

    std::printf("frames: %lld decoded\n", static_cast<long long>(frames));
    if (frames > 0) {
        util::Table table({"per-frame quantity", "mean", "rate"});
        const double n = static_cast<double>(frames);
        table.add_row({std::string("blocks unknown"), blocks_unknown / n,
                       blocks_total > 0.0 ? blocks_unknown / blocks_total : 0.0});
        table.add_row({std::string("blocks erased"), blocks_erased / n,
                       blocks_total > 0.0 ? blocks_erased / blocks_total : 0.0});
        table.add_row({std::string("blocks occluded"), blocks_occluded / n,
                       blocks_total > 0.0 ? blocks_occluded / blocks_total : 0.0});
        table.add_row({std::string("GOBs available"), gobs_available / n,
                       gobs_total > 0.0 ? gobs_available / gobs_total : 0.0});
        table.add_row({std::string("GOBs parity ok"), gobs_parity_ok / n,
                       gobs_total > 0.0 ? gobs_parity_ok / gobs_total : 0.0});
        table.add_row({std::string("GOBs recovered"), gobs_recovered / n,
                       gobs_total > 0.0 ? gobs_recovered / gobs_total : 0.0});
        table.print(std::cout);
        std::printf("\n");
    }
    double margin_count = 0.0;
    for (const double c : margin_hist) margin_count += c;
    if (margin_count > 0.0) {
        // Buckets are relative confidence margin |metric - threshold| /
        // threshold in log2 steps; bucket b covers [2^(b-8), 2^(b-7)).
        std::printf("confidence-margin distribution (%lld block decisions):\n",
                    static_cast<long long>(margin_count));
        util::Table table({"relative margin >=", "blocks", "fraction"});
        for (std::size_t b = 0; b < margin_hist.size(); ++b) {
            if (margin_hist[b] == 0.0) continue;
            const double lower = b == 0 ? 0.0 : std::exp2(static_cast<double>(b) - 8.0);
            table.add_row({lower, static_cast<long long>(margin_hist[b]),
                           margin_hist[b] / margin_count});
        }
        table.print(std::cout);
        std::printf("\n");
    }
    if (!events.empty()) {
        std::printf("events:\n");
        util::Table table({"category/name", "count"});
        for (const auto& [key, count] : events)
            table.add_row({key, static_cast<long long>(count)});
        table.print(std::cout);
        std::printf("\n");
    }
}

} // namespace

int main(int argc, char** argv)
{
    if (argc != 2) {
        std::fprintf(stderr,
                     "usage: telemetry_report <trace-dir>\n"
                     "  <trace-dir> is the directory a --trace run wrote "
                     "(trace.json, frames.jsonl, metrics.json)\n");
        return 2;
    }
    const std::string dir = argv[1];
    std::printf("telemetry report for %s\n\n", dir.c_str());
    report_spans(dir);
    report_metrics(dir);
    report_frames(dir);
    return 0;
}
