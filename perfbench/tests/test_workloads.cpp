#include "workloads.hpp"

#include "util/thread_pool.hpp"

#include <gtest/gtest.h>

namespace inframe::perfbench {
namespace {

// The benchmark's paper_gray graph must produce exactly what
// core::run_link_experiment produces on the same config and seed, whatever
// the executor: threads {1, nproc} x frames in flight {1, 4}.
TEST(PaperGray, MatchesRunLinkExperimentAcrossExecutors)
{
    constexpr std::int64_t display_frames = 24; // two data frames
    for (const int threads : {1, util::Thread_pool::hardware_threads()}) {
        for (const int frames_in_flight : {1, 4}) {
            core::Link_experiment_config config = paper_gray_config(5, display_frames);
            config.threads = threads;
            config.frames_in_flight = frames_in_flight;
            const core::Link_experiment_result expected = core::run_link_experiment(config);
            const Episode episode = run_link_graph(config, frames_in_flight, nullptr);
            const Outcome& outcome = episode.outcome;
            SCOPED_TRACE(testing::Message()
                         << "threads " << threads << " fif " << frames_in_flight);
            EXPECT_TRUE(outcome.passed) << outcome.check;
            EXPECT_EQ(outcome.value("payload_ber"), expected.payload_bit_error_rate);
            EXPECT_EQ(outcome.value("goodput_kbps"), expected.goodput_kbps);
            EXPECT_EQ(outcome.value("decode.available_gob_ratio"), expected.available_gob_ratio);
            EXPECT_EQ(outcome.value("decode.unknown_block_ratio"), expected.unknown_block_ratio);
            EXPECT_EQ(outcome.value("decode.data_frames"), expected.data_frames);
            EXPECT_EQ(outcome.value("link.captures_dropped"), expected.captures_dropped);
            EXPECT_EQ(episode.display_frames, display_frames);
        }
    }
}

TEST(PaperGray, OutcomeIsIndependentOfTracing)
{
    const Workload_spec spec{Workload::paper_gray, 1, 24};
    Trace trace;
    const Episode plain = run_episode(spec, 11, nullptr);
    const Episode traced = run_episode(spec, 11, &trace);
    EXPECT_EQ(plain.outcome, traced.outcome);
    EXPECT_FALSE(trace.spans().empty());
    const Episode other_seed = run_episode(spec, 12, nullptr);
    EXPECT_NE(plain.outcome, other_seed.outcome);
}

TEST(ObservedFrameRatio, CountsRefreshIntervalsInsideExposureWindows)
{
    channel::Camera_params camera;
    camera.fps = 30.0;
    camera.exposure_s = 0.001;
    camera.readout_s = 0.0;
    // One 1 ms window per 4 refreshes of 8.33 ms, never on a boundary.
    camera.phase_offset_s = 0.002;
    EXPECT_DOUBLE_EQ(observed_frame_ratio(camera, 120.0, 120), 0.25);
    // A window longer than a refresh always straddles two of them.
    camera.exposure_s = 0.010;
    EXPECT_DOUBLE_EQ(observed_frame_ratio(camera, 120.0, 120), 0.5);
    // Default camera: about half of the refreshes are seen (6 ms readout
    // + 2.1 ms exposure per 33.4 ms).
    const double defaults = observed_frame_ratio(channel::Camera_params{}, 120.0, 1200);
    EXPECT_GT(defaults, 0.4);
    EXPECT_LT(defaults, 0.6);
}

} // namespace
} // namespace inframe::perfbench
