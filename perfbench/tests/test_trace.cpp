#include "trace.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <thread>

namespace inframe::perfbench {
namespace {

Span make_span(const char* name, double start, double end, int parent)
{
    Span span;
    span.name = name;
    span.start_s = start;
    span.end_s = end;
    span.parent = parent;
    return span;
}

TEST(SelfTime, SubtractsTheUnionOfChildrenClippedToTheParent)
{
    const std::vector<Span> spans = {
        make_span("pipeline.run", 0.0, 10.0, -1),
        make_span("link.push", 1.0, 3.0, 0),
        make_span("decode.push", 2.0, 5.0, 0),  // overlaps the link span: counted once
        make_span("video.push", 8.0, 12.0, 0),  // runs past the parent: clipped at 10
        make_span("link.optics", 1.5, 2.5, 1),
    };
    const std::vector<double> self = self_times(spans);
    EXPECT_DOUBLE_EQ(self[0], 10.0 - (4.0 + 2.0));
    EXPECT_DOUBLE_EQ(self[1], 2.0 - 1.0);
    EXPECT_DOUBLE_EQ(self[2], 3.0);
    EXPECT_DOUBLE_EQ(self[3], 4.0);
    EXPECT_DOUBLE_EQ(self[4], 1.0);
}

TEST(SelfTime, LayerTotalsCountNestedSameLayerSpansOnce)
{
    const std::vector<Span> spans = {
        make_span("pipeline.run", 0.0, 10.0, -1),
        make_span("hvs.assess", 1.0, 5.0, 0),
        make_span("hvs.observer", 1.0, 2.0, 1),
        make_span("hvs.observer", 2.0, 4.0, 1),
        make_span("encode.push", 6.0, 7.0, 0),
    };
    const auto layers = layer_times(spans);
    EXPECT_EQ(layers.at("hvs").calls, 1);
    EXPECT_DOUBLE_EQ(layers.at("hvs").busy_s, 4.0);
    EXPECT_DOUBLE_EQ(layers.at("hvs").self_s, 4.0); // 1 s loop overhead + 3 s in observers
    EXPECT_DOUBLE_EQ(layers.at("encode").busy_s, 1.0);
    EXPECT_DOUBLE_EQ(layers.at("pipeline").self_s, 10.0 - 4.0 - 1.0);

    // In a serial run the self times of all layers add up to the wall.
    double total_self = 0.0;
    for (const auto& [layer, time] : layers) total_self += time.self_s;
    EXPECT_DOUBLE_EQ(total_self, 10.0);
}

TEST(Trace, NestsByThreadAndFallsBackToTheRoot)
{
    Trace trace;
    {
        const Trace::Scope root(&trace, "pipeline.run", -1);
        trace.set_root(root.index());
        {
            const Trace::Scope push(&trace, "hvs.assess", 7);
            const Trace::Scope inner(&trace, "hvs.observer", 7);
        }
        std::thread([&trace] { const Trace::Scope other(&trace, "link.push", 3); }).join();
        trace.set_root(-1);
    }
    const std::vector<Span> spans = trace.spans();
    ASSERT_EQ(spans.size(), 4u);
    EXPECT_EQ(spans[0].parent, -1);
    EXPECT_EQ(spans[1].parent, 0);
    EXPECT_EQ(spans[2].parent, 1);
    EXPECT_EQ(spans[2].id, 7);
    EXPECT_EQ(spans[3].parent, 0); // another thread: hung under the root
    for (const Span& span : spans) EXPECT_LE(span.start_s, span.end_s);
    EXPECT_GE(spans[1].start_s, spans[0].start_s);
    EXPECT_LE(spans[2].end_s, spans[1].end_s);

    std::ostringstream json;
    trace.write_chrome_json(json);
    EXPECT_NE(json.str().find("\"name\":\"hvs.observer\""), std::string::npos);
}

TEST(Trace, NullTraceRecordsNothing)
{
    const Trace::Scope scope(nullptr, "video.push", 0);
    EXPECT_EQ(scope.index(), -1);
}

} // namespace
} // namespace inframe::perfbench
