/**
 * @file
 * Tests for the debug-trace category infrastructure.
 */

#include <gtest/gtest.h>

#include "common/debug.hh"

namespace gds::debug
{
namespace
{

TEST(Debug, FlagsOffByDefault)
{
    setActiveFlags("");
    for (unsigned f = 0; f < static_cast<unsigned>(Flag::NumFlags); ++f)
        EXPECT_FALSE(enabled(static_cast<Flag>(f)));
}

TEST(Debug, SingleFlag)
{
    setActiveFlags("Dispatch");
    EXPECT_TRUE(enabled(Flag::Dispatch));
    EXPECT_FALSE(enabled(Flag::Prefetch));
    setActiveFlags("");
}

TEST(Debug, CommaList)
{
    setActiveFlags("Prefetch,Memory");
    EXPECT_TRUE(enabled(Flag::Prefetch));
    EXPECT_TRUE(enabled(Flag::Memory));
    EXPECT_FALSE(enabled(Flag::Reduce));
    setActiveFlags("");
}

TEST(Debug, AllEnablesEverything)
{
    setActiveFlags("All");
    for (unsigned f = 0; f < static_cast<unsigned>(Flag::NumFlags); ++f)
        EXPECT_TRUE(enabled(static_cast<Flag>(f)));
    setActiveFlags("");
}

TEST(Debug, UnknownTokensIgnored)
{
    setActiveFlags("Bogus,Reduce,AlsoBogus");
    EXPECT_TRUE(enabled(Flag::Reduce));
    EXPECT_FALSE(enabled(Flag::Dispatch));
    setActiveFlags("");
}

TEST(Debug, FlagNames)
{
    EXPECT_STREQ(flagName(Flag::Dispatch), "Dispatch");
    EXPECT_STREQ(flagName(Flag::Phase), "Phase");
}

TEST(Debug, DprintfCompilesAndIsSilentWhenOff)
{
    setActiveFlags("");
    DPRINTF(Dispatch, "this should not appear %d", 1);
    SUCCEED();
}

// --- Attribution context: cycle + component prefix -----------------------

TEST(Debug, TraceContextDefaultsAndRoundTrip)
{
    setTraceCycle(0);
    EXPECT_EQ(traceCycle(), 0u);
    EXPECT_EQ(traceComponent(), nullptr);
    setTraceCycle(1234);
    EXPECT_EQ(traceCycle(), 1234u);
    setTraceCycle(0);
}

TEST(Debug, ScopedTraceComponentNestsAndRestores)
{
    EXPECT_EQ(traceComponent(), nullptr);
    {
        const ScopedTraceComponent outer("accel");
        EXPECT_STREQ(traceComponent(), "accel");
        {
            const ScopedTraceComponent inner("accel.hbm");
            EXPECT_STREQ(traceComponent(), "accel.hbm");
        }
        EXPECT_STREQ(traceComponent(), "accel");
    }
    EXPECT_EQ(traceComponent(), nullptr);
}

TEST(Debug, EmittedLinesCarryCycleAndComponentPrefix)
{
    setActiveFlags("Dispatch");
    setTraceCycle(42);
    testing::internal::CaptureStderr();
    {
        const ScopedTraceComponent scope("accel.de");
        DPRINTF(Dispatch, "issued %d edges", 7);
    }
    const std::string out = testing::internal::GetCapturedStderr();
    EXPECT_NE(out.find("42: accel.de: Dispatch"), std::string::npos);
    EXPECT_NE(out.find("issued 7 edges"), std::string::npos);
    setActiveFlags("");
    setTraceCycle(0);
}

TEST(Debug, UnattributedLinesFallBackToGlobal)
{
    setActiveFlags("Phase");
    setTraceCycle(0);
    testing::internal::CaptureStderr();
    DPRINTF(Phase, "no component scope");
    const std::string out = testing::internal::GetCapturedStderr();
    EXPECT_NE(out.find("0: global: Phase"), std::string::npos);
    setActiveFlags("");
}

// --- LineSink routing (the hook the obs tracer uses) ---------------------

struct SinkCapture
{
    Flag flag = Flag::NumFlags;
    Cycle cycle = 0;
    std::string component;
    std::string text;
    int calls = 0;
};

void
captureSink(void *obj, Flag flag, Cycle cycle, const char *component,
            const char *text)
{
    auto *cap = static_cast<SinkCapture *>(obj);
    cap->flag = flag;
    cap->cycle = cycle;
    cap->component = component != nullptr ? component : "<none>";
    cap->text = text;
    ++cap->calls;
}

TEST(Debug, LineSinkReceivesAttributedLines)
{
    SinkCapture cap;
    setActiveFlags("Memory");
    setTraceCycle(99);
    setLineSink(&captureSink, &cap);
    testing::internal::CaptureStderr(); // swallow the stderr copy
    {
        const ScopedTraceComponent scope("accel.hbm");
        DPRINTF(Memory, "read row %d", 3);
    }
    setLineSink(nullptr, nullptr);
    testing::internal::GetCapturedStderr();
    ASSERT_EQ(cap.calls, 1);
    EXPECT_EQ(cap.flag, Flag::Memory);
    EXPECT_EQ(cap.cycle, 99u);
    EXPECT_EQ(cap.component, "accel.hbm");
    EXPECT_EQ(cap.text, "read row 3");
    setActiveFlags("");
    setTraceCycle(0);
}

TEST(Debug, LongLinesReachStderrAndSinkWhole)
{
    // Watchdog snapshots run to kilobytes; no fixed buffer may clip them.
    const std::string body =
        "snapshot:\n" + std::string(3000, 'x') + "|END";
    SinkCapture cap;
    setActiveFlags("Watchdog");
    setTraceCycle(0);
    setLineSink(&captureSink, &cap);
    testing::internal::CaptureStderr();
    DPRINTF(Watchdog, "snapshot:\n%s|END", std::string(3000, 'x').c_str());
    const std::string out = testing::internal::GetCapturedStderr();
    setLineSink(nullptr, nullptr);
    setActiveFlags("");
    EXPECT_EQ(out, "         0: global: Watchdog : " + body + "\n");
    ASSERT_EQ(cap.calls, 1);
    EXPECT_EQ(cap.text, body);
}

TEST(Debug, DetachedLineSinkStopsReceiving)
{
    SinkCapture cap;
    setActiveFlags("Memory");
    setLineSink(&captureSink, &cap);
    setLineSink(nullptr, nullptr);
    testing::internal::CaptureStderr();
    DPRINTF(Memory, "after detach");
    testing::internal::GetCapturedStderr();
    EXPECT_EQ(cap.calls, 0);
    setActiveFlags("");
}

} // namespace
} // namespace gds::debug
