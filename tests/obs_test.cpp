// Contract tests for the observability layer: the one JSON grammar
// (writer and strict reader), histogram bucketing edges, registry
// snapshot/exporter agreement, span nesting (including across
// thread-pool workers via AdoptParent), trace JSON well-formedness and
// the run-manifest writer.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "obs/json.hpp"
#include "obs/manifest.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "threading/pool.hpp"

namespace {

using namespace sgp;

// ------------------------------------------------------------- json --

TEST(ObsJson, QuoteEscapesControlCharacters) {
  EXPECT_EQ(obs::json_quote("plain"), "\"plain\"");
  EXPECT_EQ(obs::json_quote("a\"b"), "\"a\\\"b\"");
  EXPECT_EQ(obs::json_quote("a\\b"), "\"a\\\\b\"");
  EXPECT_EQ(obs::json_quote("a\nb"), "\"a\\nb\"");
  EXPECT_EQ(obs::json_quote(std::string("a\x01") + "b"), "\"a\\u0001b\"");
}

TEST(ObsJson, NumberIsLocaleIndependentAndFiniteOnly) {
  EXPECT_EQ(obs::json_number(std::uint64_t{42}), "42");
  EXPECT_EQ(obs::json_number(1.5), "1.5");
  EXPECT_EQ(obs::json_number(std::numeric_limits<double>::quiet_NaN()),
            "null");
  EXPECT_EQ(obs::json_number(std::numeric_limits<double>::infinity()),
            "null");
}

TEST(ObsJson, QuoteAlwaysEmitsValidUtf8) {
  // Bytes that start no well-formed UTF-8 sequence (a stray byte, an
  // overlong NUL, an encoded surrogate) each become U+FFFD.
  for (const std::string bad : {"\xff", "\xc0\x80", "\xed\xa0\x80"}) {
    const std::string quoted = obs::json_quote(bad);
    const obs::JsonParse parsed = obs::json_parse(quoted);
    ASSERT_TRUE(parsed.ok()) << parsed.error << " in " << quoted;
    std::string expected;
    for (std::size_t i = 0; i < bad.size(); ++i) expected += "\xef\xbf\xbd";
    EXPECT_EQ(parsed.value->string, expected);
  }
  EXPECT_EQ(obs::json_quote("a\xe2\x82"), "\"a\xef\xbf\xbd\xef\xbf\xbd\"");
  // Valid UTF-8 passes through byte for byte.
  EXPECT_EQ(obs::json_quote("\xc3\xa9"), "\"\xc3\xa9\"");
  const obs::JsonParse e = obs::json_parse(obs::json_quote("\xc3\xa9"));
  ASSERT_TRUE(e.ok());
  EXPECT_EQ(e.value->string, "\xc3\xa9");
}

// One grammar: the self-check (json_valid) and the request reader
// (json_parse, default limits) accept and reject the same documents.
const std::vector<std::string> kWellFormedJson = {
    "{}",
    "[1, 2.5, -3e4, \"x\", true, null]",
    "{\"a\": {\"b\": [\"\\u00e9\"]}}",
    "{\"a\":[1,2.5,-3e2,null,true]}",
    "{\"a\":\"\xc3\xa9\"}",  // é
};

const std::vector<std::string> kMalformedJson = {
    "",
    "{\"a\": 1,}",  // trailing comma
    "{\"a\":1,}",
    "{\"a\": nan}",  // not a JSON token
    "{\"a\": 1} extra",
    "{}trailing",
    "{\"a\"",  // truncated
    "{'a':1}",
    "{\"a\":01}",
    "{\"a\":1 \"b\":2}",
    "{\"a\":1,\"a\":2}",         // duplicate key
    "{\"a\":\"\xff\"}",          // stray byte
    "{\"a\":\"\xc0\x80\"}",      // overlong NUL
    "{\"a\":\"\xed\xa0\x80\"}",  // encoded surrogate
    "\"\\ud800\"",               // lone surrogate escape
    "1e999",                     // out of double range
};

TEST(ObsJson, AcceptsWellFormedValues) {
  for (const std::string& text : kWellFormedJson) {
    EXPECT_TRUE(obs::json_valid(text)) << text;
    EXPECT_TRUE(obs::json_parse(text).ok()) << text;
  }
}

TEST(ObsJson, RejectsMalformedValues) {
  for (const std::string& text : kMalformedJson) {
    EXPECT_FALSE(obs::json_valid(text)) << text;
    EXPECT_FALSE(obs::json_parse(text).ok()) << text;
  }
}

TEST(ObsJson, ErrorNamesTheOffset) {
  EXPECT_EQ(obs::json_error("{}trailing").value_or(""),
            "trailing bytes after JSON value at offset 2");
  EXPECT_FALSE(obs::json_error("{}").has_value());
}

TEST(ObsJson, ParseEnforcesRequestLimits) {
  obs::JsonLimits limits;
  limits.max_depth = 3;
  EXPECT_FALSE(obs::json_parse("[[[[0]]]]", limits).ok());
  EXPECT_TRUE(obs::json_parse("[[[0]]]", limits).ok());
}

TEST(ObsJson, SelfCheckHasNoElementOrStringCap) {
  std::string many = "[0";
  for (int i = 0; i < 5000; ++i) many += ",0";
  many += "]";
  const std::string big = "\"" + std::string(70 * 1024, 'x') + "\"";
  for (const std::string& text : {many, big}) {
    EXPECT_FALSE(obs::json_parse(text).ok());
    EXPECT_TRUE(obs::json_valid(text));
  }
}

// ---------------------------------------------------------- metrics --

TEST(ObsHistogram, BucketEdges) {
  using H = obs::Histogram;
  EXPECT_EQ(H::bucket_of(0), 0);
  EXPECT_EQ(H::bucket_of(1), 1);
  EXPECT_EQ(H::bucket_of(2), 2);  // [2, 4)
  EXPECT_EQ(H::bucket_of(3), 2);
  EXPECT_EQ(H::bucket_of(4), 3);  // [4, 8)
  EXPECT_EQ(H::bucket_of(7), 3);
  EXPECT_EQ(H::bucket_of(8), 4);
  // The top bucket absorbs everything that would overflow the table.
  EXPECT_EQ(H::bucket_of(~std::uint64_t{0}), H::kBuckets - 1);
  EXPECT_EQ(H::bucket_floor(0), 0u);
  EXPECT_EQ(H::bucket_floor(1), 1u);
  EXPECT_EQ(H::bucket_floor(2), 2u);
  EXPECT_EQ(H::bucket_floor(3), 4u);
}

TEST(ObsHistogram, ObserveAccumulates) {
  obs::Histogram h;
  h.observe(0);
  h.observe(1);
  h.observe(3);
  h.observe(3);
  EXPECT_EQ(h.count(), 4u);
  EXPECT_EQ(h.sum(), 7u);
  EXPECT_EQ(h.bucket(0), 1u);
  EXPECT_EQ(h.bucket(1), 1u);
  EXPECT_EQ(h.bucket(2), 2u);
  h.reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.bucket(2), 0u);
}

TEST(ObsRegistry, ReturnsStableReferences) {
  obs::Counter& a = obs::registry().counter("obs_test.stable");
  obs::Counter& b = obs::registry().counter("obs_test.stable");
  EXPECT_EQ(&a, &b);
  a.add(3);
  EXPECT_EQ(b.value(), 3u);
}

TEST(ObsRegistry, SnapshotMatchesExporterAndIsDeterministic) {
  obs::registry().counter("obs_test.snap_counter").add(5);
  obs::registry().gauge("obs_test.snap_gauge").set(2.5);
  obs::registry().histogram("obs_test.snap_hist").observe(9);
  obs::registry().gauge_callback("obs_test.snap_cb", [] { return 7.0; });

  const obs::MetricsSnapshot s1 = obs::registry().snapshot();
  const obs::MetricsSnapshot s2 = obs::registry().snapshot();
  const std::string j1 = obs::Registry::to_json(s1);
  const std::string j2 = obs::Registry::to_json(s2);
  // Same state, two snapshots: byte-identical exports.
  EXPECT_EQ(j1, j2);
  EXPECT_TRUE(obs::json_valid(j1)) << j1;
  EXPECT_NE(j1.find("\"obs_test.snap_counter\""), std::string::npos);
  EXPECT_NE(j1.find("\"obs_test.snap_gauge\""), std::string::npos);
  EXPECT_NE(j1.find("\"obs_test.snap_hist\""), std::string::npos);
  EXPECT_NE(j1.find("\"obs_test.snap_cb\""), std::string::npos);

  EXPECT_GE(s1.counter_or("obs_test.snap_counter"), 5u);
  EXPECT_EQ(s1.counter_or("obs_test.no_such", 99u), 99u);
}

// ------------------------------------------------------------ spans --

TEST(ObsTrace, DisabledSpansCostNothingAndRecordNothing) {
  obs::tracer().disable();
  obs::tracer().clear();
  {
    const obs::Span s("obs_test.disabled");
    EXPECT_FALSE(s.active());
    EXPECT_EQ(obs::current_span(), 0u);
  }
  EXPECT_EQ(obs::tracer().event_count(), 0u);
}

TEST(ObsTrace, SpansNestWithinOneThread) {
  obs::tracer().enable();
  obs::tracer().clear();
  std::uint64_t outer_id = 0;
  std::uint64_t inner_id = 0;
  {
    const obs::Span outer("obs_test.outer");
    outer_id = outer.id();
    EXPECT_EQ(obs::current_span(), outer_id);
    {
      const obs::Span inner("obs_test.inner");
      inner_id = inner.id();
      EXPECT_EQ(obs::current_span(), inner_id);
    }
    EXPECT_EQ(obs::current_span(), outer_id);
  }
  obs::tracer().disable();

  std::map<std::string, obs::SpanEvent> by_name;
  for (const auto& ev : obs::tracer().events()) by_name[ev.name] = ev;
  ASSERT_EQ(by_name.count("obs_test.outer"), 1u);
  ASSERT_EQ(by_name.count("obs_test.inner"), 1u);
  EXPECT_EQ(by_name["obs_test.inner"].parent, outer_id);
  EXPECT_EQ(by_name["obs_test.outer"].parent, 0u);
  EXPECT_EQ(by_name["obs_test.inner"].id, inner_id);
  EXPECT_LE(by_name["obs_test.outer"].start_us,
            by_name["obs_test.inner"].start_us);
}

TEST(ObsTrace, PoolChunksAdoptTheDispatchingSpanAcrossThreads) {
  obs::tracer().enable();
  obs::tracer().clear();
  std::uint64_t batch_id = 0;
  {
    const obs::Span batch("obs_test.batch");
    batch_id = batch.id();
    threading::ThreadPool pool(3);
    pool.parallel_for(64, [](std::size_t b, std::size_t e, int) {
      for (std::size_t i = b; i < e; ++i) {
        const obs::Span leaf("obs_test.leaf");
        (void)leaf;
      }
    });
  }
  obs::tracer().disable();

  const auto events = obs::tracer().events();
  std::uint64_t dispatch_id = 0;
  for (const auto& ev : events) {
    if (ev.name == "ThreadPool::parallel_for") {
      EXPECT_EQ(ev.parent, batch_id);
      dispatch_id = ev.id;
    }
  }
  ASSERT_NE(dispatch_id, 0u);

  std::vector<std::uint64_t> chunk_ids;
  for (const auto& ev : events) {
    if (ev.name == "pool.chunk") {
      // Worker chunks hang under the dispatching scope even though
      // they ran on other threads (AdoptParent).
      EXPECT_EQ(ev.parent, dispatch_id);
      chunk_ids.push_back(ev.id);
    }
  }
  EXPECT_FALSE(chunk_ids.empty());

  std::size_t leaves = 0;
  for (const auto& ev : events) {
    if (ev.name != "obs_test.leaf") continue;
    ++leaves;
    EXPECT_NE(std::find(chunk_ids.begin(), chunk_ids.end(), ev.parent),
              chunk_ids.end())
        << "leaf span not parented to any pool chunk";
  }
  EXPECT_EQ(leaves, 64u);
}

TEST(ObsTrace, ChromeTraceJsonIsWellFormed) {
  obs::tracer().enable();
  obs::tracer().clear();
  {
    const obs::Span s("obs_test.export \"quoted\" \\ name");
    (void)s;
  }
  obs::tracer().disable();
  const std::string json = obs::tracer().chrome_trace_json();
  EXPECT_TRUE(obs::json_valid(json)) << json;
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos);
}

// --------------------------------------------------------- manifest --

TEST(ObsManifest, RendersWellFormedJson) {
  obs::RunManifest man("obs_test_tool");
  man.add("host", "os", "linux");
  man.add("host", "tricky", "quote\" backslash\\ newline\n");
  man.add("run", "threads", std::int64_t{-2});
  man.add("run", "reps", std::uint64_t{12});
  man.add("run", "factor", 0.25);
  man.add("run", "keep_going", true);
  man.add_phase("warmup", 0.5, 10);
  man.add_phase("measure", 1.5, 100);

  const std::string json = man.to_json(obs::registry().snapshot());
  EXPECT_TRUE(obs::json_valid(json)) << json;
  EXPECT_NE(json.find("\"sgp.run-manifest.v1\""), std::string::npos);
  EXPECT_NE(json.find("\"obs_test_tool\""), std::string::npos);
  EXPECT_NE(json.find("\"warmup\""), std::string::npos);
  EXPECT_NE(json.find("\"metrics\""), std::string::npos);
}

TEST(ObsManifest, NonUtf8ValueRendersValidJson) {
  obs::RunManifest man("obs_test_tool");
  man.add("persist", "checkpoint", "/tmp/ck\xff.bin");
  const std::string json = man.to_json(obs::MetricsSnapshot{});
  const obs::JsonParse parsed = obs::json_parse(json);
  ASSERT_TRUE(parsed.ok()) << parsed.error << " in " << json;
  const obs::JsonValue* persist = parsed.value->find("persist");
  ASSERT_NE(persist, nullptr);
  const obs::JsonValue* checkpoint = persist->find("checkpoint");
  ASSERT_NE(checkpoint, nullptr);
  EXPECT_EQ(checkpoint->string, "/tmp/ck\xef\xbf\xbd.bin");
}

TEST(ObsManifest, EmbeddedMetricsEqualRegistrySnapshot) {
  obs::registry().counter("obs_test.manifest_counter").add(11);
  const obs::MetricsSnapshot snap = obs::registry().snapshot();
  obs::RunManifest man("obs_test_tool");
  const std::string json = man.to_json(snap);
  // The manifest embeds exactly the exporter's rendering of the
  // snapshot it was given.
  EXPECT_NE(json.find(obs::Registry::to_json(snap)), std::string::npos);
}

// ------------------------------------------------- pool observability --

TEST(ObsPool, ExposesDispatchAndBusyCounters) {
  threading::ThreadPool pool(2);
  EXPECT_EQ(pool.dispatches(), 0u);
  const std::uint64_t epochs_before = pool.epochs();
  std::atomic<int> touched{0};
  pool.parallel_for(32, [&](std::size_t b, std::size_t e, int) {
    touched.fetch_add(static_cast<int>(e - b));
  });
  EXPECT_EQ(touched.load(), 32);
  EXPECT_EQ(pool.dispatches(), 1u);
  EXPECT_EQ(pool.epochs(), epochs_before + 1);
  const std::vector<double> busy = pool.worker_busy_s();
  ASSERT_EQ(busy.size(), 2u);
  for (const double s : busy) EXPECT_GE(s, 0.0);
}

}  // namespace
