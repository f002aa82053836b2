// Tests for the sgp-serve subsystem: the strict request parser (the
// JSON grammar itself is tested in obs_test), the shared uint64 flag
// parser, the Server's admission control, request coalescing, deadline
// handling, and the cold -> drain -> restart -> warm end-to-end
// contract over a persistent memo cache.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <sys/socket.h>
#include <sys/un.h>

#include "check/fuzz.hpp"
#include "obs/json.hpp"
#include "serve/json.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"

namespace fs = std::filesystem;
using namespace sgp;

namespace {

/// Fresh scratch directory per test, removed on scope exit.
struct TempDir {
  fs::path path;
  explicit TempDir(const std::string& tag)
      : path(fs::temp_directory_path() /
             ("sgp_serve_" + tag + "_" +
              std::to_string(static_cast<unsigned>(::getpid())))) {
    fs::remove_all(path);
    fs::create_directories(path);
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
  std::string str() const { return path.string(); }
};

serve::Request parse_ok(const std::string& line) {
  auto outcome = serve::parse_request(line, serve::ProtocolLimits{});
  EXPECT_TRUE(std::holds_alternative<serve::Request>(outcome))
      << "line rejected: " << line;
  return std::get<serve::Request>(std::move(outcome));
}

serve::ServeError parse_err(const std::string& line) {
  auto outcome = serve::parse_request(line, serve::ProtocolLimits{});
  EXPECT_TRUE(
      (std::holds_alternative<std::pair<std::string, serve::ServeError>>(
          outcome)))
      << "line accepted: " << line;
  if (const auto* p =
          std::get_if<std::pair<std::string, serve::ServeError>>(
              &outcome)) {
    return p->second;
  }
  return {};
}

/// Extracts a top-level field from a rendered response line via the
/// JSON reader itself (dogfooding: every emitted line must be
/// parseable by the same strict grammar requests use).
const obs::JsonValue* response_field(const obs::JsonValue& doc,
                                       const std::string& key) {
  EXPECT_EQ(doc.kind, obs::JsonValue::Kind::Object);
  return doc.find(key);
}

obs::JsonValue parse_response(const std::string& line) {
  const auto parsed = obs::json_parse(line);
  EXPECT_TRUE(parsed.value.has_value())
      << "response not valid JSON: " << parsed.error << " in " << line;
  return parsed.value ? *parsed.value : obs::JsonValue{};
}

}  // namespace

// ------------------------------------------------------- parse_u64 --

TEST(ParseU64, AcceptsFullRange) {
  EXPECT_EQ(serve::parse_u64("0"), 0u);
  EXPECT_EQ(serve::parse_u64("4242"), 4242u);
  EXPECT_EQ(serve::parse_u64("18446744073709551615"),
            18446744073709551615ull);
}

TEST(ParseU64, RejectsJunk) {
  EXPECT_FALSE(serve::parse_u64(""));
  EXPECT_FALSE(serve::parse_u64("-1"));
  EXPECT_FALSE(serve::parse_u64("+1"));
  EXPECT_FALSE(serve::parse_u64("1.5"));
  EXPECT_FALSE(serve::parse_u64("1e3"));
  EXPECT_FALSE(serve::parse_u64("12x"));
  EXPECT_FALSE(serve::parse_u64(" 12"));
  EXPECT_FALSE(serve::parse_u64("012"));  // no leading zeros
  EXPECT_FALSE(serve::parse_u64("18446744073709551616"));  // 2^64
  EXPECT_FALSE(serve::parse_u64("99999999999999999999999"));
}

// --------------------------------------------------- request schema --

TEST(Protocol, ValidSweepRequest) {
  const auto req = parse_ok(
      R"({"id":"r1","op":"sweep","machine":"sg2042",)"
      R"("kernels":["TRIAD","COPY"],"precision":"fp32",)"
      R"("threads":[1,32,64],"format":"json","deadline_ms":500})");
  EXPECT_EQ(req.id, "r1");
  EXPECT_EQ(req.op, serve::Op::Sweep);
  EXPECT_EQ(req.machine, "sg2042");
  EXPECT_EQ(req.kernels.size(), 2u);
  EXPECT_EQ(req.points(), 6u);
  EXPECT_EQ(req.format, serve::Format::Json);
  ASSERT_TRUE(req.deadline_ms.has_value());
  EXPECT_DOUBLE_EQ(*req.deadline_ms, 500.0);
}

TEST(Protocol, RejectsUnknownFieldsMachinesAndKernels) {
  EXPECT_EQ(parse_err(R"({"id":"a","op":"ping","bogus":1})").code,
            serve::ErrorCode::BadRequest);
  EXPECT_EQ(parse_err(R"({"id":"a","op":"warp"})").code,
            serve::ErrorCode::BadRequest);
  const auto machine_err = parse_err(
      R"({"id":"a","op":"sweep","machine":"mars","threads":1})");
  EXPECT_EQ(machine_err.code, serve::ErrorCode::BadRequest);
  EXPECT_NE(machine_err.message.find("sg2042"), std::string::npos);
  // Kernel typos get a did-you-mean.
  const auto kernel_err = parse_err(
      R"({"id":"a","op":"sweep","machine":"sg2042",)"
      R"("kernels":["TRIAD_"],"threads":1})");
  EXPECT_EQ(kernel_err.code, serve::ErrorCode::BadRequest);
  EXPECT_NE(kernel_err.message.find("TRIAD"), std::string::npos);
}

TEST(Protocol, RejectsGccWithVla) {
  // Explicit gcc and the gcc default both fail validation, before any
  // simulation could throw from compiler::plan.
  for (const std::string compiler : {R"("compiler":"gcc",)", ""}) {
    const auto err = parse_err(
        R"({"id":"a","op":"simulate","machine":"sg2042","kernel":"TRIAD",)"
        R"("precision":"fp64","threads":1,)" +
        compiler + R"("vector":"vla"})");
    EXPECT_EQ(err.code, serve::ErrorCode::BadRequest) << compiler;
    EXPECT_NE(err.message.find("clang with scalar | vls | vla"),
              std::string::npos)
        << err.message;
  }
  parse_ok(R"({"id":"a","op":"sweep","machine":"sg2042","threads":1,)"
           R"("compiler":"clang","vector":"vla"})");
  parse_ok(R"({"id":"a","op":"sweep","machine":"sg2042","threads":1,)"
           R"("vector":"vls"})");
}

TEST(Protocol, BoundsThreadsByMachine) {
  // d1 is single-core: threads 2 is out of range there, fine on sg2042.
  EXPECT_EQ(parse_err(R"({"id":"a","op":"sweep","machine":"d1",)"
                      R"("threads":2})")
                .code,
            serve::ErrorCode::BadRequest);
  parse_ok(R"({"id":"a","op":"sweep","machine":"sg2042","threads":64})");
  EXPECT_EQ(parse_err(R"({"id":"a","op":"sweep","machine":"sg2042",)"
                      R"("threads":65})")
                .code,
            serve::ErrorCode::BadRequest);
}

TEST(Protocol, RequiresIdAndRecoversItOnErrors) {
  EXPECT_EQ(parse_err(R"({"op":"ping"})").code,
            serve::ErrorCode::BadRequest);
  // The id is recovered for error correlation even when validation
  // fails on a later field.
  auto outcome = serve::parse_request(
      R"({"id":"findme","op":"sweep","machine":"mars","threads":1})",
      serve::ProtocolLimits{});
  const auto* failed =
      std::get_if<std::pair<std::string, serve::ServeError>>(&outcome);
  ASSERT_NE(failed, nullptr);
  EXPECT_EQ(failed->first, "findme");
}

TEST(Protocol, FingerprintIgnoresIdOnly) {
  const std::string base =
      R"(,"op":"sweep","machine":"sg2042","kernels":["TRIAD"],)"
      R"("precision":"fp32","threads":[1,8]})";
  const auto a = parse_ok(R"({"id":"a")" + base);
  const auto b = parse_ok(R"({"id":"b")" + base);
  EXPECT_EQ(a.fingerprint(), b.fingerprint());
  const auto c = parse_ok(
      R"({"id":"a","op":"sweep","machine":"sg2042",)"
      R"("kernels":["TRIAD"],"precision":"fp64","threads":[1,8]})");
  EXPECT_NE(a.fingerprint(), c.fingerprint());
}

// ----------------------------------------------- server + admission --

namespace {

/// Collects responses (thread-safe) keyed by submission order.
struct Collector {
  std::mutex mu;
  std::vector<std::string> lines;

  serve::Server::Respond sink() {
    return [this](std::string line) {
      std::lock_guard<std::mutex> lk(mu);
      lines.push_back(std::move(line));
    };
  }
  std::vector<std::string> snapshot() {
    std::lock_guard<std::mutex> lk(mu);
    return lines;
  }
};

std::string sweep_line(const std::string& id, const std::string& kernel,
                       const std::string& extra = "") {
  return "{\"id\":\"" + id +
         "\",\"op\":\"sweep\",\"machine\":\"sg2042\",\"kernels\":[\"" +
         kernel + "\"],\"precision\":\"fp32\",\"threads\":[1,16]" +
         extra + "}";
}

}  // namespace

TEST(Server, CoalescesIdenticalConcurrentRequests) {
  serve::ServerOptions opt;
  opt.jobs = 1;
  opt.warn = false;
  serve::Server server(opt);
  Collector out;

  // Pause the worker so both requests land in the same batch: this is
  // the deterministic version of "two clients fire at once".
  server.pause();
  server.submit_line(sweep_line("twin-a", "TRIAD"), out.sink());
  server.submit_line(sweep_line("twin-b", "TRIAD"), out.sink());
  server.resume();
  server.drain();

  const auto lines = out.snapshot();
  ASSERT_EQ(lines.size(), 2u);
  // Byte-identical apart from the id field.
  std::string a = lines[0], b = lines[1];
  const auto strip_id = [](std::string s) {
    const auto pos = s.find("\",");
    return s.substr(pos);  // drops {"id":"...
  };
  EXPECT_EQ(strip_id(a), strip_id(b));

  const auto stats = server.stats();
  EXPECT_EQ(stats.coalesced, 1u);
  // ONE Simulator::run burst: 2 points evaluated, not 4.
  const auto counters = server.engine_counters();
  EXPECT_EQ(counters.simulations, 2u);
  EXPECT_EQ(stats.points, 2u);
}

TEST(Server, RejectsOverloadDuplicateAndAfterShutdown) {
  serve::ServerOptions opt;
  opt.jobs = 1;
  opt.max_queue = 2;
  opt.warn = false;
  serve::Server server(opt);
  Collector out;

  server.pause();
  server.submit_line(sweep_line("q1", "TRIAD"), out.sink());
  // Duplicate in-flight id.
  server.submit_line(sweep_line("q1", "COPY"), out.sink());
  server.submit_line(sweep_line("q2", "COPY"), out.sink());
  // Queue (2 slots) is now full.
  server.submit_line(sweep_line("q3", "MUL"), out.sink());
  server.resume();
  server.drain();

  auto lines = out.snapshot();
  ASSERT_EQ(lines.size(), 4u);
  EXPECT_NE(lines[0].find("duplicate-id"), std::string::npos);
  EXPECT_NE(lines[1].find("overloaded"), std::string::npos);

  server.submit_line(R"({"id":"bye","op":"shutdown"})", out.sink());
  server.drain();
  EXPECT_TRUE(server.stopped());
  server.submit_line(sweep_line("late", "DOT"), out.sink());
  lines = out.snapshot();
  EXPECT_NE(lines.back().find("shutting-down"), std::string::npos);
}

TEST(Server, ExpiredDeadlineGetsStructuredErrorWithoutSimulating) {
  serve::ServerOptions opt;
  opt.jobs = 1;
  opt.warn = false;
  serve::Server server(opt);
  Collector out;

  server.pause();
  // 1 microsecond deadline: expired long before the worker resumes.
  server.submit_line(sweep_line("dead", "TRIAD", ",\"deadline_ms\":0.001"),
                     out.sink());
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  server.resume();
  server.drain();

  const auto lines = out.snapshot();
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_NE(lines[0].find("deadline-exceeded"), std::string::npos);
  EXPECT_EQ(server.engine_counters().simulations, 0u);
  EXPECT_EQ(server.stats().deadline_exceeded, 1u);
  // The error line itself is valid JSON with ok:false.
  const auto doc = parse_response(lines[0]);
  const auto* ok = response_field(doc, "ok");
  ASSERT_NE(ok, nullptr);
  EXPECT_EQ(ok->kind, obs::JsonValue::Kind::Bool);
  EXPECT_FALSE(ok->boolean);
}

TEST(Server, PipeModeAnswersEveryLine) {
  std::istringstream in(
      R"({"id":"p","op":"ping"})"
      "\n"
      "garbage\n" +
      sweep_line("s", "TRIAD") + "\n" +
      R"({"id":"z","op":"shutdown"})" + "\n" +
      R"({"id":"never","op":"ping"})" + "\n");
  std::ostringstream out;
  serve::ServerOptions opt;
  opt.jobs = 1;
  opt.warn = false;
  serve::Server server(opt);
  EXPECT_EQ(server.run_pipe(in, out), 0);
  EXPECT_TRUE(server.stopped());

  std::vector<std::string> lines;
  std::istringstream resp(out.str());
  for (std::string l; std::getline(resp, l);) lines.push_back(l);
  ASSERT_EQ(lines.size(), 4u);  // "never" is after shutdown: loop exits
  std::size_t parse_errors = 0;
  for (const auto& l : lines) {
    EXPECT_TRUE(obs::json_parse(l).value) << l;
    if (l.find("parse-error") != std::string::npos) ++parse_errors;
  }
  // Responses may interleave (rejects are synchronous, results come
  // from the worker), so count rather than index.
  EXPECT_EQ(parse_errors, 1u);
}

// A file client cannot retry, so pipe input larger than the queue must
// wait for room rather than be answered "overloaded": every line gets
// the same response a serial server with room for all of it gives.
TEST(Server, PipeInputLargerThanTheQueueIsNeverShed) {
  const char* kernels[] = {"TRIAD", "COPY", "DOT", "MUL", "ADD", "GEMM"};
  std::string input;
  constexpr std::size_t kLines = 600;
  for (std::size_t i = 0; i < kLines; ++i) {
    std::string id = "r";  // not "r" + ...: GCC 12 -Wrestrict false positive
    id += std::to_string(i);
    input += sweep_line(id, kernels[i % 6]) + "\n";
  }
  auto serve_all = [&](int jobs, std::size_t max_queue,
                       std::size_t max_batch, serve::ServerStats& stats) {
    serve::ServerOptions opt;
    opt.jobs = jobs;
    opt.max_queue = max_queue;
    opt.max_batch = max_batch;
    opt.warn = false;
    serve::Server server(opt);
    std::istringstream in(input);
    std::ostringstream out;
    EXPECT_EQ(server.run_pipe(in, out), 0);
    stats = server.stats();
    std::vector<std::string> lines;
    std::istringstream resp(out.str());
    for (std::string l; std::getline(resp, l);) lines.push_back(l);
    std::sort(lines.begin(), lines.end());
    return lines;
  };
  serve::ServerStats serial_stats;
  serve::ServerStats small_stats;
  const auto serial = serve_all(1, kLines, 64, serial_stats);
  const auto small = serve_all(2, 4, 2, small_stats);
  ASSERT_EQ(small.size(), kLines);
  EXPECT_EQ(small_stats.rejected_overload, 0u);
  EXPECT_EQ(small_stats.accepted, kLines);
  for (const auto& l : small) {
    EXPECT_EQ(l.find("overloaded"), std::string::npos) << l;
  }
  EXPECT_EQ(small, serial);
  EXPECT_EQ(serial_stats.rejected_overload, 0u);
}

// The acceptance end-to-end: cold start -> mixed requests (duplicates,
// one past-deadline, one malformed) -> drain -> restart on the same
// persist dir -> same requests answered warm with >= 3x fewer
// Simulator::run calls and byte-identical payloads.
TEST(Server, WarmRestartServesFromDiskWithIdenticalPayloads) {
  const TempDir dir("warm");

  const std::vector<std::string> requests = {
      sweep_line("e1", "TRIAD"),
      sweep_line("e2", "COPY"),
      sweep_line("e3", "TRIAD"),  // duplicate content of e1
      sweep_line("e4", "GEMM"),
      sweep_line("e5", "DOT"),
      sweep_line("e6", "COPY"),  // duplicate content of e2
      sweep_line("dead", "MUL", ",\"deadline_ms\":0.001"),
      "{\"id\":\"broken\",\"op\":",  // malformed
  };

  auto run_session = [&](std::map<std::string, std::string>& by_id)
      -> engine::EngineCounters {
    serve::ServerOptions opt;
    opt.jobs = 1;
    opt.warn = false;
    opt.persist_dir = dir.str();
    serve::Server server(opt);
    Collector out;
    for (const auto& line : requests) {
      server.submit_line(line, out.sink());
    }
    server.drain();
    const auto counters = server.engine_counters();
    for (const auto& line : out.snapshot()) {
      const auto doc = parse_response(line);
      const auto* id = response_field(doc, "id");
      EXPECT_NE(id, nullptr) << line;
      const std::string key =
          id && id->kind == obs::JsonValue::Kind::String ? id->string
                                                           : "<null>";
      by_id.emplace(key, line);
    }
    return counters;
  };

  std::map<std::string, std::string> cold, warm;
  const auto cold_counters = run_session(cold);
  const auto warm_counters = run_session(warm);

  ASSERT_EQ(cold.size(), 8u);
  ASSERT_EQ(warm.size(), 8u);

  // Malformed and past-deadline requests fail structurally, never crash.
  EXPECT_NE(cold.at("<null>").find("parse-error"), std::string::npos);
  EXPECT_NE(cold.at("dead").find("deadline-exceeded"), std::string::npos);
  EXPECT_NE(warm.at("dead").find("deadline-exceeded"), std::string::npos);

  // Every response line is byte-identical across the restart.
  for (const auto& [id, line] : cold) {
    EXPECT_EQ(line, warm.at(id)) << "response for id " << id
                                 << " changed across restart";
  }

  // The warm session replays from disk: >= 3x fewer simulator runs
  // (here: zero), everything served by the persistent cache.
  EXPECT_GT(cold_counters.simulations, 0u);
  EXPECT_LE(warm_counters.simulations * 3, cold_counters.simulations);
  EXPECT_EQ(warm_counters.simulations, 0u);
  EXPECT_GT(warm_counters.persist.cache.resumed_points, 0u);
}

TEST(Server, UnixSocketEndToEnd) {
  const TempDir dir("sock");
  const std::string path = dir.str() + "/sgp.sock";

  serve::ServerOptions opt;
  opt.jobs = 1;
  opt.warn = false;
  serve::Server server(opt);
  std::thread listener([&] { server.run_unix_socket(path); });

  // Wait for the socket to appear.
  for (int i = 0; i < 200 && !fs::exists(path); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_TRUE(fs::exists(path));

  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::snprintf(addr.sun_path, sizeof(addr.sun_path), "%s", path.c_str());
  ASSERT_EQ(::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                      sizeof(addr)),
            0);

  const std::string payload = R"({"id":"hi","op":"ping"})"
                              "\n" +
                              sweep_line("sock-sweep", "TRIAD") + "\n" +
                              R"({"id":"off","op":"shutdown"})" + "\n";
  ASSERT_EQ(::send(fd, payload.data(), payload.size(), 0),
            static_cast<ssize_t>(payload.size()));

  // Read until we have 3 response lines (or the server closes).
  std::string buf;
  char chunk[4096];
  while (std::count(buf.begin(), buf.end(), '\n') < 3) {
    const ssize_t n = ::recv(fd, chunk, sizeof chunk, 0);
    if (n <= 0) break;
    buf.append(chunk, static_cast<std::size_t>(n));
  }
  ::close(fd);
  listener.join();

  EXPECT_EQ(std::count(buf.begin(), buf.end(), '\n'), 3);
  EXPECT_NE(buf.find("\"id\":\"hi\""), std::string::npos);
  EXPECT_NE(buf.find("\"id\":\"sock-sweep\""), std::string::npos);
  EXPECT_NE(buf.find("\"id\":\"off\""), std::string::npos);
  EXPECT_FALSE(fs::exists(path));  // unlinked on clean exit
}

// ------------------------------------------------------ fuzz bridge --

TEST(ServeFuzz, RequestFuzzIsCleanAndDeterministic) {
  const auto a = check::fuzz_requests(7000, 64, /*jobs=*/2);
  EXPECT_EQ(a.points, check::fuzz_requests(7000, 64, /*jobs=*/1).points);
  EXPECT_TRUE(a.ok()) << a.violations.size() << " violations, first: "
                      << (a.violations.empty()
                              ? ""
                              : check::to_string(a.violations[0]));
}
