// The sgp-serve wire protocol: line-delimited JSON requests in, one
// JSON response line per request out (docs/SERVICE.md documents the
// schema; tests/serve_test.cpp and check::fuzz_requests enforce it).
//
// Request validation is strict: unknown fields, wrong types, unknown
// machines/kernels/enum spellings, out-of-range numbers and oversized
// grids are all rejected with a structured error *before* any
// simulation work is admitted — these option structs feed the same
// engine the trusted CLIs use, so the untrusted boundary is here.
#pragma once

#include <chrono>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "core/types.hpp"
#include "machine/placement.hpp"
#include "obs/json.hpp"

namespace sgp::serve {

/// Machine-readable failure classes; the wire form is the kebab-case
/// string from to_string(). Classification is deterministic: the same
/// request line always fails the same way (fuzzed).
enum class ErrorCode {
  ParseError,        ///< line is not valid JSON
  BadRequest,        ///< valid JSON, invalid request
  TooLarge,          ///< line or grid over the configured limits
  DuplicateId,       ///< id collides with an in-flight request
  Overloaded,        ///< queue full; retry later
  DeadlineExceeded,  ///< the request's deadline passed
  ShuttingDown,      ///< server is draining; no new work
  Internal,          ///< unexpected failure while evaluating
};

std::string_view to_string(ErrorCode c) noexcept;

struct ServeError {
  ErrorCode code = ErrorCode::BadRequest;
  std::string message;
};

enum class Op {
  Ping,      ///< liveness check, echoes the id
  Simulate,  ///< one evaluation point, explicit scalar fields
  Sweep,     ///< kernels x precisions x threads grid on one machine
  Metrics,   ///< obs registry snapshot as JSON
  Stats,     ///< server + engine counters as JSON
  Drain,     ///< flush persistent segments; keep serving
  Shutdown,  ///< drain, answer, then stop the server loop
};

std::string_view to_string(Op op) noexcept;

enum class Format { Csv, Json };

/// A validated request. Simulation fields are only meaningful for
/// Op::Simulate / Op::Sweep.
struct Request {
  std::string id;
  Op op = Op::Ping;

  std::string machine;                      ///< canonical machine name
  std::vector<std::string> kernels;         ///< canonical kernel names
  std::vector<core::Precision> precisions;  ///< non-empty for sweeps
  std::vector<int> threads;                 ///< non-empty for sweeps
  core::CompilerId compiler = core::CompilerId::Gcc;
  core::VectorMode vector_mode = core::VectorMode::VLS;
  machine::Placement placement = machine::Placement::Block;
  Format format = Format::Csv;

  /// Deadline in milliseconds from admission; unset = no deadline.
  std::optional<double> deadline_ms;
  /// Absolute deadline, stamped at admission by the server.
  std::chrono::steady_clock::time_point deadline{};

  /// Evaluation points this request expands to (kernels x precisions x
  /// threads); 0 for control ops.
  std::size_t points() const noexcept {
    return kernels.size() * precisions.size() * threads.size();
  }

  /// Content fingerprint over every semantic field except the id —
  /// the request-coalescing key: two requests with equal fingerprints
  /// produce byte-identical payloads, so only one is evaluated.
  std::uint64_t fingerprint() const;
};

struct ProtocolLimits {
  std::size_t max_line_bytes = 1 << 20;   ///< one request line
  std::size_t max_points = 4096;          ///< grid size per request
  std::size_t max_id_bytes = 128;
  double max_deadline_ms = 3600.0 * 1000.0;
  obs::JsonLimits json;
};

/// Parses and validates one request line. The failure side carries the
/// id when one was recoverable from the line (so the error response can
/// still be correlated), as `.first` of the pair.
using ParseOutcome =
    std::variant<Request, std::pair<std::string, ServeError>>;
ParseOutcome parse_request(std::string_view line,
                           const ProtocolLimits& limits);

/// Servable machine names in registration order (sg2042 first):
/// machine::shared_registry()'s current listing — built-ins plus any
/// INI packs registered at startup.
std::vector<std::string> known_machines();

/// Descriptor for a registered machine name; nullptr when unknown. The
/// returned pointer is stable for the life of the process (the server
/// borrows it in engine::SweepPoint); it comes straight from
/// machine::shared_registry().
const machine::MachineDescriptor* machine_by_name(std::string_view name);

// ------------------------------------------------- response lines --

/// {"id":...,"ok":false,"error":{"code":...,"message":...}}; `id`
/// empty renders as null (the line never yielded an id).
std::string render_error(std::string_view id, const ServeError& err);

/// Success envelope with an embedded payload: {"id":...,"ok":true,
/// "op":...,"points":N,"format":...,"payload":"..."} for result ops;
/// `raw_json` fields (metrics/stats) are embedded unquoted.
struct ResponseBody {
  std::size_t points = 0;
  std::optional<Format> format;
  std::optional<std::string> payload;   ///< quoted+escaped on the wire
  std::optional<std::string> raw_json;  ///< pre-rendered JSON object
  std::string raw_key = "stats";        ///< wire key for raw_json
};

std::string render_ok(std::string_view id, Op op, const ResponseBody& body);

}  // namespace sgp::serve
