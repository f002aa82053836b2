#include "serve/protocol.hpp"

#include <algorithm>
#include <map>
#include <mutex>
#include <set>
#include <utility>

#include "engine/fingerprint.hpp"
#include "kernels/register_all.hpp"
#include "machine/descriptor.hpp"
#include "machine/registry.hpp"
#include "obs/json.hpp"
#include "serve/json.hpp"

namespace sgp::serve {

std::string_view to_string(ErrorCode c) noexcept {
  switch (c) {
    case ErrorCode::ParseError:       return "parse-error";
    case ErrorCode::BadRequest:       return "bad-request";
    case ErrorCode::TooLarge:         return "too-large";
    case ErrorCode::DuplicateId:      return "duplicate-id";
    case ErrorCode::Overloaded:       return "overloaded";
    case ErrorCode::DeadlineExceeded: return "deadline-exceeded";
    case ErrorCode::ShuttingDown:     return "shutting-down";
    case ErrorCode::Internal:         return "internal";
  }
  return "?";
}

std::string_view to_string(Op op) noexcept {
  switch (op) {
    case Op::Ping:     return "ping";
    case Op::Simulate: return "simulate";
    case Op::Sweep:    return "sweep";
    case Op::Metrics:  return "metrics";
    case Op::Stats:    return "stats";
    case Op::Drain:    return "drain";
    case Op::Shutdown: return "shutdown";
  }
  return "?";
}

std::vector<std::string> known_machines() {
  return machine::shared_registry().names();
}

namespace {

/// Registry-backed kernel name validation with did-you-mean.
const core::Registry& kernel_registry() {
  static const core::Registry reg = kernels::make_registry();
  return reg;
}

struct FieldError {
  ServeError err;
};

[[noreturn]] void bad(std::string message) {
  throw FieldError{{ErrorCode::BadRequest, std::move(message)}};
}

[[noreturn]] void too_large(std::string message) {
  throw FieldError{{ErrorCode::TooLarge, std::move(message)}};
}

std::string field_str(const obs::JsonValue& v, std::string_view name,
                      std::size_t max_bytes) {
  if (!v.is_string()) {
    bad("field '" + std::string(name) + "' must be a string");
  }
  if (v.string.empty()) {
    bad("field '" + std::string(name) + "' must not be empty");
  }
  if (v.string.size() > max_bytes) {
    too_large("field '" + std::string(name) + "' exceeds " +
              std::to_string(max_bytes) + " bytes");
  }
  return v.string;
}

/// Strict unsigned-integer field: a JSON number whose *raw token*
/// round-trips through the shared parse_u64 parser — "-1", "4.0" and
/// "1e3" are all rejected, and values above 2^53 keep full precision
/// (the same parser suite_cli's --inject-seed now uses).
std::uint64_t field_u64(const obs::JsonValue& v, std::string_view name,
                        std::uint64_t max_value) {
  std::optional<std::uint64_t> parsed;
  if (v.is_number()) {
    parsed = parse_u64(v.raw);
  } else if (v.is_string()) {
    parsed = parse_u64(v.string);
  }
  if (!parsed) {
    bad("field '" + std::string(name) +
        "' must be a non-negative integer");
  }
  if (*parsed > max_value) {
    bad("field '" + std::string(name) + "' must be <= " +
        std::to_string(max_value));
  }
  return *parsed;
}

double field_pos_double(const obs::JsonValue& v, std::string_view name,
                        double max_value) {
  if (!v.is_number() || !(v.number > 0.0)) {
    bad("field '" + std::string(name) + "' must be a positive number");
  }
  if (v.number > max_value) {
    bad("field '" + std::string(name) + "' must be <= " +
        obs::json_number(max_value));
  }
  return v.number;
}

Op parse_op(const std::string& s) {
  for (const Op op : {Op::Ping, Op::Simulate, Op::Sweep, Op::Metrics,
                      Op::Stats, Op::Drain, Op::Shutdown}) {
    if (s == to_string(op)) return op;
  }
  bad("unknown op '" + s + "'");
}

std::vector<core::Precision> parse_precision(const std::string& s) {
  if (s == "fp32") return {core::Precision::FP32};
  if (s == "fp64") return {core::Precision::FP64};
  if (s == "both") {
    return {core::Precision::FP32, core::Precision::FP64};
  }
  bad("unknown precision '" + s + "' (fp32 | fp64 | both)");
}

core::CompilerId parse_compiler(const std::string& s) {
  if (s == "gcc") return core::CompilerId::Gcc;
  if (s == "clang") return core::CompilerId::Clang;
  bad("unknown compiler '" + s + "' (gcc | clang)");
}

core::VectorMode parse_vector_mode(const std::string& s) {
  if (s == "scalar") return core::VectorMode::Scalar;
  if (s == "vls") return core::VectorMode::VLS;
  if (s == "vla") return core::VectorMode::VLA;
  bad("unknown vector mode '" + s + "' (scalar | vls | vla)");
}

machine::Placement parse_placement(const std::string& s) {
  for (const auto p : machine::all_placements) {
    if (s == machine::to_string(p)) return p;
  }
  bad("unknown placement '" + s + "' (block | cyclic | cluster)");
}

Format parse_format(const std::string& s) {
  if (s == "csv") return Format::Csv;
  if (s == "json") return Format::Json;
  bad("unknown format '" + s + "' (csv | json)");
}

/// Fields every op accepts; simulation ops accept the rest too.
bool is_simulation_field(std::string_view k) {
  return k == "machine" || k == "kernel" || k == "kernels" ||
         k == "precision" || k == "threads" || k == "compiler" ||
         k == "vector" || k == "placement" || k == "format";
}

Request build_request(const obs::JsonValue& root,
                      const ProtocolLimits& limits) {
  Request req;
  const obs::JsonValue* id = root.find("id");
  if (id == nullptr) bad("missing field 'id'");
  req.id = field_str(*id, "id", limits.max_id_bytes);
  const obs::JsonValue* op = root.find("op");
  if (op == nullptr) bad("missing field 'op'");
  req.op = parse_op(field_str(*op, "op", 32));

  const bool sim_op = req.op == Op::Simulate || req.op == Op::Sweep;
  for (const auto& [key, value] : root.object) {
    (void)value;
    if (key == "id" || key == "op" || key == "deadline_ms") continue;
    if (sim_op && is_simulation_field(key)) continue;
    bad("unknown field '" + key + "' for op '" +
        std::string(to_string(req.op)) + "'");
  }

  if (const obs::JsonValue* dl = root.find("deadline_ms")) {
    req.deadline_ms = field_pos_double(*dl, "deadline_ms",
                                       limits.max_deadline_ms);
  }
  if (!sim_op) return req;

  // ------------------------------------------ simulation fields --
  const obs::JsonValue* mach = root.find("machine");
  if (mach == nullptr) bad("missing field 'machine'");
  req.machine = field_str(*mach, "machine", 64);
  const auto& registry = machine::shared_registry();
  if (!registry.contains(req.machine)) {
    std::string known;
    for (const auto& name : registry.names()) {
      known += known.empty() ? name : " | " + name;
    }
    std::string msg = "unknown machine '" + req.machine + "' (" + known + ")";
    const std::string hint = registry.closest(req.machine);
    if (!hint.empty()) msg += "; did you mean '" + hint + "'?";
    bad(msg);
  }
  const int num_cores = registry.descriptor(req.machine).num_cores;

  if (root.find("kernel") != nullptr && root.find("kernels") != nullptr) {
    bad("fields 'kernel' and 'kernels' are mutually exclusive");
  }
  if (const obs::JsonValue* k = root.find("kernel")) {
    req.kernels.push_back(field_str(*k, "kernel", 64));
  } else if (const obs::JsonValue* ks = root.find("kernels")) {
    if (!ks->is_array() || ks->array.empty()) {
      bad("field 'kernels' must be a non-empty array of kernel names");
    }
    for (const auto& k : ks->array) {
      req.kernels.push_back(field_str(k, "kernels[]", 64));
    }
  } else {
    req.kernels = kernel_registry().names();  // default: the full suite
  }
  std::set<std::string> seen;
  for (const auto& k : req.kernels) {
    if (!kernel_registry().contains(k)) {
      const std::string close = kernel_registry().closest(k);
      bad("unknown kernel '" + k + "'" +
          (close.empty() ? "" : " (did you mean '" + close + "'?)"));
    }
    if (!seen.insert(k).second) bad("duplicate kernel '" + k + "'");
  }

  req.precisions = {core::Precision::FP32, core::Precision::FP64};
  if (const obs::JsonValue* p = root.find("precision")) {
    req.precisions = parse_precision(field_str(*p, "precision", 16));
  }
  req.threads = {1};
  if (const obs::JsonValue* t = root.find("threads")) {
    req.threads.clear();
    if (t->is_array()) {
      if (t->array.empty()) {
        bad("field 'threads' must not be an empty array");
      }
      for (const auto& e : t->array) {
        req.threads.push_back(static_cast<int>(
            field_u64(e, "threads[]", static_cast<std::uint64_t>(
                                          num_cores))));
      }
    } else {
      req.threads.push_back(static_cast<int>(field_u64(
          *t, "threads", static_cast<std::uint64_t>(num_cores))));
    }
    std::set<int> tseen;
    for (const int n : req.threads) {
      if (n < 1) bad("field 'threads' entries must be >= 1");
      if (!tseen.insert(n).second) {
        bad("duplicate thread count " + std::to_string(n));
      }
    }
  }
  if (const obs::JsonValue* c = root.find("compiler")) {
    req.compiler = parse_compiler(field_str(*c, "compiler", 16));
  }
  if (const obs::JsonValue* v = root.find("vector")) {
    req.vector_mode = parse_vector_mode(field_str(*v, "vector", 16));
  }
  // compiler::plan refuses this pair; the compiler defaults to gcc, so
  // a bare "vector":"vla" lands here too.
  if (req.vector_mode == core::VectorMode::VLA &&
      req.compiler == core::CompilerId::Gcc) {
    bad("vector mode 'vla' needs compiler 'clang': GCC only generates "
        "VLS RVV code (valid pairs: gcc with scalar | vls, clang with "
        "scalar | vls | vla)");
  }
  if (const obs::JsonValue* p = root.find("placement")) {
    req.placement = parse_placement(field_str(*p, "placement", 16));
  }
  if (const obs::JsonValue* f = root.find("format")) {
    req.format = parse_format(field_str(*f, "format", 16));
  }
  if (req.op == Op::Simulate && req.points() != 1) {
    bad("op 'simulate' takes exactly one kernel, precision and thread "
        "count (" + std::to_string(req.points()) +
        " points requested; use op 'sweep')");
  }
  if (req.points() > limits.max_points) {
    too_large("request expands to " + std::to_string(req.points()) +
              " evaluation points (limit " +
              std::to_string(limits.max_points) + ")");
  }
  return req;
}

}  // namespace

const machine::MachineDescriptor* machine_by_name(std::string_view name) {
  const auto& registry = machine::shared_registry();
  if (!registry.contains(name)) return nullptr;
  return &registry.descriptor(name);
}

std::uint64_t Request::fingerprint() const {
  engine::Fnv1a fp;
  fp.str(to_string(op));
  fp.str(machine);
  fp.u64(kernels.size());
  for (const auto& k : kernels) fp.str(k);
  fp.u64(precisions.size());
  for (const auto p : precisions) fp.str(core::to_string(p));
  fp.u64(threads.size());
  for (const int t : threads) fp.i32(t);
  fp.str(core::to_string(compiler));
  fp.str(core::to_string(vector_mode));
  fp.str(machine::to_string(placement));
  fp.str(format == Format::Csv ? "csv" : "json");
  return fp.digest();
}

ParseOutcome parse_request(std::string_view line,
                           const ProtocolLimits& limits) {
  if (line.size() > limits.max_line_bytes) {
    return std::make_pair(
        std::string(),
        ServeError{ErrorCode::TooLarge,
                   "request line exceeds " +
                       std::to_string(limits.max_line_bytes) + " bytes"});
  }
  const obs::JsonParse parsed = obs::json_parse(line, limits.json);
  if (!parsed.ok()) {
    return std::make_pair(
        std::string(),
        ServeError{ErrorCode::ParseError,
                   parsed.error + " (near byte " +
                       std::to_string(parsed.offset) + ")"});
  }
  if (!parsed.value->is_object()) {
    return std::make_pair(
        std::string(),
        ServeError{ErrorCode::BadRequest, "request must be a JSON object"});
  }
  // Recover the id for error correlation even when validation fails.
  std::string id;
  if (const obs::JsonValue* v = parsed.value->find("id");
      v != nullptr && v->is_string() &&
      v->string.size() <= limits.max_id_bytes) {
    id = v->string;
  }
  try {
    return build_request(*parsed.value, limits);
  } catch (const FieldError& e) {
    return std::make_pair(id, e.err);
  }
}

std::string render_error(std::string_view id, const ServeError& err) {
  std::string out = "{\"id\":";
  out += id.empty() ? "null" : obs::json_quote(id);
  out += ",\"ok\":false,\"error\":{\"code\":";
  out += obs::json_quote(to_string(err.code));
  out += ",\"message\":";
  out += obs::json_quote(err.message);
  out += "}}";
  return out;
}

std::string render_ok(std::string_view id, Op op,
                      const ResponseBody& body) {
  std::string out = "{\"id\":";
  out += obs::json_quote(id);
  out += ",\"ok\":true,\"op\":";
  out += obs::json_quote(to_string(op));
  if (body.points > 0) {
    out += ",\"points\":";
    out += obs::json_number(static_cast<std::uint64_t>(body.points));
  }
  if (body.format) {
    out += ",\"format\":";
    out += obs::json_quote(*body.format == Format::Csv ? "csv" : "json");
  }
  if (body.raw_json) {
    out += ",\"" + body.raw_key + "\":";
    out += *body.raw_json;
  }
  if (body.payload) {
    out += ",\"payload\":";
    out += obs::json_quote(*body.payload);
  }
  out += "}";
  return out;
}

}  // namespace sgp::serve
