#include "rvv/codegen.hpp"

#include <map>
#include <mutex>
#include <stdexcept>
#include <string>
#include <tuple>

namespace sgp::rvv {

namespace {

Line instr(std::string mnemonic, std::vector<std::string> ops) {
  Line l;
  l.kind = LineKind::Instruction;
  l.mnemonic = std::move(mnemonic);
  l.operands = std::move(ops);
  return l;
}

Line label(const std::string& name) {
  Line l;
  l.kind = LineKind::Label;
  l.text = name + ":";
  return l;
}

/// "(reg)" / "0(reg)" memory operands, built with += to sidestep a
/// GCC 12 -Wrestrict false positive on char* + std::string&&.
std::string paren(const std::string& reg) {
  std::string s = "(";
  s += reg;
  s += ")";
  return s;
}

std::string offset0(const std::string& reg) {
  std::string s = "0(";
  s += reg;
  s += ")";
  return s;
}

std::string sew_token(int sew) {
  std::string t = "e";
  t += std::to_string(sew);
  return t;
}

/// Unit-stride load/store mnemonic for the dialect. In v1.0 accesses are
/// width-typed; in v0.7.1 we use the SEW-relative forms.
std::string mem_mnemonic(bool store, int sew, Dialect d) {
  if (d == Dialect::V1_0) {
    std::string m = store ? "vse" : "vle";
    m += std::to_string(sew);
    m += ".v";
    return m;
  }
  return store ? "vse.v" : "vle.v";
}

}  // namespace

Program emit_loop(const LoopSpec& spec, CodegenMode mode, Dialect d) {
  if (spec.sew != 32 && spec.sew != 64) {
    throw std::invalid_argument("emit_loop: sew must be 32 or 64");
  }
  if (spec.loads < 1 || spec.loads > 4 || spec.stores < 0 ||
      spec.stores > 2) {
    throw std::invalid_argument("emit_loop: unsupported stream count");
  }

  Program p;
  const int vl_elems = spec.vector_bits / spec.sew;
  const int elem_bytes = spec.sew / 8;
  // Pointer registers: a1.. for loads then stores; a0 holds n.
  auto ptr_reg = [](int i) {
    std::string r = "a";
    r += std::to_string(i + 1);
    return r;
  };
  const int streams = spec.loads + spec.stores;

  p.lines.push_back(label(spec.name));
  if (spec.reduction) {
    // Zero the accumulator vector.
    std::vector<std::string> ops{"v8", "v8", "v8"};
    p.lines.push_back(instr("vxor.vv", std::move(ops)));
  }

  if (mode == CodegenMode::VLS) {
    // Hoisted configuration: vl = register width.
    p.lines.push_back(instr("li", {"t0", std::to_string(vl_elems)}));
    if (d == Dialect::V1_0) {
      p.lines.push_back(
          instr("vsetvli", {"zero", "t0", sew_token(spec.sew), "m1", "ta",
                            "ma"}));
    } else {
      p.lines.push_back(
          instr("vsetvli", {"zero", "t0", sew_token(spec.sew), "m1"}));
    }
    // Guard: fewer elements than one strip go straight to the scalar
    // tail (the strip loop is do-while shaped).
    p.lines.push_back(instr("blt", {"a0", "t0", spec.name + "_tail"}));
  }

  p.lines.push_back(label(spec.name + "_loop"));
  if (mode == CodegenMode::VLA) {
    if (d == Dialect::V1_0) {
      p.lines.push_back(instr(
          "vsetvli", {"t0", "a0", sew_token(spec.sew), "m1", "ta", "ma"}));
    } else {
      p.lines.push_back(
          instr("vsetvli", {"t0", "a0", sew_token(spec.sew), "m1"}));
    }
  }

  // Loads.
  for (int i = 0; i < spec.loads; ++i) {
    std::string dst = "v";
    dst += std::to_string(i);
    p.lines.push_back(instr(mem_mnemonic(false, spec.sew, d),
                            {std::move(dst), paren(ptr_reg(i))}));
  }
  // Arithmetic: accumulate into v4 (or v8 for reductions).
  const std::string acc = spec.reduction ? "v8" : "v4";
  for (int i = 0; i < spec.fmacc; ++i) {
    p.lines.push_back(instr("vfmacc.vv", {acc, "v0", "v1"}));
  }
  for (int i = 0; i < spec.fmul; ++i) {
    p.lines.push_back(instr("vfmul.vv", {"v4", "v0", "v1"}));
  }
  for (int i = 0; i < spec.fadd; ++i) {
    p.lines.push_back(instr("vfadd.vv", {"v4", "v4", "v0"}));
  }
  // Stores.
  for (int i = 0; i < spec.stores; ++i) {
    p.lines.push_back(
        instr(mem_mnemonic(true, spec.sew, d),
              {"v4", paren(ptr_reg(spec.loads + i))}));
  }

  // Pointer bumps and trip-count update.
  if (mode == CodegenMode::VLA) {
    // Byte count depends on the vl chosen this strip.
    p.lines.push_back(
        instr("slli", {"t1", "t0",
                       std::to_string(elem_bytes == 4 ? 2 : 3)}));
    for (int i = 0; i < streams; ++i) {
      p.lines.push_back(instr("add", {ptr_reg(i), ptr_reg(i), "t1"}));
    }
    p.lines.push_back(instr("sub", {"a0", "a0", "t0"}));
    p.lines.push_back(instr("bnez", {"a0", spec.name + "_loop"}));
  } else {
    for (int i = 0; i < streams; ++i) {
      p.lines.push_back(instr(
          "addi", {ptr_reg(i), ptr_reg(i),
                   std::to_string(vl_elems * elem_bytes)}));
    }
    std::string neg_vl = "-";
    neg_vl += std::to_string(vl_elems);
    p.lines.push_back(instr("addi", {"a0", "a0", std::move(neg_vl)}));
    p.lines.push_back(instr(
        "bge", {"a0", "t0", spec.name + "_loop"}));  // while n >= vl

    // Scalar tail loop (VLS cannot express partial strips).
    p.lines.push_back(label(spec.name + "_tail"));
    p.lines.push_back(instr("beqz", {"a0", spec.name + "_done"}));
    const std::string fl = spec.sew == 32 ? "flw" : "fld";
    const std::string fs = spec.sew == 32 ? "fsw" : "fsd";
    for (int i = 0; i < spec.loads; ++i) {
      std::string freg = "f";
      freg += std::to_string(i);
      p.lines.push_back(
          instr(fl, {std::move(freg), offset0(ptr_reg(i))}));
    }
    const std::string suffix = spec.sew == 32 ? ".s" : ".d";
    if (spec.fmacc > 0) {
      p.lines.push_back(
          instr("fmadd" + suffix, {"f4", "f0", "f1", "f4"}));
    } else if (spec.fmul > 0) {
      p.lines.push_back(instr("fmul" + suffix, {"f4", "f0", "f1"}));
    } else {
      p.lines.push_back(instr("fadd" + suffix, {"f4", "f4", "f0"}));
    }
    for (int i = 0; i < spec.stores; ++i) {
      p.lines.push_back(
          instr(fs, {"f4", offset0(ptr_reg(spec.loads + i))}));
    }
    for (int i = 0; i < streams; ++i) {
      p.lines.push_back(
          instr("addi", {ptr_reg(i), ptr_reg(i), std::to_string(elem_bytes)}));
    }
    p.lines.push_back(instr("addi", {"a0", "a0", "-1"}));
    p.lines.push_back(instr("bnez", {"a0", spec.name + "_tail"}));
  }

  p.lines.push_back(label(spec.name + "_done"));
  if (spec.reduction) {
    // Fold the accumulator: vfredsum (v0.7.1) / vfredusum (v1.0).
    const std::string red =
        d == Dialect::V1_0 ? "vfredusum.vs" : "vfredsum.vs";
    p.lines.push_back(instr(red, {"v4", "v8", "v4"}));
    p.lines.push_back(instr("vfmv.f.s", {"fa0", "v4"}));
  }
  p.lines.push_back(instr("ret", {}));
  return p;
}

LoopCost loop_cost(const LoopSpec& spec, CodegenMode mode, Dialect d) {
  const Program p = emit_loop(spec, mode, d);
  // Count only the strip-mined loop body (between the _loop label and its
  // backward branch), which dominates dynamic cost.
  LoopCost cost;
  cost.elems_per_strip = spec.vector_bits / spec.sew;
  bool in_loop = false;
  const std::string loop_label = spec.name + "_loop:";
  for (const auto& l : p.lines) {
    if (l.kind == LineKind::Label) {
      if (l.text == loop_label) in_loop = true;
      else if (in_loop) break;  // fell out of the loop body
      continue;
    }
    if (!in_loop || l.kind != LineKind::Instruction) continue;
    if (l.is_vector()) {
      cost.vector_instrs_per_strip += 1;
    } else {
      cost.scalar_instrs_per_strip += 1;
    }
    if (l.mnemonic == "bnez" || l.mnemonic == "bge") break;
  }
  (void)d;
  return cost;
}

LoopCost memoized_loop_cost(const LoopSpec& spec, CodegenMode mode,
                            Dialect d) {
  using Key = std::tuple<std::string, int, int, int, int, int, int, int,
                         bool, CodegenMode, Dialect>;
  static std::mutex mu;
  static std::map<Key, LoopCost> memo;  // guarded by mu
  Key key{spec.name,  spec.sew,  spec.vector_bits, spec.loads,
          spec.stores, spec.fmacc, spec.fadd,        spec.fmul,
          spec.reduction, mode, d};
  const std::lock_guard<std::mutex> lock(mu);
  auto it = memo.find(key);
  if (it == memo.end()) {
    it = memo.emplace(std::move(key), loop_cost(spec, mode, d)).first;
  }
  return it->second;
}

}  // namespace sgp::rvv
