#include "io/bench_reader.hpp"

#include <algorithm>
#include <cctype>
#include <fstream>
#include <sstream>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "util/assert.hpp"

namespace rapids {

namespace {

std::string trim(const std::string& s) {
  std::size_t b = 0, e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return s.substr(b, e - b);
}

struct BenchLine {
  std::string output;
  bool dff = false;
  GateType type = GateType::Buf;  // when !dff
  std::vector<std::string> args;
};

}  // namespace

Network read_bench(std::istream& in) {
  std::vector<std::string> inputs, outputs;
  std::vector<BenchLine> gates;
  // Every signal has one driver (an INPUT, a DFF or a gate) and every
  // OUTPUT is declared once; a second definition would otherwise silently
  // replace the first.
  std::unordered_set<std::string> defined, declared_outputs;
  std::string raw;
  int line_no = 0;
  while (std::getline(in, raw)) {
    ++line_no;
    const std::size_t hash = raw.find('#');
    if (hash != std::string::npos) raw.erase(hash);
    const std::string line = trim(raw);
    if (line.empty()) continue;
    auto fail = [&](const std::string& msg) {
      throw InputError("bench line " + std::to_string(line_no) + ": " + msg);
    };
    auto grab_paren = [&](const std::string& s) {
      const std::size_t l = s.find('('), r = s.rfind(')');
      if (l == std::string::npos || r == std::string::npos || r < l) fail("bad syntax");
      return trim(s.substr(l + 1, r - l - 1));
    };
    auto define = [&](const std::string& name) {
      if (!defined.insert(name).second) fail("signal " + name + " defined twice");
    };
    if (line.rfind("INPUT", 0) == 0) {
      inputs.push_back(grab_paren(line));
      define(inputs.back());
    } else if (line.rfind("OUTPUT", 0) == 0) {
      outputs.push_back(grab_paren(line));
      if (!declared_outputs.insert(outputs.back()).second) {
        fail("output " + outputs.back() + " declared twice");
      }
    } else {
      const std::size_t eq = line.find('=');
      if (eq == std::string::npos) fail("expected '='");
      BenchLine g;
      g.output = trim(line.substr(0, eq));
      define(g.output);
      const std::string rhs = trim(line.substr(eq + 1));
      const std::size_t l = rhs.find('(');
      if (l == std::string::npos) fail("expected '('");
      std::string op = trim(rhs.substr(0, l));
      std::transform(op.begin(), op.end(), op.begin(),
                     [](unsigned char c) { return static_cast<char>(std::toupper(c)); });
      g.dff = op == "DFF";
      if (!g.dff) {
        g.type = gate_type_from_string(op);
        if (!is_logic(g.type)) fail(op + " is not a logic gate");
      }
      std::istringstream args(grab_paren(rhs));
      std::string a;
      while (std::getline(args, a, ',')) g.args.push_back(trim(a));
      // Single-input AND/OR/... stay legal (simplify makes them buffers).
      if ((g.dff || !is_multi_input(g.type)) && g.args.size() != 1) {
        fail(op + " takes exactly one argument");
      }
      if (g.args.empty()) fail(op + " takes at least one argument");
      gates.push_back(std::move(g));
    }
  }

  Network net;
  std::unordered_map<std::string, GateId> signal;
  for (const std::string& name : inputs) {
    signal[name] = net.add_gate(GateType::Input, name);
  }
  // DFF outputs are pseudo-PIs.
  for (const BenchLine& g : gates) {
    if (g.dff) signal[g.output] = net.add_gate(GateType::Input, g.output);
  }

  std::vector<const BenchLine*> pending;
  for (const BenchLine& g : gates) {
    if (!g.dff) pending.push_back(&g);
  }
  auto build = [&](const BenchLine& g) -> bool {
    for (const std::string& a : g.args) {
      if (signal.find(a) == signal.end()) return false;
    }
    const GateId gid = net.add_gate(g.type);
    for (const std::string& a : g.args) net.add_fanin(gid, signal.at(a));
    signal[g.output] = gid;
    return true;
  };
  while (!pending.empty()) {
    std::vector<const BenchLine*> next;
    for (const BenchLine* g : pending) {
      if (!build(*g)) next.push_back(g);
    }
    if (next.size() == pending.size()) {
      throw InputError("bench: unresolved signal feeding " + next.front()->output);
    }
    pending = std::move(next);
  }

  auto add_po = [&net](const std::string& po_name, GateId driver) {
    if (net.find(po_name) != kNullGate) {
      throw InputError("bench: output name " + po_name + " clashes with a signal");
    }
    net.add_fanin(net.add_gate(GateType::Output, po_name), driver);
  };
  for (const std::string& name : outputs) {
    auto it = signal.find(name);
    if (it == signal.end()) throw InputError("bench: undefined output " + name);
    add_po(net.find(name) == kNullGate ? name : name + "$po", it->second);
  }
  // DFF inputs are pseudo-POs.
  for (const BenchLine& g : gates) {
    if (!g.dff) continue;
    auto it = signal.find(g.args[0]);
    if (it == signal.end()) throw InputError("bench: undefined DFF input " + g.args[0]);
    add_po(g.output + "$next", it->second);
  }
  return net;
}

Network read_bench_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw InputError("cannot open bench file: " + path);
  return read_bench(in);
}

}  // namespace rapids
