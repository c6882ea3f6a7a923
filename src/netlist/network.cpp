#include "netlist/network.hpp"

#include <algorithm>
#include <charconv>

namespace rapids {

namespace {

/// Parse "<prefix><digits>" (optionally followed by a "_<digits>" collision
/// suffix) into the id; returns kNullGate on mismatch.
GateId parse_implicit(const std::string& name, char prefix) {
  if (name.size() < 2 || name[0] != prefix) return kNullGate;
  std::uint32_t id = 0;
  const char* first = name.data() + 1;
  const char* last = name.data() + name.size();
  const auto [ptr, ec] = std::from_chars(first, last, id);
  if (ec != std::errc{}) return kNullGate;
  if (ptr != last) {
    if (*ptr != '_' || ptr + 1 == last) return kNullGate;
    std::uint32_t k = 0;
    const auto [p2, ec2] = std::from_chars(ptr + 1, last, k);
    if (ec2 != std::errc{} || p2 != last) return kNullGate;
  }
  return id;
}

}  // namespace

GateId Network::add_gate(GateType type, const std::string& name) {
  ++revision_;
  GateId id;
  if (recycle_ids_ && !free_ids_.empty()) {
    id = free_ids_.back();
    free_ids_.pop_back();
    type_[id] = type;
    cell_[id] = -1;
    deleted_[id] = 0;
    // Adjacency chunks were released on delete; the refs are already empty.
  } else {
    id = static_cast<GateId>(type_.size());
    type_.push_back(type);
    cell_.push_back(-1);
    deleted_.push_back(0);
    fanin_ref_.push_back(ChunkRef{});
    fanout_ref_.push_back(ChunkRef{});
  }
  if (!name.empty()) {
    // find(name) == id when the explicit name equals this gate's own
    // implicit name (e.g. an unnamed-PI round trip names gate 0 "g0");
    // only a match on a DIFFERENT gate is a duplicate.
    const GateId existing = find(name);
    RAPIDS_ASSERT_MSG(existing == kNullGate || existing == id,
                      "duplicate gate name: " + name);
    by_name_.emplace(name, id);
    names_.emplace(id, name);
  }
  ++live_count_;
  if (type == GateType::Input) inputs_.push_back(id);
  if (type == GateType::Output) outputs_.push_back(id);
  return id;
}

void Network::reserve_recycled_ids(std::size_t n) {
  RAPIDS_ASSERT_MSG(recycle_ids_, "reserve_recycled_ids requires recycling mode");
  while (free_ids_.size() < n) {
    ++revision_;
    const GateId id = static_cast<GateId>(type_.size());
    type_.push_back(GateType::Buf);
    cell_.push_back(-1);
    deleted_.push_back(1);
    fanin_ref_.push_back(ChunkRef{});
    fanout_ref_.push_back(ChunkRef{});
    free_ids_.push_back(id);
  }
}

void Network::add_fanin(GateId gate, GateId driver) {
  ++revision_;
  check(gate);
  check(driver);
  RAPIDS_ASSERT(!deleted_[gate] && !deleted_[driver]);
  RAPIDS_ASSERT_MSG(type_[gate] != GateType::Input && type_[gate] != GateType::Const0 &&
                        type_[gate] != GateType::Const1,
                    "boundary gate cannot have fanins");
  const Pin pin{gate, fanin_ref_[gate].cnt};
  fanin_pool_.push(fanin_ref_[gate], driver);
  insert_fanout_entry(driver, pin);
}

void Network::insert_fanout_entry(GateId driver, Pin pin) {
  ChunkRef& r = fanout_ref_[driver];
  fanout_pool_.push(r, pin);
  if (!fanouts_sorted_) return;
  // Sift the appended pin down to its place.
  Pin* fo = fanout_pool_.at(r);
  std::uint32_t i = r.cnt - 1;
  for (; i > 0 && pin < fo[i - 1]; --i) fo[i] = fo[i - 1];
  fo[i] = pin;
}

void Network::remove_fanout_entry(GateId driver, Pin pin) {
  ChunkRef& r = fanout_ref_[driver];
  Pin* fo = fanout_pool_.at(r);
  Pin* const end = fo + r.cnt;
  Pin* const at = std::find(fo, end, pin);
  RAPIDS_ASSERT_MSG(at != end, "fanout list inconsistent");
  if (fanouts_sorted_) {
    std::copy(at + 1, end, at);
  } else {
    *at = end[-1];
  }
  --r.cnt;
}

void Network::set_fanin(Pin pin, GateId new_driver) {
  check(pin.gate);
  ChunkRef& fr = fanin_ref_[pin.gate];
  RAPIDS_ASSERT(pin.index < fr.cnt);
  const GateId old_driver = fanin_pool_.at(fr)[pin.index];
  if (old_driver == new_driver) return;
  ++revision_;
  check(new_driver);
  RAPIDS_ASSERT(!deleted_[new_driver]);
  remove_fanout_entry(old_driver, pin);
  fanin_pool_.at(fr)[pin.index] = new_driver;
  insert_fanout_entry(new_driver, pin);
}

void Network::remove_fanin(GateId gate, std::uint32_t index) {
  ++revision_;
  check(gate);
  ChunkRef& fr = fanin_ref_[gate];
  RAPIDS_ASSERT(index < fr.cnt);
  GateId* fi = fanin_pool_.at(fr);
  remove_fanout_entry(fi[index], Pin{gate, index});
  // Shift the remaining fanins down and re-index their fanout entries.
  // (gate, j) becomes (gate, j - 1) in ascending j, after (gate, j - 1)
  // left or was re-indexed itself, so a sorted list stays sorted.
  for (std::uint32_t j = index + 1; j < fr.cnt; ++j) {
    const GateId d = fi[j];
    ChunkRef& dr = fanout_ref_[d];
    Pin* fo = fanout_pool_.at(dr);
    bool found = false;
    for (std::uint32_t k = 0; k < dr.cnt; ++k) {
      if (fo[k] == Pin{gate, j}) {
        fo[k].index = j - 1;
        found = true;
        break;
      }
    }
    RAPIDS_ASSERT_MSG(found, "fanout list inconsistent during remove_fanin");
    fi[j - 1] = d;
  }
  --fr.cnt;
}

void Network::replace_all_fanouts(GateId from, GateId to) {
  check(to);
  RAPIDS_ASSERT(!deleted_[to]);
  // set_fanin mutates the fanout pool; iterate over a snapshot.
  const auto span = fanouts(from);
  const std::vector<Pin> sinks(span.begin(), span.end());
  for (const Pin& pin : sinks) set_fanin(pin, to);
}

void Network::delete_gate(GateId gate) {
  ++revision_;
  check(gate);
  RAPIDS_ASSERT(!deleted_[gate]);
  RAPIDS_ASSERT_MSG(fanout_ref_[gate].cnt == 0,
                    "cannot delete a gate that still drives pins");
  ChunkRef& fr = fanin_ref_[gate];
  for (std::uint32_t i = 0; i < fr.cnt; ++i) {
    remove_fanout_entry(fanin_pool_.at(fr)[i], Pin{gate, i});
  }
  fanin_pool_.release(fr);
  fanout_pool_.release(fanout_ref_[gate]);
  deleted_[gate] = 1;
  --live_count_;
  if (auto it = names_.find(gate); it != names_.end()) {
    by_name_.erase(it->second);
    names_.erase(it);
  }
  if (type_[gate] == GateType::Input) {
    inputs_.erase(std::remove(inputs_.begin(), inputs_.end(), gate), inputs_.end());
  }
  if (type_[gate] == GateType::Output) {
    outputs_.erase(std::remove(outputs_.begin(), outputs_.end(), gate), outputs_.end());
  }
  if (recycle_ids_) free_ids_.push_back(gate);
}

void Network::sort_fanouts() {
  if (fanouts_sorted_) return;
  for (GateId g = 0; g < type_.size(); ++g) {
    const ChunkRef& r = fanout_ref_[g];
    Pin* p = fanout_pool_.at(r);
    std::sort(p, p + r.cnt);
  }
  fanouts_sorted_ = true;
}

void Network::set_type(GateId gate, GateType type) {
  check(gate);
  RAPIDS_ASSERT_MSG(is_logic(type_[gate]) && is_logic(type),
                    "set_type only rewrites logic gates");
  if (!is_multi_input(type)) {
    RAPIDS_ASSERT(fanin_ref_[gate].cnt == 1);
  } else {
    RAPIDS_ASSERT(fanin_ref_[gate].cnt >= 2);
  }
  type_[gate] = type;
}

GateId Network::po_driver(GateId po) const {
  RAPIDS_ASSERT(type(po) == GateType::Output);
  RAPIDS_ASSERT(fanin_count(po) == 1);
  return fanin(po, 0);
}

std::size_t Network::num_logic_gates() const {
  std::size_t n = 0;
  for (GateId id = 0; id < type_.size(); ++id) {
    if (!deleted_[id] && is_logic(type_[id])) ++n;
  }
  return n;
}

std::string Network::implicit_name(GateId gate) const {
  const std::string primary = "g" + std::to_string(gate);
  if (!by_name_.contains(primary)) return primary;
  // Some other gate explicitly claimed "g<id>"; fall back to "u<id>", then
  // "u<id>_<k>" until a free name is found (explicit names are finite, so
  // this terminates).
  std::string fallback = "u" + std::to_string(gate);
  for (std::uint32_t k = 1; by_name_.contains(fallback); ++k) {
    fallback = "u" + std::to_string(gate) + "_" + std::to_string(k);
  }
  return fallback;
}

std::string Network::name(GateId gate) const {
  check(gate);
  if (auto it = names_.find(gate); it != names_.end()) return it->second;
  return implicit_name(gate);
}

GateId Network::find(const std::string& name) const {
  if (auto it = by_name_.find(name); it != by_name_.end()) return it->second;
  for (const char prefix : {'g', 'u'}) {
    const GateId id = parse_implicit(name, prefix);
    if (id != kNullGate && id < type_.size() && !deleted_[id] &&
        !names_.contains(id) && implicit_name(id) == name) {
      return id;
    }
  }
  return kNullGate;
}

void Network::rename(GateId gate, const std::string& name) {
  check(gate);
  RAPIDS_ASSERT(!name.empty());
  if (auto cur = names_.find(gate); cur != names_.end() && cur->second == name) {
    return;  // renaming to the current explicit name is a no-op
  }
  RAPIDS_ASSERT_MSG(find(name) == kNullGate || find(name) == gate,
                    "duplicate gate name: " + name);
  // The check above leaves only insertable cases: an unused name, or the
  // gate's own implicit name (absent from by_name_ by construction).
  by_name_.emplace(name, gate);
  if (auto old = names_.find(gate); old != names_.end()) {
    by_name_.erase(old->second);
    old->second = name;
  } else {
    names_.emplace(gate, name);
  }
}

Network Network::clone() const { return *this; }

std::size_t Network::sweep_dangling() {
  // Iteratively delete logic gates with no fanouts (Outputs keep their cone
  // alive; Inputs are never deleted so the interface stays stable).
  std::size_t removed = 0;
  bool changed = true;
  while (changed) {
    changed = false;
    for (GateId id = 0; id < type_.size(); ++id) {
      if (deleted_[id] || !is_logic(type_[id])) continue;
      if (fanout_ref_[id].cnt == 0) {
        delete_gate(id);
        ++removed;
        changed = true;
      }
    }
  }
  return removed;
}

std::vector<std::size_t> Network::type_histogram() const {
  std::vector<std::size_t> hist(kNumGateTypes, 0);
  for (GateId id = 0; id < type_.size(); ++id) {
    if (!deleted_[id]) ++hist[static_cast<std::size_t>(type_[id])];
  }
  return hist;
}

}  // namespace rapids
