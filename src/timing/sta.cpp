#include "timing/sta.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>

#include "netlist/topo.hpp"
#include "util/assert.hpp"

namespace rapids {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();
// level_ of an id that was not a live gate when levels were last computed:
// a tombstone, or a slot grown since. An id minted mid-transaction reads
// this whether it was recycled or grown, so a probe's worklist order and
// damping never depend on which of the two the id allocator chose.
constexpr int kUnlevelled = std::numeric_limits<int>::max();
// Slack between the backward margin recurrences (subtractions) and forward
// propagation (additions): see refresh_damping_margins. Both the damping
// ceilings and the critical-cap lower bound give it away.
constexpr double kDampGuard = 1e-6;

// Propagation terminates on BIT-EXACT equality: recompute_arrival is a pure
// function of fanin arrivals and delays, so gates outside the true
// disturbance cone recompute bit-identically and drop out of the worklist —
// incremental propagation is bitwise equal to a full recompute, with no
// epsilon drift to paper over.
bool differs(const RiseFall& a, const RiseFall& b) {
  return a.rise != b.rise || a.fall != b.fall;
}
}  // namespace

Sta::Sta(const Network& net, const CellLibrary& lib, const Placement& pl,
         const StaOptions& options)
    : net_(net), lib_(lib), pl_(pl), options_(options) {
  run_full();
  if (options_.required_time >= 0.0) {
    required_time_ = options_.required_time;
  } else {
    required_time_ = critical_delay_;
  }
  refresh_required();
}

Sta::Sta(const Network& net, const CellLibrary& lib, const Placement& pl,
         const StaOptions& options, DeferInit)
    : net_(net), lib_(lib), pl_(pl), options_(options) {}

void Sta::copy_state_from(const Sta& other) {
  RAPIDS_ASSERT_MSG(!in_txn_ && !other.in_txn_,
                    "copy_state_from requires both analyses outside transactions");
  RAPIDS_ASSERT_MSG(net_.id_bound() == other.net_.id_bound(),
                    "copy_state_from requires identically sized networks");
  nets_ = other.nets_;
  arrival_ = other.arrival_;
  pin_delay_ = other.pin_delay_;
  pin_stride_ = other.pin_stride_;
  critical_delay_ = other.critical_delay_;
  required_time_ = other.required_time_;
  // required_ stays as it was: a replica never reads slacks.
  required_valid_ = false;
  // Full options, not just pads: a later run_full() on the adopted Sta
  // must re-resolve the SAME required-time policy as the source.
  options_ = other.options_;
  state_version_ = other.state_version_;
  level_ = other.level_;
  req_damp_ = other.req_damp_;
  tail_ = other.tail_;
  margins_valid_ = other.margins_valid_;
  size_worklist(other.buckets_.size());
  const std::size_t n = net_.id_bound();
  net_dirty_.assign(n, false);
  queued_.assign(n, 0);
  arrival_saved_.assign(n, false);
  net_saved_.assign(n, false);
  saved_arrivals_.clear();
  saved_net_count_ = 0;
  txn_dirty_nets_.clear();
  seeds_.clear();
}

void Sta::rebuild_net(GateId driver) {
  StarNet& star = nets_[driver];
  build_star_net_into(star, net_, lib_, pl_, driver, options_.pads);
  for (const StarBranch& b : star.branches) {
    RAPIDS_ASSERT_MSG(b.pin.index < pin_stride_,
                      "gate gained fanins beyond the run_full() bound");
    pin_delay_[b.pin.gate * pin_stride_ + b.pin.index] = b.wire_delay;
  }
}

void Sta::recompute_arrival(GateId g, RiseFall& out) const {
  const GateType t = net_.type(g);
  out = RiseFall{0.0, 0.0};
  switch (t) {
    case GateType::Const0:
    case GateType::Const1:
      return;  // constants arrive at time 0
    case GateType::Input: {
      // Input pad drives its net with a fixed pad resistance.
      const double load = nets_[g].total_cap();
      const double d = options_.pads.pad_drive_res * load;
      out = RiseFall{d, d};
      return;
    }
    case GateType::Output: {
      const GateId d = net_.fanin(g, 0);
      const double wire = pin_delay_[g * pin_stride_];
      const RiseFall a = arrival_[d];
      out = RiseFall{a.rise + wire, a.fall + wire};
      return;
    }
    default: {
      const std::int32_t ci = net_.cell(g);
      RAPIDS_ASSERT_MSG(ci >= 0, "STA requires mapped gate: " + net_.name(g));
      const Cell& cell = lib_.cell(ci);
      const double load = nets_[g].total_cap();
      const RiseFall d = gate_delay(cell, load);
      const ArcSense sense = arc_sense(t);
      RiseFall acc{-kInf, -kInf};
      const auto fanins = net_.fanins(g);
      const double* wires = pin_delay_.data() + g * pin_stride_;
      for (std::uint32_t i = 0; i < fanins.size(); ++i) {
        const GateId f = fanins[i];
        const double wire = wires[i];
        const RiseFall pin{arrival_[f].rise + wire, arrival_[f].fall + wire};
        accumulate_arc(sense, pin, d, acc);
      }
      out = acc;
      return;
    }
  }
}

double Sta::recompute_critical() const {
  double worst = 0.0;
  for (const GateId po : net_.primary_outputs()) {
    worst = std::max(worst, arrival_[po].worst());
  }
  return worst;
}

void Sta::run_full() {
  const std::size_t n = net_.id_bound();
  nets_.assign(n, StarNet{});
  arrival_.assign(n, RiseFall{});
  required_.assign(n, RiseFall{});
  net_dirty_.assign(n, false);
  queued_.assign(n, 0);
  arrival_saved_.assign(n, false);
  net_saved_.assign(n, false);
  pin_stride_ = 1;
  net_.for_each_gate([&](GateId g) {
    pin_stride_ = std::max(pin_stride_, net_.fanin_count(g));
  });
  pin_delay_.assign(n * pin_stride_, 0.0);
  net_.for_each_gate([&](GateId g) {
    if (net_.fanout_count(g) > 0) rebuild_net(g);
  });
  // Forward levels ride the same topological walk: propagate() orders its
  // worklist by them, so they must exist before the first transaction.
  level_.assign(n, kUnlevelled);
  int max_level = 0;
  for (const GateId g : topological_order(net_)) {
    recompute_arrival(g, arrival_[g]);
    level_[g] = forward_level(g);
    max_level = std::max(max_level, level_[g]);
  }
  size_worklist(2 * static_cast<std::size_t>(max_level) + 3);
  critical_delay_ = recompute_critical();
  required_valid_ = false;
  margins_valid_ = false;
  ++state_version_;
}

double Sta::slack(GateId g) const {
  RAPIDS_ASSERT_MSG(required_valid_, "slacks stale: call refresh_required()");
  const RiseFall r = required_[g];
  const RiseFall a = arrival_[g];
  return std::min(r.rise - a.rise, r.fall - a.fall);
}

double Sta::worst_slack() const {
  double worst = kInf;
  net_.for_each_gate([&](GateId g) {
    if (is_logic(net_.type(g)) || net_.type(g) == GateType::Output) {
      worst = std::min(worst, slack(g));
    }
  });
  return worst;
}

double Sta::total_negative_slack() const {
  double total = 0.0;
  for (const GateId po : net_.primary_outputs()) {
    const double s = slack(po);
    if (s < 0) total += s;
  }
  return total;
}

double Sta::sum_po_arrival() const {
  double total = 0.0;
  for (const GateId po : net_.primary_outputs()) total += arrival_[po].worst();
  return total;
}

std::vector<GateId> Sta::critical_path() const {
  // Transition-aware backtrace: follow, per gate, the (fanin, transition)
  // whose wire-adjusted arrival plus the gate's arc delay reproduces this
  // gate's arrival in the traced transition. Greedy max is exact because
  // arrivals are max-compositions of the same arcs.
  GateId worst_po = kNullGate;
  double worst = -kInf;
  for (const GateId po : net_.primary_outputs()) {
    if (arrival_[po].worst() > worst) {
      worst = arrival_[po].worst();
      worst_po = po;
    }
  }
  std::vector<GateId> path;
  if (worst_po == kNullGate) return path;

  GateId g = worst_po;
  bool rising = arrival_[g].rise >= arrival_[g].fall;
  path.push_back(g);
  while (net_.fanin_count(g) > 0) {
    const GateType t = net_.type(g);
    GateId best = kNullGate;
    bool best_rising = rising;
    double best_arrival = -kInf;
    const auto fanins = net_.fanins(g);
    if (t == GateType::Output) {
      best = fanins[0];  // wire-only hop keeps the transition
    } else {
      const ArcSense sense = arc_sense(t);
      for (std::uint32_t i = 0; i < fanins.size(); ++i) {
        const GateId f = fanins[i];
        const double wire = nets_[f].delay_to(Pin{g, i});
        // Input transitions that can produce an output transition `rising`.
        for (const bool in_rising : {true, false}) {
          const bool reachable =
              sense == ArcSense::Both ||
              (sense == ArcSense::Positive && in_rising == rising) ||
              (sense == ArcSense::Negative && in_rising != rising);
          if (!reachable) continue;
          const double a =
              (in_rising ? arrival_[f].rise : arrival_[f].fall) + wire;
          if (a > best_arrival) {
            best_arrival = a;
            best = f;
            best_rising = in_rising;
          }
        }
      }
    }
    RAPIDS_ASSERT(best != kNullGate);
    g = best;
    rising = best_rising;
    path.push_back(g);
    if (net_.type(g) == GateType::Input || net_.type(g) == GateType::Const0 ||
        net_.type(g) == GateType::Const1) {
      break;
    }
  }
  std::reverse(path.begin(), path.end());
  return path;
}

void Sta::begin() {
  RAPIDS_ASSERT_MSG(!in_txn_, "nested STA transactions are not supported");
  in_txn_ = true;
  saved_critical_ = critical_delay_;
  saved_arrivals_.clear();
  saved_net_count_ = 0;
  txn_dirty_nets_.clear();
  seeds_.clear();
  txn_max_dirty_level_ = 0;
}

void Sta::save_arrival(GateId g) {
  if (arrival_saved_[g]) return;
  arrival_saved_[g] = true;
  saved_arrivals_.emplace_back(g, arrival_[g]);
}

void Sta::save_net(GateId driver) {
  if (net_saved_[driver]) return;
  net_saved_[driver] = true;
  // Reuse journal slots: copy-assignment into an existing slot keeps its
  // branch-vector capacity, so steady-state probing never allocates here.
  if (saved_net_count_ < saved_nets_.size()) {
    auto& slot = saved_nets_[saved_net_count_];
    slot.first = driver;
    slot.second = nets_[driver];
  } else {
    saved_nets_.emplace_back(driver, nets_[driver]);
  }
  ++saved_net_count_;
}

void Sta::grow() {
  const std::size_t n = net_.id_bound();
  if (nets_.size() >= n) return;
  nets_.resize(n);
  arrival_.resize(n);
  required_.resize(n);
  net_dirty_.resize(n, false);
  queued_.resize(n, 0);
  arrival_saved_.resize(n, false);
  net_saved_.resize(n, false);
  pin_delay_.resize(n * pin_stride_, 0.0);
  // Slots minted after the last level computation must never be
  // suppressed: a -inf ceiling fails the fresh <= req_damp test.
  level_.resize(n, kUnlevelled);
  req_damp_.resize(n, RiseFall{-kInf, -kInf});
  // Nor may they bound a probe: a +inf tail makes the lower bound -inf.
  tail_.resize(n, RiseFall{kInf, kInf});
}

int Sta::forward_level(GateId g) const {
  int lv = 0;
  for (const GateId f : net_.fanins(g)) lv = std::max(lv, level_[f] + 1);
  return lv;
}

void Sta::size_worklist(std::size_t num_buckets) {
  buckets_.resize(num_buckets);
  occupied_.assign((num_buckets + 63) / 64, 0);
}

std::size_t Sta::worklist_bucket(GateId g) const {
  const std::size_t last = buckets_.size() - 1;
  const auto level_of = [&](GateId h) { return h < level_.size() ? level_[h] : kUnlevelled; };
  if (level_of(g) != kUnlevelled) return 2 * static_cast<std::size_t>(level_of(g));
  // Minted in this transaction (an inserted inverter): the odd bucket right
  // after its deepest fanin's, so it settles after its driver and before
  // the next level, and shares a bucket with no levelled gate. (Were it
  // filed last instead, its sinks would be recomputed twice.)
  int lv = 0;
  for (const GateId f : net_.fanins(g)) {
    if (level_of(f) == kUnlevelled) return last;
    lv = std::max(lv, level_of(f));
  }
  return 2 * static_cast<std::size_t>(lv) + 1;
}

void Sta::note_dirty_level(GateId g) {
  // While margins are valid, an unlevelled seed is a gate minted in this
  // transaction (an inserted inverter). Every new path through it starts at
  // a driver whose net gained the sink, so that driver's invalidate_net
  // already records the level that guards everything upstream.
  const int lv = g < level_.size() ? level_[g] : kUnlevelled;
  if (lv != kUnlevelled) txn_max_dirty_level_ = std::max(txn_max_dirty_level_, lv);
}

void Sta::invalidate_net(GateId driver) {
  RAPIDS_ASSERT(in_txn_);
  grow();
  save_net(driver);
  rebuild_net(driver);
  if (!net_dirty_[driver]) {
    net_dirty_[driver] = true;
    txn_dirty_nets_.push_back(driver);
  }
  note_dirty_level(driver);
  seeds_.push_back(driver);
}

void Sta::touch_gate(GateId g) {
  RAPIDS_ASSERT(in_txn_);
  grow();
  note_dirty_level(g);
  seeds_.push_back(g);
}

bool Sta::propagate(double critical_cap) {
  RAPIDS_ASSERT(in_txn_);
  RAPIDS_ASSERT_MSG(!buckets_.empty(), "propagate before run_full/copy_state_from");
  // Worklist relaxation to the fixed point. Seeds are recomputed
  // unconditionally; a gate's fanouts are pushed when its arrival changed
  // (or its net RC changed, which shifts wire delay at the sinks). The
  // worklist is bucketed by forward level (see worklist_bucket) and drained
  // one whole bucket at a time, lowest first; queued_ keeps a gate in at
  // most one bucket. With levels that match the topology, every fanin of a
  // gate is final before its bucket is drained, so each gate is recomputed
  // once per drain, whatever order a bucket holds. Levels go stale between
  // a committed rewiring and the next run_full / margin refresh, and inside
  // a transaction that rewires pins: a push into the current or a lower
  // bucket is then drained in a later round, which costs pops but never
  // the fixed point. The buckets are member scratch, so a probe allocates
  // nothing, and the occupancy bitmap finds the next non-empty bucket
  // without walking the empty ones.
  deferred_.clear();
  std::size_t lo = buckets_.size();  // no bucket below lo is occupied
  bool filed_last = false;  // a gate went to the last (unlevelled) bucket
  auto push = [&](GateId g) {
    if (queued_[g]) return;
    queued_[g] = 1;
    const std::size_t b = worklist_bucket(g);
    filed_last |= b + 1 == buckets_.size();
    buckets_[b].push_back(g);
    occupied_[b / 64] |= std::uint64_t{1} << (b % 64);
    lo = std::min(lo, b);
  };
  const auto lowest_occupied = [&] {
    for (std::size_t w = lo / 64; w < occupied_.size(); ++w) {
      if (occupied_[w] != 0) return w * 64 + std::countr_zero(occupied_[w]);
    }
    return buckets_.size();
  };
  // The next gate to recompute: the rest of the current bucket, else the
  // lowest occupied bucket, taken whole. A push into a taken bucket (stale
  // levels only) refills it for a later round. A bucket holds its gates in
  // push order, which follows the seeds and fanout order; the engine keeps
  // fanout lists sorted (Network::sort_fanouts), so that order is a
  // function of the network state, not of how many probes ran on it, and
  // the pop count — which with stale levels depends on the order — is the
  // same on the live network and on every replica.
  std::size_t next = 0;  // batch_[next..] is still to be recomputed
  const auto pop = [&](GateId& g) {
    if (next == batch_.size()) {
      batch_.clear();
      next = 0;
      if ((lo = lowest_occupied()) == buckets_.size()) return false;
      batch_.swap(buckets_[lo]);
      occupied_[lo / 64] &= ~(std::uint64_t{1} << (lo % 64));
    }
    g = batch_[next++];
    queued_[g] = 0;
    return true;
  };
  // Only a seed can be a deleted gate (an edit may touch a gate it then
  // removed); every sink of a live gate is live.
  for (const GateId s : seeds_) {
    if (!net_.is_deleted(s)) push(s);
  }
  seeds_.clear();

  std::size_t iterations = 0;
  const std::size_t hard_cap = 64 * (net_.num_gates() + 16);
  bool po_decreased = false;
  const bool damped = damp_active_ && margins_valid_;
  const bool capped = damped && critical_cap < kInf;
  bool bounded = false;
  const auto drain = [&](bool damp) {
    GateId g = kNullGate;
    while (pop(g)) {
      RAPIDS_ASSERT_MSG(++iterations < hard_cap, "STA propagation did not converge");
      ++gates_propagated_;
      RiseFall fresh;
      recompute_arrival(g, fresh);
      if (!differs(fresh, arrival_[g])) {
        // Cut-off 1: bit-identical recompute — the disturbance cone ends
        // here. A dirty net still forces the sinks once (their wire
        // delays changed even though this arrival did not).
        if (net_dirty_[g]) {
          net_dirty_[g] = false;
          for (const Pin& pin : net_.fanouts(g)) push(pin.gate);
        }
        continue;
      }
      // Cut-off 2: a pure component-wise increase that stays under the
      // PO-seeded ceiling cannot raise any primary-output arrival. Two
      // guards keep the ceiling sound against in-transaction delay edits:
      // the level guard — no seed may sit strictly downstream of g
      // (forward levels strictly increase along paths), so every gate and
      // wire delay strictly below g still matches the refresh-time value —
      // and the net guard (!net_saved_) — g's OWN net is untouched this
      // transaction, so the first-hop wire delays match too (net_dirty_ is
      // cleared on first processing, but the RC change outlives it).
      // Nothing is stored — the PO-decrease fallback below can replay
      // exactly.
      if (damp && !net_dirty_[g] && !net_saved_[g] && g < level_.size() &&
          level_[g] >= txn_max_dirty_level_ &&
          fresh.rise >= arrival_[g].rise && fresh.fall >= arrival_[g].fall &&
          fresh.rise <= req_damp_[g].rise && fresh.fall <= req_damp_[g].fall) {
        deferred_.push_back(g);
        ++damp_cutoffs_;
        continue;
      }
      if ((fresh.rise < arrival_[g].rise || fresh.fall < arrival_[g].fall) &&
          net_.type(g) == GateType::Output) {
        po_decreased = true;
      }
      save_arrival(g);
      arrival_[g] = fresh;
      net_dirty_[g] = false;
      // Cut-off 3: the stored arrival plus the longest refresh-time path
      // to a PO bounds the final critical delay from below (see the header
      // for why each guard is needed).
      if (capped && !filed_last && g < level_.size() &&
          level_[g] > txn_max_dirty_level_ && !net_saved_[g] &&
          std::max(fresh.rise - tail_[g].rise, fresh.fall - tail_[g].fall) -
                  kDampGuard > critical_cap) {
        bounded = true;
        return;
      }
      for (const Pin& pin : net_.fanouts(g)) push(pin.gate);
    }
  };
  drain(damped);
  if (bounded) {
    // No fixed point to finish or to self-check: empty the worklist (the
    // rest of the batch and every bucket) and leave the partial arrivals
    // to rollback().
    for (; next < batch_.size(); ++next) queued_[batch_[next]] = 0;
    batch_.clear();
    for (std::size_t w = 0; w < occupied_.size(); ++w) {
      for (; occupied_[w] != 0; occupied_[w] &= occupied_[w] - 1) {
        std::vector<GateId>& bucket = buckets_[w * 64 + std::countr_zero(occupied_[w])];
        for (const GateId g : bucket) queued_[g] = 0;
        bucket.clear();
      }
    }
    deferred_.clear();
    critical_delay_ = kInf;
    required_valid_ = false;
    return false;
  }
  if (po_decreased && !deferred_.empty()) {
    // A primary output dropped below the arrival the ceilings were seeded
    // from, so a suppressed increase elsewhere could now own the max.
    // Deferred gates stored nothing — replay them undamped.
    ++damp_fallbacks_;
    for (const GateId g : deferred_) push(g);
    deferred_.clear();
    drain(false);
  }
  if (damp_diff_ && !deferred_.empty()) {
    // Differential self-check: finishing the worklist undamped must leave
    // every primary-output arrival bit-identical to the damped fixed point.
    diff_po_.clear();
    for (const GateId po : net_.primary_outputs()) diff_po_.push_back(arrival_[po]);
    for (const GateId g : deferred_) push(g);
    deferred_.clear();
    drain(false);
    std::size_t i = 0;
    for (const GateId po : net_.primary_outputs()) {
      RAPIDS_ASSERT_MSG(!differs(arrival_[po], diff_po_[i]),
                        "self-check: damped propagation perturbed PO " +
                            net_.name(po) + " rise " +
                            std::to_string(diff_po_[i].rise) + " -> " +
                            std::to_string(arrival_[po].rise) + " fall " +
                            std::to_string(diff_po_[i].fall) + " -> " +
                            std::to_string(arrival_[po].fall));
      ++i;
    }
  }
  critical_delay_ = recompute_critical();
  required_valid_ = false;
  return true;
}

void Sta::rollback() {
  RAPIDS_ASSERT(in_txn_);
  for (const auto& [g, a] : saved_arrivals_) {
    arrival_[g] = a;
    arrival_saved_[g] = false;
  }
  for (std::size_t i = 0; i < saved_net_count_; ++i) {
    const auto& [d, s] = saved_nets_[i];
    nets_[d] = s;
    net_saved_[d] = false;
    for (const StarBranch& b : s.branches) {
      pin_delay_[b.pin.gate * pin_stride_ + b.pin.index] = b.wire_delay;
    }
  }
  for (const GateId d : txn_dirty_nets_) net_dirty_[d] = false;
  saved_arrivals_.clear();
  saved_net_count_ = 0;
  txn_dirty_nets_.clear();
  seeds_.clear();
  critical_delay_ = saved_critical_;
  in_txn_ = false;
}

void Sta::commit() {
  RAPIDS_ASSERT(in_txn_);
  // Committed arrival or net-delay changes stale the damping ceilings
  // (they bake in PO arrivals AND path delays); rollback restores state
  // exactly and deliberately leaves them valid.
  if (!saved_arrivals_.empty() || saved_net_count_ > 0) margins_valid_ = false;
  for (const auto& [g, a] : saved_arrivals_) {
    (void)a;
    arrival_saved_[g] = false;
  }
  for (std::size_t i = 0; i < saved_net_count_; ++i) {
    net_saved_[saved_nets_[i].first] = false;
  }
  for (const GateId d : txn_dirty_nets_) net_dirty_[d] = false;
  saved_arrivals_.clear();
  saved_net_count_ = 0;
  txn_dirty_nets_.clear();
  seeds_.clear();
  in_txn_ = false;
}

void Sta::backward_required(std::span<const GateId> topo_order,
                            std::vector<RiseFall>& req,
                            std::vector<RiseFall>* tail) const {
  for (auto it = topo_order.rbegin(); it != topo_order.rend(); ++it) {
    const GateId g = *it;
    // An Output keeps its seed; the driver below reads it through the wire.
    if (net_.type(g) == GateType::Output) continue;
    // req at g's output = min over sink pins of
    //   (req at sink output - sink arc delay - wire delay to the pin).
    RiseFall r{kInf, kInf};
    RiseFall t{kInf, kInf};
    for (const Pin& pin : net_.fanouts(g)) {
      const GateId h = pin.gate;
      const double wire = pin_delay_[pin.gate * pin_stride_ + pin.index];
      RiseFall through{kInf, kInf};
      RiseFall through_t{kInf, kInf};
      if (net_.type(h) == GateType::Output) {
        through = req[h];
        if (tail != nullptr) through_t = (*tail)[h];
      } else {
        const std::int32_t ci = net_.cell(h);
        RAPIDS_ASSERT(ci >= 0);
        const RiseFall d = gate_delay(lib_.cell(ci), nets_[h].total_cap());
        const ArcSense sense = arc_sense(net_.type(h));
        accumulate_arc_required(sense, req[h], d, through);
        if (tail != nullptr) accumulate_arc_required(sense, (*tail)[h], d, through_t);
      }
      r.rise = std::min(r.rise, through.rise - wire);
      r.fall = std::min(r.fall, through.fall - wire);
      t.rise = std::min(t.rise, through_t.rise - wire);
      t.fall = std::min(t.fall, through_t.fall - wire);
    }
    req[g] = r;
    if (tail != nullptr) (*tail)[g] = t;
  }
}

void Sta::refresh_required() {
  required_.assign(net_.id_bound(), RiseFall{kInf, kInf});
  for (const GateId po : net_.primary_outputs()) {
    required_[po] = RiseFall{required_time_, required_time_};
  }
  backward_required(topological_order(net_), required_);
  required_valid_ = true;
}

void Sta::refresh_damping_margins() {
  RAPIDS_ASSERT_MSG(!in_txn_, "margin refresh requires a committed fixed point");
  const std::size_t n = arrival_.size();
  const std::vector<GateId> order = topological_order(net_);
  // Forward levels, strict through Output gates (unlike logic_levels, which
  // lets an Output share its driver's level): the damping guard needs
  // level(u) < level(v) for EVERY edge u→v so "no seed at level >= mine"
  // implies "no seed strictly downstream of me".
  // Refreshing them here also re-tightens the worklist order after the
  // commits since the last computation.
  level_.assign(n, kUnlevelled);
  int max_level = 0;
  for (const GateId g : order) {
    level_[g] = forward_level(g);
    max_level = std::max(max_level, level_[g]);
  }
  size_worklist(2 * static_cast<std::size_t>(max_level) + 3);
  // PO-seeded ceiling: the same backward recurrence as refresh_required,
  // but each primary output anchors at its OWN current arrival, so
  //   req_damp(g) = min over g→PO paths of (arrival(PO) − path delay).
  // The ceiling depends only on path delays and PO arrivals — an increase
  // kept under it cannot change any PO's max, hence neither objective term.
  // The guard absorbs the rounding skew between this backward recurrence
  // (subtractions) and forward propagation (additions): without it, a
  // suppressed increase sitting exactly at the ceiling can land an ulp
  // above the stored PO arrival when replayed forward. 1e-6 ns dwarfs any
  // accumulated double rounding error (~1e-10 over the deepest paths)
  // while staying far below real slack margins, and self-check (damp-diff)
  // bit-checks the resulting exactness on every damped propagation.
  // Tombstones keep the -inf never-suppress sentinel that grow() gives
  // fresh slots, so a recycled id minted mid-transaction damps exactly like
  // a grown one; likewise their +inf tail never bounds.
  req_damp_.assign(n, RiseFall{-kInf, -kInf});
  tail_.assign(n, RiseFall{kInf, kInf});
  for (const GateId po : net_.primary_outputs()) {
    req_damp_[po] = RiseFall{arrival_[po].rise - kDampGuard,
                             arrival_[po].fall - kDampGuard};
    tail_[po] = RiseFall{0.0, 0.0};
  }
  backward_required(order, req_damp_, &tail_);
  margins_valid_ = true;
  ++margin_refreshes_;
}

}  // namespace rapids
