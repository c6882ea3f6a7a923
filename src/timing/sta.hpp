// Static timing analysis over a placed, mapped network.
//
// Arrival model per the paper §6: gate delay is pin-to-pin and
// load-dependent with rise/fall; interconnect delay is Elmore over a star
// RC for every net. Worst-case (max) analysis; required times / slacks
// against a single required time T (default: the initial critical delay).
//
// The optimizers rely on the transactional what-if interface: apply a
// candidate network edit, propagate(), read the objective, then rollback().
// Rollback restores arrivals and net caches exactly, so thousands of
// candidate moves can be probed cheaply without a full recompute.
#pragma once

#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "library/cell_library.hpp"
#include "netlist/network.hpp"
#include "place/placement.hpp"
#include "timing/delay_model.hpp"
#include "timing/star_net.hpp"

namespace rapids {

struct StaOptions {
  PadParams pads;
  /// Required time; negative means "use the critical delay of the first
  /// full run" (zero-slack baseline).
  double required_time = -1.0;
};

class Sta {
 public:
  /// Tag for the deferred constructor below.
  struct DeferInit {};

  /// Network must stay alive; all its logic gates must be mapped & placed.
  Sta(const Network& net, const CellLibrary& lib, const Placement& pl,
      const StaOptions& options = {});

  /// Bind without computing anything: no run_full(), no queries valid yet.
  /// The caller must run_full() or copy_state_from() before reading any
  /// result. Probe workers use this to build a replica Sta and then adopt
  /// the live engine's state instead of recomputing it.
  Sta(const Network& net, const CellLibrary& lib, const Placement& pl,
      const StaOptions& options, DeferInit);

  /// Adopt another Sta's computed timing state (net caches, arrivals,
  /// critical delay, levels, damping margins and tails) byte-for-byte.
  /// Required times are not copied: a replica only probes, so this Sta's
  /// slacks read stale until its own refresh_required(). Both analyses must
  /// be outside transactions and bound to structurally identical networks
  /// (same id_bound; the source's state must be valid for this network's
  /// topology — a copy of the source's network qualifies). This is the
  /// parallel scheduler's replica-sync primitive: it is cheaper than
  /// run_full() and, unlike a recompute, guarantees the replica starts from
  /// bit-identical timing.
  void copy_state_from(const Sta& other);

  /// Full recompute of net caches, arrivals, forward levels, required
  /// times and slacks. Also sizes the flat per-pin delay cache to the
  /// network's CURRENT maximum fanin count: incremental updates assert if
  /// a later mutation gives any gate more fanins than that bound — rerun
  /// run_full() after pin-count-growing edits (rewiring moves never grow
  /// pin counts).
  void run_full();

  // --- results ------------------------------------------------------------

  double critical_delay() const { return critical_delay_; }
  RiseFall arrival_rf(GateId g) const { return arrival_[g]; }
  double arrival(GateId g) const { return arrival_[g].worst(); }
  /// Read-only views over the full id-indexed arrival/required state:
  /// const, allocation-free, and safe to read concurrently as long as no
  /// thread is inside a transaction. Replica verification (tests) and any
  /// worker-side analysis read the shared Sta through these instead of
  /// per-gate calls.
  std::span<const RiseFall> arrivals() const { return {arrival_.data(), arrival_.size()}; }
  std::span<const RiseFall> requireds() const {
    return {required_.data(), required_.size()};
  }
  /// Worst slack of gate g's output (valid after run_full / refresh_required).
  double slack(GateId g) const;
  double worst_slack() const;
  double total_negative_slack() const;
  double required_time() const { return required_time_; }
  void set_required_time(double t) { required_time_ = t; }
  /// Sum of arrival times over all primary outputs (relaxation objective).
  double sum_po_arrival() const;
  /// Gates on the worst path, from a primary input to the worst output.
  std::vector<GateId> critical_path() const;
  /// Cached star net of the net driven by g (valid for fanout_count>0).
  const StarNet& star(GateId g) const { return nets_[g]; }

  // --- transactional what-if interface -------------------------------------

  /// Begin a what-if transaction; nested transactions are not supported.
  void begin();
  /// Mark the net driven by `driver` dirty (sink set / pin caps / geometry
  /// changed). Call after editing the network, before propagate().
  void invalidate_net(GateId driver);
  /// Mark gate `g` dirty (its own cell/drive changed). Implies its output
  /// net delay changes; fanin nets must be invalidated separately when pin
  /// caps changed.
  void touch_gate(GateId g);
  /// Re-evaluate arrivals from all dirty seeds until the fixed point, in
  /// forward-level order (see the bounded-cone notes below). Updates
  /// critical_delay(). Required times/slacks become stale. With a finite
  /// `critical_cap` the walk may stop early, once the transaction's
  /// critical delay is proven to exceed the cap (cut-off 3 below): it then
  /// returns false, critical_delay() reads +inf and the stored arrivals are
  /// partial, so the transaction must be rolled back. Returns true at the
  /// fixed point.
  bool propagate(double critical_cap = std::numeric_limits<double>::infinity());
  /// Discard the transaction: restore arrivals, net caches, critical delay.
  void rollback();
  /// Keep the transaction's results.
  void commit();
  bool in_transaction() const { return in_txn_; }

  /// Recompute required times and slacks from current arrivals (backward
  /// pass); cheap relative to run_full since net caches are reused.
  void refresh_required();

  // --- bounded-cone damped propagation -------------------------------------
  //
  // The worklist pops gates in forward-level order (levels from run_full,
  // refreshed by refresh_damping_margins), deduplicated per gate, so with
  // current levels each gate of the disturbance cone is recomputed once,
  // after all of its fanins are final. Two objective-exact cut-offs then
  // keep probe cost proportional to the real timing disturbance instead of
  // the structural fanout cone:
  //
  //  1. Exact termination (always on): a popped gate whose recomputed
  //     arrival is BIT-IDENTICAL to the stored value drops out of the
  //     worklist. Arrivals are pure functions of fanin arrivals and
  //     delays, so undisturbed cone tails recompute bit-equal and the
  //     frontier stops exactly where the disturbance does.
  //
  //  2. Slack-margin damping (active only when armed via
  //     set_damping_active and margins are fresh): refresh_damping_margins
  //     computes, per gate, the PO-seeded ceiling
  //         req_damp(g) = min over g→PO paths of
  //                       (arrival(PO) − downstream path delay)
  //     — structurally refresh_required() with each primary output seeded
  //     at its OWN current arrival instead of the global required time. A
  //     pure component-wise arrival increase at g that stays under this
  //     ceiling cannot raise any PO arrival (max analysis is monotone), so
  //     the worklist defers it instead of storing/propagating. Soundness
  //     holds within a transaction via a forward-level guard (no dirty
  //     seed may sit downstream of a suppressed gate, since in-txn delay
  //     edits invalidate the refresh-time path delays; a gate minted in
  //     the transaction has no level and is covered by its driver's
  //     invalidated net) and a PO-decrease fallback (if the same
  //     transaction LOWERS any primary output below its refresh-time
  //     arrival, deferred gates are re-pushed and the worklist completes
  //     undamped — deferred gates stored nothing, so this is exact).
  //
  //  3. Critical-cap cut-off (needs the same arming as 2, and a finite
  //     propagate() cap): the same backward walk also computes the tail
  //         tail(g) = −(longest g→PO path delay)
  //     per transition (refresh_required() with every PO seeded at 0). A
  //     gate stored at level > every seed level (strictly: a rewired sink
  //     on its new driver's level can pop before that driver is final),
  //     whose own net is untouched and with no gate filed in the last
  //     (unlevelled) bucket, holds its final arrival or a lower bound of it
  //     (deferred gates only rise), and every delay downstream of it is the
  //     refresh-time value. So the final critical delay is at least
  //         max(a.rise − tail.rise, a.fall − tail.fall) − guard,
  //     and once that exceeds the cap the walk stops: the caller learns
  //     "above the cap", never a wrong number. Self-check replays every
  //     stopped probe uncapped and checks its exact critical delay.
  //
  // Margins are invalidated by any state-changing commit() and by
  // run_full(); rollback() restores state exactly and leaves them valid.
  // copy_state_from() adopts the source's margins, valid or not, so a
  // replica damps exactly as its source would. Commits must run with
  // damping inactive so the stored inter-transaction state is always the
  // true fixed point.

  /// Arm/disarm margin damping for subsequent propagate() calls. Damping
  /// only engages while margins_valid(); callers (the engine probe path)
  /// toggle this around probes and leave it off for commits.
  void set_damping_active(bool on) { damp_active_ = on; }
  bool damping_active() const { return damp_active_; }
  /// Differential self-check: after a damped fixed point, finish the
  /// worklist undamped and assert every primary-output arrival is
  /// bit-identical. Throws InternalError on mismatch.
  void set_damp_diff(bool on) { damp_diff_ = on; }
  /// Recompute per-gate damping ceilings, tails and forward levels from
  /// the current (committed, fixed-point) state. One topological order,
  /// walked forward for levels and backward for ceilings and tails; call at
  /// round granularity, never per-probe.
  void refresh_damping_margins();
  bool margins_valid() const { return margins_valid_; }
  /// Gate g's PO-seeded ceiling from the last refresh_damping_margins()
  /// (meaningful only while margins_valid()). A gate whose arrival reaches
  /// its ceiling in either transition lies on, or within the guard of, some
  /// primary output's max-arrival path. Ids minted after the refresh read
  /// -inf, which every arrival reaches.
  RiseFall damping_ceiling(GateId g) const {
    return g < req_damp_.size()
               ? req_damp_[g]
               : RiseFall{-std::numeric_limits<double>::infinity(),
                          -std::numeric_limits<double>::infinity()};
  }

  /// Gate g's tail from the last refresh_damping_margins(): minus the
  /// longest g→PO path delay per transition (+inf off every PO path, and
  /// for ids minted after the refresh, which therefore never bound).
  RiseFall damping_tail(GateId g) const {
    return g < tail_.size() ? tail_[g]
                            : RiseFall{std::numeric_limits<double>::infinity(),
                                       std::numeric_limits<double>::infinity()};
  }

  /// Propagation-shape counters (monotonic, accumulated across the Sta's
  /// lifetime): worklist pops, margin suppressions, PO-decrease fallbacks,
  /// and margin refreshes.
  std::uint64_t gates_propagated() const { return gates_propagated_; }
  std::uint64_t damp_cutoffs() const { return damp_cutoffs_; }
  std::uint64_t damp_fallbacks() const { return damp_fallbacks_; }
  std::uint64_t margin_refreshes() const { return margin_refreshes_; }

  // --- replica sync ---------------------------------------------------------

  /// Monotonic counter bumped by every run_full(). A replica synced at an
  /// older version is stale even within the same commit epoch
  /// (ProbeContext::in_sync_with).
  std::uint64_t state_version() const { return state_version_; }
  /// Read-only views over the per-pin wire delay cache and the forward
  /// levels, for differential tests that compare replicas byte for byte.
  std::span<const double> pin_delays() const { return {pin_delay_.data(), pin_delay_.size()}; }
  std::span<const int> levels() const { return {level_.data(), level_.size()}; }

 private:
  /// Extend id-indexed state for gates created mid-transaction (inverters
  /// inserted by rewiring).
  void grow();
  void rebuild_net(GateId driver);
  void recompute_arrival(GateId g, RiseFall& out) const;
  void save_arrival(GateId g);
  void save_net(GateId driver);
  double recompute_critical() const;
  /// The backward min-over-fanouts recurrence shared by refresh_required
  /// and refresh_damping_margins: walking the forward topological order
  /// `topo_order` backwards (fanouts before fanins), set req[g] for every
  /// non-Output gate to the min over its sink pins of (req at the sink,
  /// back through the sink's arc and the wire). Output gates keep the
  /// seeds the caller wrote. A non-null `tail` runs the same recurrence
  /// over its own seeds in the same walk, sharing the delay lookups.
  void backward_required(std::span<const GateId> topo_order,
                         std::vector<RiseFall>& req,
                         std::vector<RiseFall>* tail = nullptr) const;
  /// Record a transaction seed's forward level into txn_max_dirty_level_
  /// (gates minted in the transaction have none and are skipped).
  void note_dirty_level(GateId g);
  /// 1 + the highest level_ over g's fanins (0 for sources); fanins must
  /// already be levelled.
  int forward_level(GateId g) const;
  /// propagate()'s bucket for g: 2 * level_[g]; for a gate minted since
  /// the levels were computed, 2 * (its deepest fanin's level) + 1; the
  /// last bucket when a fanin is unlevelled too.
  std::size_t worklist_bucket(GateId g) const;
  /// Size the (empty) worklist for levels 0..max_level: num_buckets is
  /// 2 * max_level + 3 (even buckets per level, odd ones for minted gates,
  /// and the last).
  void size_worklist(std::size_t num_buckets);

  const Network& net_;
  const CellLibrary& lib_;
  const Placement& pl_;
  StaOptions options_;

  std::vector<StarNet> nets_;      // indexed by driver GateId
  std::vector<RiseFall> arrival_;  // at gate outputs
  std::vector<RiseFall> required_;
  // Flat per-in-pin wire delay cache, indexed gate * pin_stride_ + index.
  // Mirror of nets_[driver].branches[...].wire_delay, maintained by
  // rebuild_net and restored on rollback: recompute_arrival reads one
  // contiguous row instead of scanning the fanin nets' branch lists.
  std::vector<double> pin_delay_;
  std::uint32_t pin_stride_ = 1;
  std::vector<bool> net_dirty_;    // net delay changed in this txn
  double critical_delay_ = 0.0;
  double required_time_ = 0.0;
  bool required_valid_ = false;

  // Damped-propagation state. req_damp_ and tail_ are computed by
  // refresh_damping_margins(); level_ by run_full() and again by every
  // refresh (copy_state_from copies all three). Ids that were not live
  // gates at the last computation (tombstones, and slots grown since for
  // mid-txn inverters) read never-suppress, never-bound sentinels, and
  // propagate() buckets them after their fanins; committed rewiring leaves
  // level_ stale until the next refresh, which loosens the worklist order
  // but never its fixed point.
  std::vector<RiseFall> req_damp_;  // PO-seeded per-gate arrival ceiling
  std::vector<RiseFall> tail_;      // −(longest path to a PO), per transition
  std::vector<int> level_;          // forward topo level (strict through Outputs)
  bool margins_valid_ = false;
  bool damp_active_ = false;
  bool damp_diff_ = false;
  int txn_max_dirty_level_ = 0;     // max forward level over this txn's seeds
  std::vector<GateId> deferred_;    // suppressed gates (propagate-local scratch)
  std::vector<RiseFall> diff_po_;   // damp-diff PO snapshot scratch
  std::uint64_t gates_propagated_ = 0;
  std::uint64_t damp_cutoffs_ = 0;
  std::uint64_t damp_fallbacks_ = 0;
  std::uint64_t margin_refreshes_ = 0;
  std::uint64_t state_version_ = 0;

  // Transaction journal. All scratch storage is reused across transactions
  // (saved_nets_ keeps a live prefix of saved_net_count_ entries so the
  // StarNet branch vectors retain their capacity), which makes a steady
  // probe/rollback loop allocation-free after warm-up.
  bool in_txn_ = false;
  std::vector<std::pair<GateId, RiseFall>> saved_arrivals_;
  std::vector<std::pair<GateId, StarNet>> saved_nets_;
  std::size_t saved_net_count_ = 0;
  std::vector<GateId> txn_dirty_nets_;
  std::vector<GateId> seeds_;
  // propagate() worklist (buckets as in worklist_bucket): occupied_ has bit
  // b set while bucket b is non-empty, batch_ holds the bucket being
  // recomputed, and queued_ marks the gates in either.
  std::vector<std::vector<GateId>> buckets_;
  std::vector<std::uint64_t> occupied_;
  std::vector<GateId> batch_;
  std::vector<std::uint8_t> queued_;
  std::vector<bool> arrival_saved_;  // per-gate flags for O(1) dedup
  std::vector<bool> net_saved_;
  double saved_critical_ = 0.0;
};

}  // namespace rapids
