#include "parallel/probe_context.hpp"

#include <algorithm>

#include "session/session.hpp"
#include "trace/trace.hpp"
#include "util/timer.hpp"

namespace rapids {

ProbeContext::ProbeContext(const CellLibrary& lib) : lib_(lib) {}

ProbeContext::~ProbeContext() = default;

void ProbeContext::set_session(SessionContext* ctx) {
  ctx_ = ctx;
  if (engine_) engine_->set_session(ctx);
}

bool ProbeContext::in_sync_with(RewireEngine& source) const {
  return has_state_ && epoch_ == source.epoch() &&
         sta_version_ == source.sta().state_version();
}

void ProbeContext::sync(RewireEngine& source) {
  const Timer timer;
  TraceSpan sync_span(ctx_ != nullptr ? ctx_->tracer() : current_tracer(),
                      "sync", "replica_sync");
  ++sync_stats_.syncs;

  // Delta path: replay the source journal's committed rounds instead of
  // re-cloning the network — valid only while this replica still holds a
  // journal-covered epoch AND the source Sta was not rebuilt wholesale
  // (run_full changes the pin stride / id-space layout the delta assumes).
  if (has_state_ && engine_ &&
      source.sta().state_version() == sta_version_ &&
      source.sync_delta_available(epoch_)) {
    if (epoch_ != source.epoch()) {
      delta_gates_.clear();
      delta_arr_.clear();
      delta_nets_.clear();
      source.collect_sync_delta(epoch_, delta_gates_, delta_arr_, delta_nets_);
      // The journal concatenates per-commit slices, and commits inside one
      // round overlap heavily (critical-path arrivals are recomputed by
      // nearly every commit). Adoption copies the source's CURRENT state,
      // so each id needs shipping once — dedup before paying for the rows.
      const auto dedup = [](std::vector<GateId>& ids) {
        std::sort(ids.begin(), ids.end());
        ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
      };
      dedup(delta_gates_);
      dedup(delta_arr_);
      dedup(delta_nets_);
      std::size_t bytes = net_.adopt_structural_delta(source.net(), delta_gates_);
      // Placement rows of the touched gates (committed swaps place the
      // inverters they insert), over the source's row count: rows past a
      // placement's end are unplaced, and only commits leave gates placed, so
      // the untouched rows a resize adds or drops are unplaced on both sides.
      pl_.resize(source.placement().id_bound());
      for (const GateId g : delta_gates_) {
        if (source.placement().is_placed(g)) {
          pl_.set(g, source.placement().at(g));
        } else if (g < pl_.id_bound()) {
          pl_.unset(g);
        }
      }
      const Sta::DeltaBytes sta_bytes = sta_->adopt_delta(source.sta(), delta_arr_, delta_nets_);
      sync_stats_.bytes_delta += bytes + sta_bytes.slices;
      sync_stats_.bytes_margins += sta_bytes.whole;
      // One epoch per commit: the span is the per-commit denominator for
      // the O(dirty) gauge in bench/scale_flow.
      sync_stats_.delta_commits += source.epoch() - epoch_;
      epoch_ = source.epoch();
      // Count only epoch-advancing replays: a same-epoch repeat call does no
      // work and must not inflate the sync counters (metrics-json promises
      // delta_syncs == journal replays, delta_commits == epochs spanned).
      ++sync_stats_.delta_syncs;
    }
    sync_span.set_arg("delta", 1);
    sync_stats_.seconds += timer.seconds();
    return;
  }

  // Full path. Tear down in dependency order: the engine holds references
  // into the replica network/placement/STA being replaced.
  engine_.reset();
  sta_.reset();

  // clone() preserves ids, tombstones AND the recycled-id free list, so the
  // replica's inverter-id allocation replays the live engine's exactly —
  // required for bit-identical probe arithmetic (star-net branch order is
  // keyed by gate id).
  net_ = source.net().clone();
  pl_ = source.placement();

  sta_ = std::make_unique<Sta>(net_, lib_, pl_, StaOptions{}, Sta::DeferInit{});
  sta_->copy_state_from(source.sta());
  engine_ = std::make_unique<RewireEngine>(net_, pl_, lib_, *sta_);
  engine_->set_session(ctx_);
  // Replicas inherit self-check, because damped-probe replay runs where the
  // probe runs. Paranoid mode is not inherited: it proves commits, and a
  // replica never commits.
  engine_->set_self_check(source.self_check());

  epoch_ = source.epoch();
  sta_version_ = source.sta().state_version();
  has_state_ = true;
  harvested_ = EngineStats{};
  ++sync_stats_.full_syncs;
  sync_span.set_arg("delta", 0);
  // Rough but stable size model of what the clone path moves: the SoA gate
  // rows + adjacency pools + the id-indexed STA arrays (the full path is
  // O(network) regardless, so the edge count walk costs nothing extra).
  std::size_t edges = 0;
  net_.for_each_gate([&](GateId g) { edges += net_.fanin_count(g); });
  sync_stats_.bytes_full +=
      net_.id_bound() * (sizeof(GateType) + sizeof(std::int32_t) + 1 +
                         2 * sizeof(ChunkRef) + sizeof(RiseFall) * 2 +
                         sizeof(StarNet)) +
      edges * (sizeof(GateId) + sizeof(Pin));
  sync_stats_.seconds += timer.seconds();
}

EngineStats ProbeContext::take_stats() {
  EngineStats window;
  if (engine_) {
    const EngineStats& total = engine_->stats();
    window.probes = total.probes - harvested_.probes;
    window.gates_propagated = total.gates_propagated - harvested_.gates_propagated;
    window.damp_cutoffs = total.damp_cutoffs - harvested_.damp_cutoffs;
    window.damp_fallbacks = total.damp_fallbacks - harvested_.damp_fallbacks;
    window.margin_refreshes = total.margin_refreshes - harvested_.margin_refreshes;
    harvested_ = total;
  }
  return window;
}

}  // namespace rapids
