#include "parallel/probe_context.hpp"

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
  return engine_ && epoch_ == source.epoch() &&
         sta_version_ == source.sta().state_version();
}

void ProbeContext::sync(RewireEngine& source) {
  const Timer timer;
  TraceSpan sync_span(ctx_ != nullptr ? ctx_->tracer() : current_tracer(),
                      "sync", "replica_sync");
  ++sync_stats_.syncs;
  if (in_sync_with(source)) {
    sync_stats_.seconds += timer.seconds();
    return;
  }

  // Copy-assignment preserves ids, tombstones AND the recycled-id free
  // stack, so the replica's inverter-id allocation replays the live
  // engine's exactly — required for bit-identical probe arithmetic
  // (star-net branch order is keyed by gate id). Assigning into the
  // existing objects reuses their capacity and keeps the replica engine's
  // and Sta's references valid.
  net_ = source.net();
  pl_ = source.placement();
  if (!sta_) sta_ = std::make_unique<Sta>(net_, lib_, pl_, StaOptions{}, Sta::DeferInit{});
  sta_->copy_state_from(source.sta());
  if (!engine_) {
    engine_ = std::make_unique<RewireEngine>(net_, pl_, lib_, *sta_);
    engine_->set_session(ctx_);
    // Replicas inherit self-check, because damped-probe replay runs where
    // the probe runs. Paranoid mode is not inherited: it proves commits,
    // and a replica never commits.
    engine_->set_self_check(source.self_check());
  }

  epoch_ = source.epoch();
  sta_version_ = source.sta().state_version();
  ++sync_stats_.full_syncs;
  // Rough but stable size model of what a sync moves: the SoA gate rows +
  // adjacency pools + the id-indexed STA arrays (arrivals, requireds, star
  // nets, levels and margins). The copy is O(network) regardless, so the
  // edge count walk costs nothing extra.
  std::size_t edges = 0;
  net_.for_each_gate([&](GateId g) { edges += net_.fanin_count(g); });
  sync_stats_.bytes_full +=
      net_.id_bound() * (sizeof(GateType) + sizeof(std::int32_t) + 1 +
                         2 * sizeof(ChunkRef) + sizeof(RiseFall) * 3 +
                         sizeof(int) + sizeof(StarNet)) +
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
