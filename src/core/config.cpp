#include "core/config.hpp"

namespace paratreet {

std::string toString(TreeType t) {
  switch (t) {
    case TreeType::eOct: return "oct";
    case TreeType::eKd: return "kd";
    case TreeType::eLongest: return "longest";
  }
  return "?";
}

bool fromString(const std::string& s, TreeType& out) {
  if (s == "oct") out = TreeType::eOct;
  else if (s == "kd") out = TreeType::eKd;
  else if (s == "longest") out = TreeType::eLongest;
  else return false;
  return true;
}

std::string toString(CacheModel m) {
  switch (m) {
    case CacheModel::kWaitFree: return "WaitFree";
    case CacheModel::kXWrite: return "XWrite";
    case CacheModel::kPerThread: return "Sequential";
    case CacheModel::kSingleInserter: return "SingleInserter";
  }
  return "?";
}

bool fromString(const std::string& s, CacheModel& out) {
  if (s == "WaitFree") out = CacheModel::kWaitFree;
  else if (s == "XWrite") out = CacheModel::kXWrite;
  else if (s == "Sequential") out = CacheModel::kPerThread;
  else if (s == "SingleInserter") out = CacheModel::kSingleInserter;
  else return false;
  return true;
}

std::string toString(LbScheme s) {
  switch (s) {
    case LbScheme::kNone: return "none";
    case LbScheme::kSfc: return "sfc";
    case LbScheme::kGreedy: return "greedy";
  }
  return "?";
}

bool fromString(const std::string& s, LbScheme& out) {
  if (s == "none") out = LbScheme::kNone;
  else if (s == "sfc") out = LbScheme::kSfc;
  else if (s == "greedy") out = LbScheme::kGreedy;
  else return false;
  return true;
}

std::string toString(BatchDrain d) {
  switch (d) {
    case BatchDrain::kOverlap: return "overlap";
    case BatchDrain::kBarrier: return "barrier";
  }
  return "?";
}

bool fromString(const std::string& s, BatchDrain& out) {
  if (s == "overlap") out = BatchDrain::kOverlap;
  else if (s == "barrier") out = BatchDrain::kBarrier;
  else return false;
  return true;
}

std::string toString(RecoveryMode m) {
  switch (m) {
    case RecoveryMode::kRestart: return "restart";
    case RecoveryMode::kShrink: return "shrink";
  }
  return "?";
}

bool fromString(const std::string& s, RecoveryMode& out) {
  if (s == "restart") out = RecoveryMode::kRestart;
  else if (s == "shrink") out = RecoveryMode::kShrink;
  else return false;
  return true;
}

std::string RecoveryPolicy::validate() const {
  if (max_restarts_per_rank < 0) {
    return "max_restarts_per_rank = " + std::to_string(max_restarts_per_rank) +
           ": must be >= 0 (0 = shrink immediately)";
  }
  if (restart_backoff_ms < 0.0) {
    return "restart_backoff_ms = " + std::to_string(restart_backoff_ms) +
           ": must be >= 0";
  }
  if (max_recoveries < -1) {
    return "max_recoveries = " + std::to_string(max_recoveries) +
           ": must be >= -1 (-1 = unbounded)";
  }
  return {};
}

std::string Configuration::validate() const {
  const auto bad = [](const std::string& field, long long value,
                      const std::string& why) {
    return "Configuration." + field + " = " + std::to_string(value) + ": " +
           why;
  };
  if (num_iterations < 0) {
    return bad("num_iterations", num_iterations, "must be >= 0");
  }
  if (min_partitions < 1) {
    return bad("min_partitions", min_partitions, "need at least one Partition");
  }
  if (min_subtrees < 1) {
    return bad("min_subtrees", min_subtrees, "need at least one Subtree");
  }
  if (bucket_size <= 0) {
    return bad("bucket_size", bucket_size,
               "leaf buckets must hold at least one particle");
  }
  if (fetch_depth < 1) {
    return bad("fetch_depth", fetch_depth,
               "each cache fill must ship at least one tree level");
  }
  if (share_levels < 0) {
    return bad("share_levels", share_levels, "must be >= 0");
  }
  if (lb_period < 0) {
    return bad("lb_period", lb_period,
               "must be >= 0 (0 disables rebalancing)");
  }
  if (checkpoint_every < 0) {
    return bad("checkpoint_every", checkpoint_every,
               "must be >= 0 (0 disables checkpointing)");
  }
  if (checkpoint_keep < 1) {
    return bad("checkpoint_keep", checkpoint_keep,
               "must keep at least one on-disk generation");
  }
  if (resume && checkpoint_dir.empty()) {
    return "Configuration.resume = true: resuming needs a checkpoint_dir "
           "to scan for durable generations";
  }
  if (auto err = fault.validate(); !err.empty()) {
    return "Configuration.fault." + err;
  }
  if (auto err = transport.validate(); !err.empty()) {
    return "Configuration.transport." + err;
  }
  if (auto err = recovery.validate(); !err.empty()) {
    return "Configuration.recovery." + err;
  }
  return {};
}

std::uint64_t Configuration::compatibilityHash(
    std::uint64_t particle_count) const {
  // splitmix64-chain over everything that shapes the restored state or
  // its deterministic evolution (see the header for what is deliberately
  // left out). Order matters; append new fields at the end so old
  // checkpoints only invalidate when a hashed field actually changes.
  std::uint64_t h = 0x647572616273746full;  // arbitrary non-zero start
  const auto mix = [&h](std::uint64_t v) {
    h = rts::detail::splitmix64(h ^ v);
  };
  mix(random_seed);
  mix(static_cast<std::uint64_t>(tree_type));
  mix(static_cast<std::uint64_t>(decomp_type));
  mix(static_cast<std::uint64_t>(min_partitions));
  mix(static_cast<std::uint64_t>(min_subtrees));
  mix(static_cast<std::uint64_t>(bucket_size));
  mix(static_cast<std::uint64_t>(fetch_depth));
  mix(static_cast<std::uint64_t>(share_levels));
  mix(static_cast<std::uint64_t>(cache_model));
  mix(static_cast<std::uint64_t>(batch_drain));
  mix(static_cast<std::uint64_t>(lb_period));
  mix(static_cast<std::uint64_t>(lb_scheme));
  mix(particle_count);
  return h;
}

}  // namespace paratreet
