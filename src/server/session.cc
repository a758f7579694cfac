#include "server/session.h"

#include <cctype>
#include <cstdlib>

#include "common/string_util.h"

namespace raven::server {
namespace {

Result<std::int64_t> ParseInt(const std::string& key,
                              const std::string& value) {
  char* end = nullptr;
  const long long parsed = std::strtoll(value.c_str(), &end, 10);
  if (end == value.c_str() || *end != '\0') {
    return Status::InvalidArgument("SET " + key + " expects an integer, got '" +
                                   value + "'");
  }
  return static_cast<std::int64_t>(parsed);
}

}  // namespace

Status Session::ApplySet(const std::string& key, const std::string& value) {
  const std::string k = ToLower(TrimString(key));
  const std::string v = TrimString(value);
  if (k == "parallelism") {
    RAVEN_ASSIGN_OR_RETURN(std::int64_t n, ParseInt(k, v));
    if (n < 1 || n > 256) {
      return Status::InvalidArgument("parallelism must be in [1, 256]");
    }
    execution_.parallelism = n;
    return Status::OK();
  }
  if (k == "morsel_rows") {
    RAVEN_ASSIGN_OR_RETURN(std::int64_t n, ParseInt(k, v));
    if (n < 0) {
      return Status::InvalidArgument("morsel_rows must be >= 0 (0 = default)");
    }
    execution_.morsel_rows = n;
    return Status::OK();
  }
  if (k == "distributed_workers") {
    RAVEN_ASSIGN_OR_RETURN(std::int64_t n, ParseInt(k, v));
    if (n < 1 || n > 64) {
      return Status::InvalidArgument("distributed_workers must be in [1, 64]");
    }
    execution_.distributed_workers = n;
    return Status::OK();
  }
  if (k == "distributed_frame_timeout_millis") {
    RAVEN_ASSIGN_OR_RETURN(std::int64_t n, ParseInt(k, v));
    // A non-positive timeout would disable the wedged-worker hang guard —
    // remotely, by any client. Keep it bounded and positive.
    if (n < 1 || n > 3600000) {
      return Status::InvalidArgument(
          "distributed_frame_timeout_millis must be in [1, 3600000]");
    }
    execution_.distributed_frame_timeout_millis = static_cast<int>(n);
    return Status::OK();
  }
  if (k == "batch_window_micros") {
    RAVEN_ASSIGN_OR_RETURN(std::int64_t n, ParseInt(k, v));
    // Capped at 1s: the window is latency every lone PREDICT pays waiting
    // for company, and an unbounded one would let any client park the
    // server's dispatch threads inside the batcher.
    if (n < 0 || n > 1000000) {
      return Status::InvalidArgument(
          "batch_window_micros must be in [0, 1000000] (0 = off)");
    }
    execution_.predict_batch_window_micros = n;
    return Status::OK();
  }
  if (k == "max_batch_rows") {
    RAVEN_ASSIGN_OR_RETURN(std::int64_t n, ParseInt(k, v));
    if (n < 1 || n > 65536) {
      return Status::InvalidArgument("max_batch_rows must be in [1, 65536]");
    }
    execution_.predict_max_batch_rows = n;
    return Status::OK();
  }
  if (k == "zone_map_skipping") {
    RAVEN_ASSIGN_OR_RETURN(std::int64_t n, ParseInt(k, v));
    if (n != 0 && n != 1) {
      return Status::InvalidArgument(
          "zone_map_skipping must be 0 or 1 (1 = default)");
    }
    // Not part of PlanProfile(): skipping is a scan-time I/O optimization —
    // the plan is identical either way, so it must not fragment the plan
    // cache.
    execution_.zone_map_skipping = (n == 1);
    return Status::OK();
  }
  if (k == "nn_backend") {
    RAVEN_ASSIGN_OR_RETURN(nnrt::BackendKind kind,
                           nnrt::ParseBackendKind(ToLower(v)));
    // Not part of PlanProfile(): the backend binds at physical plan build
    // (it's baked into the NNRT session-cache key), never at optimization,
    // so it must not fragment the plan cache.
    execution_.nn_backend = kind;
    return Status::OK();
  }
  if (k == "nn_session_cache_capacity") {
    RAVEN_ASSIGN_OR_RETURN(std::int64_t n, ParseInt(k, v));
    if (n < 0 || n > 4096) {
      return Status::InvalidArgument(
          "nn_session_cache_capacity must be in [0, 4096] (0 = pass-through)");
    }
    if (shared_cache_ == nullptr) {
      return Status::InvalidArgument(
          "nn_session_cache_capacity requires a server-attached session "
          "cache");
    }
    // Server-wide, not per-session: resizes the engine's shared NNRT
    // session cache (takes effect immediately, evicting LRU entries when
    // shrinking).
    shared_cache_->set_capacity(static_cast<std::size_t>(n));
    return Status::OK();
  }
  if (k == "trace") {
    const std::string mode = ToLower(v);
    if (mode == "on" || mode == "1" || mode == "true") {
      trace_enabled_ = true;
    } else if (mode == "off" || mode == "0" || mode == "false") {
      trace_enabled_ = false;
    } else {
      return Status::InvalidArgument("trace must be on or off");
    }
    // Not part of PlanProfile(): tracing observes execution, it never
    // changes the plan — results are byte-identical either way, so it must
    // not fragment the plan cache.
    return Status::OK();
  }
  if (k == "slow_query_millis") {
    RAVEN_ASSIGN_OR_RETURN(std::int64_t n, ParseInt(k, v));
    if (n < 0 || n > 3600000) {
      return Status::InvalidArgument(
          "slow_query_millis must be in [0, 3600000] (0 = off)");
    }
    // Not part of PlanProfile() for the same reason as trace: a logging
    // threshold, not a planning input.
    slow_query_millis_ = n;
    return Status::OK();
  }
  if (k == "mode") {
    const std::string mode = ToLower(v);
    if (mode == "inprocess" || mode == "in_process") {
      execution_.mode = runtime::ExecutionMode::kInProcess;
    } else if (mode == "distributed") {
      execution_.mode = runtime::ExecutionMode::kDistributed;
    } else if (mode == "outofprocess" || mode == "out_of_process") {
      execution_.mode = runtime::ExecutionMode::kOutOfProcess;
    } else if (mode == "container") {
      execution_.mode = runtime::ExecutionMode::kContainer;
    } else {
      return Status::InvalidArgument(
          "unknown mode '" + v +
          "' (inprocess|distributed|outofprocess|container)");
    }
    return Status::OK();
  }
  return Status::InvalidArgument(
      "unknown session knob '" + key +
      "' (parallelism, morsel_rows, mode, distributed_workers, "
      "distributed_frame_timeout_millis, batch_window_micros, "
      "max_batch_rows, nn_backend, nn_session_cache_capacity, "
      "zone_map_skipping, trace, slow_query_millis)");
}

std::string Session::PlanProfile() const {
  // Only knobs the optimizer's cost model consumes belong here: adding
  // irrelevant ones (e.g. morsel_rows, the batching knobs) would fragment
  // the cache.
  std::string profile =
      "mode=" + std::to_string(static_cast<int>(execution_.mode)) +
      ";dop=" + std::to_string(execution_.parallelism) +
      ";dw=" + std::to_string(execution_.distributed_workers);
  // The device picks tree encodings; CPU sessions (all but embedders that
  // configure an accelerator) keep the short key.
  const nnrt::DeviceSpec device = runtime::PlanningDevice(execution_);
  if (device.type != nnrt::DeviceType::kCpu) {
    profile += ";dev=" + std::to_string(device.launch_overhead_us) + "/" +
               std::to_string(device.flops_per_us);
  }
  return profile;
}

void Session::PutView(const std::string& name, const std::string& select_sql) {
  for (auto& [existing, sql] : views_) {
    if (existing == name) {
      sql = select_sql;
      return;
    }
  }
  views_.emplace_back(name, select_sql);
}

Status Session::DropView(const std::string& name) {
  for (auto it = views_.begin(); it != views_.end(); ++it) {
    if (it->first == name) {
      views_.erase(it);
      return Status::OK();
    }
  }
  return Status::NotFound("view '" + name + "' not found in this session");
}

bool Session::HasView(const std::string& name) const {
  for (const auto& [existing, sql] : views_) {
    if (existing == name) return true;
  }
  return false;
}

std::string Session::RewriteWithViews(const std::string& sql) const {
  if (views_.empty()) return sql;
  // Views become leading CTEs, comma-chained (the parser's WITH list
  // continues only across commas). A statement that itself starts with
  // WITH joins the same list: its WITH keyword is spliced into a comma.
  std::string out = "WITH ";
  for (std::size_t i = 0; i < views_.size(); ++i) {
    if (i > 0) out += ", ";
    out += views_[i].first + " AS (" + views_[i].second + ")";
  }
  const std::string trimmed = TrimString(sql);
  if (trimmed.size() >= 4 && ToUpper(trimmed.substr(0, 4)) == "WITH" &&
      (trimmed.size() == 4 ||
       !(std::isalnum(static_cast<unsigned char>(trimmed[4])) ||
         trimmed[4] == '_'))) {
    out += ", " + TrimString(trimmed.substr(4));
  } else {
    out += " " + trimmed;
  }
  return out;
}

}  // namespace raven::server
