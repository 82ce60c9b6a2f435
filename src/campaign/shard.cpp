#include "campaign/shard.h"

#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>

namespace hdiff::campaign {
namespace {

namespace fs = std::filesystem;

std::size_t to_size(const std::string& s) {
  return static_cast<std::size_t>(std::strtoull(s.c_str(), nullptr, 10));
}

std::uint64_t to_u64(const std::string& s) {
  return std::strtoull(s.c_str(), nullptr, 10);
}

std::int64_t to_i64(const std::string& s) {
  return std::strtoll(s.c_str(), nullptr, 10);
}

}  // namespace

std::size_t shard_of(std::string_view raw, std::size_t shards) noexcept {
  if (shards <= 1) return 0;
  return static_cast<std::size_t>(core::fnv1a64(raw)) % shards;
}

std::vector<std::size_t> shard_indices(const std::vector<PlannedCase>& planned,
                                       std::size_t shard,
                                       std::size_t shards) {
  std::vector<std::size_t> out;
  for (std::size_t i = 0; i < planned.size(); ++i) {
    if (shard_of(planned[i].tc.raw, shards) == shard) out.push_back(i);
  }
  return out;
}

ShardResult execute_shard(const CampaignConfig& config,
                          const net::Chain& chain, const RoundPlan& plan,
                          std::size_t round, std::size_t shard,
                          std::size_t shards, const std::string& config_sig,
                          bool export_metrics, bool export_trace) {
  const std::vector<std::size_t> mine =
      shard_indices(plan.cases, shard, shards);
  // Shard-local observability: instruments live here and leave only inside
  // the result, so the counts a fleet registry absorbs are exactly the
  // counts that produced the published outcomes.
  obs::Registry registry;
  obs::TraceSink sink(config.obs.clock);
  CampaignConfig cfg = config;
  cfg.obs.metrics = export_metrics ? &registry : nullptr;
  cfg.obs.trace = export_trace ? &sink : nullptr;
  core::ObservationMemo memo;
  net::VerdictCache verdicts;
  ExecutedRound executed;
  {
    obs::Span span(cfg.obs.trace, "worker:execute_round", "serve");
    span.arg("shard", std::to_string(shard) + "/" + std::to_string(shards) +
                          " round " + std::to_string(round));
    executed = execute_round(cfg, chain, plan.cases, &memo, &verdicts, &mine);
  }

  ShardResult result;
  result.round = round;
  result.shard = shard;
  result.shards = shards;
  result.config_sig = config_sig;
  result.faulted_attempts = executed.stats.faulted_attempts;
  result.retry_attempts = executed.stats.retry_attempts;
  result.recovered_cases = executed.stats.recovered_cases;
  result.quarantined_cases = executed.stats.quarantined_cases;
  for (std::size_t index : mine) {
    result.outcomes.emplace(index, std::move(executed.outcomes[index]));
  }
  // Snapshot after the executor has joined its workers (execute_round
  // returns post-join), satisfying the registry/sink quiescence contract.
  if (export_metrics) result.metrics = registry.snapshot();
  if (export_trace) {
    result.trace_pid = static_cast<std::uint32_t>(::getpid());
    result.trace = sink.export_events();
  }
  return result;
}

std::string shard_result_path(const std::string& state_dir, std::size_t round,
                              std::size_t shard) {
  return state_dir + "/shards/round-" + std::to_string(round) + "-shard-" +
         std::to_string(shard) + ".result";
}

std::string render_shard_result(const ShardResult& result) {
  std::string out = "hdiff-shard-result-v1\n";
  out += "round=" + std::to_string(result.round) + "\n";
  out += "shard=" + std::to_string(result.shard) + " " +
         std::to_string(result.shards) + "\n";
  out += "config_sig=" + result.config_sig + "\n";
  out += "stats=" + std::to_string(result.faulted_attempts) + " " +
         std::to_string(result.retry_attempts) + " " +
         std::to_string(result.recovered_cases) + " " +
         std::to_string(result.quarantined_cases) + "\n";
  // Optional observability sections (PR 8): metric names are field-encoded
  // (they may embed `{label="value"}` suffixes with spaces in the values),
  // histogram rows carry raw per-bucket counts so the supervisor can merge
  // them bucket-wise, and trace events ride with the pid that emitted them.
  for (const auto& [name, value] : result.metrics.counters) {
    out += "mc=" + field_enc(name) + " " + std::to_string(value) + "\n";
  }
  for (const auto& [name, value] : result.metrics.gauges) {
    out += "mg=" + field_enc(name) + " " + std::to_string(value) + "\n";
  }
  for (const auto& row : result.metrics.histograms) {
    out += "mh=" + field_enc(row.name) + " " + std::to_string(row.sum) + " " +
           std::to_string(row.count) + " " + std::to_string(row.bounds.size());
    for (std::uint64_t b : row.bounds) out += " " + std::to_string(b);
    for (std::uint64_t c : row.buckets) out += " " + std::to_string(c);
    out += "\n";
  }
  if (result.trace_pid != 0) {
    out += "tpid=" + std::to_string(result.trace_pid) + "\n";
  }
  for (const auto& e : result.trace) {
    out += "tev=" + std::string(1, e.ph) + " " + std::to_string(e.tid) + " " +
           std::to_string(e.ts) + " " + std::to_string(e.dur) + " " +
           field_enc(e.name) + " " + field_enc(e.cat) + " " +
           field_enc(e.arg_key) + " " + field_enc(e.arg_value) + "\n";
  }
  for (const auto& [index, oc] : result.outcomes) {
    out += "case=" + std::to_string(index) + " " +
           std::string(oc.quarantined ? "1" : "0") + " " +
           std::to_string(oc.signatures.size()) + "\n";
    for (const auto& sig : oc.signatures) {
      out += "sig=" + field_enc(sig.detector);
      for (const auto& component : sig.vector) {
        out += " " + field_enc(component);
      }
      out += "\n";
    }
  }
  // Explicit end marker: a torn tail (the non-atomic-write failure mode this
  // format defends against at parse time, on top of tmp+rename) is detected
  // even when the truncation lands exactly on a line boundary.
  out += "end=" + std::to_string(result.outcomes.size()) + "\n";
  return out;
}

bool parse_shard_result(std::string_view text, ShardResult* out) {
  *out = ShardResult{};
  // The end marker's own newline is part of the format: without this, a
  // result torn one byte short of complete would still parse.  With it,
  // *every* proper prefix of a valid result is rejected.
  if (text.empty() || text.back() != '\n') return false;
  std::istringstream in{std::string(text)};
  std::string line;
  if (!std::getline(in, line) || line != "hdiff-shard-result-v1") return false;
  CaseOutcome* open_case = nullptr;
  std::size_t open_sigs = 0;
  bool ended = false;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    if (ended) return false;  // bytes after the end marker
    const std::size_t eq = line.find('=');
    if (eq == std::string::npos) return false;
    const std::string key = line.substr(0, eq);
    const std::string rest = line.substr(eq + 1);
    if (key == "round") {
      out->round = to_size(rest);
    } else if (key == "shard") {
      auto tokens = split_fields(rest);
      if (tokens.size() != 2) return false;
      out->shard = to_size(tokens[0]);
      out->shards = to_size(tokens[1]);
    } else if (key == "config_sig") {
      out->config_sig = rest;
    } else if (key == "stats") {
      auto tokens = split_fields(rest);
      if (tokens.size() != 4) return false;
      out->faulted_attempts = to_size(tokens[0]);
      out->retry_attempts = to_size(tokens[1]);
      out->recovered_cases = to_size(tokens[2]);
      out->quarantined_cases = to_size(tokens[3]);
    } else if (key == "mc") {
      auto tokens = split_fields(rest);
      std::string name;
      if (tokens.size() != 2 || !field_dec(tokens[0], &name)) return false;
      out->metrics.counters.emplace_back(std::move(name), to_u64(tokens[1]));
    } else if (key == "mg") {
      auto tokens = split_fields(rest);
      std::string name;
      if (tokens.size() != 2 || !field_dec(tokens[0], &name)) return false;
      out->metrics.gauges.emplace_back(std::move(name), to_i64(tokens[1]));
    } else if (key == "mh") {
      auto tokens = split_fields(rest);
      obs::Registry::HistogramRow row;
      if (tokens.size() < 4 || !field_dec(tokens[0], &row.name)) return false;
      row.sum = to_u64(tokens[1]);
      row.count = to_u64(tokens[2]);
      const std::size_t nbounds = to_size(tokens[3]);
      // nbounds bounds plus nbounds+1 bucket counts (overflow last).
      if (tokens.size() != 4 + nbounds + nbounds + 1) return false;
      for (std::size_t i = 0; i < nbounds; ++i) {
        row.bounds.push_back(to_u64(tokens[4 + i]));
      }
      for (std::size_t i = 0; i <= nbounds; ++i) {
        row.buckets.push_back(to_u64(tokens[4 + nbounds + i]));
      }
      out->metrics.histograms.push_back(std::move(row));
    } else if (key == "tpid") {
      out->trace_pid = static_cast<std::uint32_t>(to_u64(rest));
    } else if (key == "tev") {
      auto tokens = split_fields(rest);
      if (tokens.size() != 8 || tokens[0].size() != 1) return false;
      obs::TraceEvent e;
      e.ph = tokens[0][0];
      e.tid = static_cast<std::uint32_t>(to_u64(tokens[1]));
      e.ts = to_u64(tokens[2]);
      e.dur = to_u64(tokens[3]);
      if (!field_dec(tokens[4], &e.name) || !field_dec(tokens[5], &e.cat) ||
          !field_dec(tokens[6], &e.arg_key) ||
          !field_dec(tokens[7], &e.arg_value)) {
        return false;
      }
      out->trace.push_back(std::move(e));
    } else if (key == "case") {
      if (open_case != nullptr && open_sigs != open_case->signatures.size())
        return false;  // previous case's signature lines went missing
      auto tokens = split_fields(rest);
      if (tokens.size() != 3) return false;
      const std::size_t index = to_size(tokens[0]);
      if (out->outcomes.count(index)) return false;
      CaseOutcome oc;
      oc.executed = true;
      oc.quarantined = tokens[1] == "1";
      open_sigs = to_size(tokens[2]);
      open_case = &out->outcomes.emplace(index, std::move(oc)).first->second;
    } else if (key == "sig") {
      if (open_case == nullptr ||
          open_case->signatures.size() >= open_sigs)
        return false;
      auto tokens = split_fields(rest);
      if (tokens.empty()) return false;
      Signature sig;
      if (!field_dec(tokens[0], &sig.detector)) return false;
      for (std::size_t i = 1; i < tokens.size(); ++i) {
        std::string component;
        if (!field_dec(tokens[i], &component)) return false;
        sig.vector.push_back(std::move(component));
      }
      open_case->signatures.push_back(std::move(sig));
    } else if (key == "end") {
      if (open_case != nullptr && open_sigs != open_case->signatures.size())
        return false;
      if (to_size(rest) != out->outcomes.size()) return false;
      ended = true;
    } else {
      return false;
    }
  }
  return ended;
}

bool write_shard_result(const std::string& state_dir,
                        const ShardResult& result) {
  std::error_code ec;
  fs::create_directories(state_dir + "/shards", ec);
  if (ec) return false;
  return write_file_atomic_durable(
      shard_result_path(state_dir, result.round, result.shard),
      render_shard_result(result));
}

bool load_shard_result(const std::string& state_dir, std::size_t round,
                       std::size_t shard, std::size_t shards,
                       const std::string& config_sig, ShardResult* out) {
  std::ifstream in(shard_result_path(state_dir, round, shard),
                   std::ios::binary);
  if (!in) return false;
  std::stringstream buffer;
  buffer << in.rdbuf();
  if (!parse_shard_result(buffer.str(), out)) return false;
  return out->round == round && out->shard == shard &&
         out->shards == shards && out->config_sig == config_sig;
}

bool merge_shard_outcomes(const std::vector<ShardResult>& results,
                          std::size_t planned_cases,
                          std::vector<CaseOutcome>* out,
                          std::size_t* missing) {
  out->assign(planned_cases, CaseOutcome{});
  for (const auto& result : results) {
    for (const auto& [index, oc] : result.outcomes) {
      if (index >= planned_cases) return false;
      (*out)[index] = oc;
    }
  }
  for (std::size_t i = 0; i < planned_cases; ++i) {
    if (!(*out)[i].executed) {
      if (missing != nullptr) *missing = i;
      return false;
    }
  }
  return true;
}

}  // namespace hdiff::campaign
