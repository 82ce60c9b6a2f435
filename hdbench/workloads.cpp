// The four workloads.  Each unit of work starts from nothing but the
// workload seed: it rebuilds its inputs the way the CLI does, so set-up cost
// is measured on every unit, then runs the program's own entry point
// (Pipeline::run, CampaignEngine::run, serve::Supervisor::run).  Traced
// runs pair every traced unit with an untraced one of the same input: the
// pair gives the tracing overhead, and run.py checks the two state dirs are
// byte-identical.
#include <algorithm>
#include <filesystem>
#include <fstream>
#include <set>
#include <stdexcept>

#include "abnf/generator.h"
#include "analysis/coverage.h"
#include "bench.h"
#include "campaign/engine.h"
#include "campaign/store.h"
#include "core/abnf_testgen.h"
#include "core/analyzer.h"
#include "core/export.h"
#include "core/hdiff.h"
#include "core/probes.h"
#include "corpus/registry.h"
#include "impls/products.h"
#include "net/chain.h"
#include "obs/obs.h"
#include "serve/introspect.h"
#include "serve/supervisor.h"

namespace hdbench {
namespace {

namespace fs = std::filesystem;
namespace analysis = hdiff::analysis;
namespace campaign = hdiff::campaign;
namespace core = hdiff::core;
namespace obs = hdiff::obs;

using Layers = std::map<std::string, double>;

double to_ms(std::uint64_t ns) { return static_cast<double>(ns) / 1e6; }

void write_text(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary);
  out << text;
  if (!out) throw std::runtime_error("cannot write " + path);
}

std::string fresh_dir(const Options& o, const std::string& name) {
  const std::string dir = o.work_dir + "/" + name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

template <typename T>
std::vector<T> permuted(std::vector<T> items, std::uint64_t seed) {
  std::vector<T> out;
  out.reserve(items.size());
  for (std::size_t i : permutation(items.size(), seed)) {
    out.push_back(std::move(items[i]));
  }
  return out;
}

/// Histogram quantiles at every candidate tail percentile plus the sample
/// count; run.py applies the tail rule.
void put_histogram(Layers& layers, const std::string& name,
                   obs::Histogram& h) {
  static constexpr std::pair<const char*, double> kQuantiles[] = {
      {"50", 0.5},  {"75", 0.75}, {"90", 0.9},
      {"95", 0.95}, {"99", 0.99}, {"99.9", 0.999}};
  layers[name + "#count"] = static_cast<double>(h.count());
  for (const auto& [label, q] : kQuantiles) {
    layers[name + "@" + label] = h.quantile(q);
  }
}

void put_chain_histograms(Layers& layers, obs::Registry& reg) {
  put_histogram(layers, "net.observe_us",
                reg.histogram("hdiff_chain_observe_micros"));
  put_histogram(layers, "net.forward_us",
                reg.histogram("hdiff_chain_forward_micros"));
  put_histogram(layers, "net.replay_us",
                reg.histogram("hdiff_chain_replay_micros"));
  put_histogram(layers, "net.direct_us",
                reg.histogram("hdiff_chain_direct_micros"));
}

void put_tally(Layers& layers, const CallTally& tally) {
  for (std::size_t e = 0; e < kEntries.size(); ++e) {
    const std::string base = std::string("impls.") + kEntries[e];
    layers[base + ".calls"] = static_cast<double>(tally.calls[e].value());
    layers[base + ".us"] = static_cast<double>(tally.ns[e].value()) / 1e3;
  }
}

/// A benchmark-owned span; `id` is shared by every span of one pass or
/// round so the trace groups them.
void span(obs::TraceSink* sink, const char* name, std::uint64_t start_ns,
          std::uint64_t end_ns, const std::string& id) {
  if (sink == nullptr) return;
  sink->complete(name, "hdbench", start_ns / 1000,
                 (end_ns - start_ns) / 1000, "id", id);
}

// ---- oneshot: the `hdiff run` pipeline ------------------------------------

/// Everything the oneshot gate compares: violations, affected pairs and the
/// Table I matrix, in the order the pipeline produced them.
std::string findings_digest(const core::PipelineResult& r) {
  std::string d;
  for (const auto& v : r.findings.violations) {
    d += v.impl + '|' + v.sr_id + '|' + v.uuid + '|' +
         std::to_string(static_cast<int>(v.category)) + '|' + v.detail + '\n';
  }
  for (const auto& p : r.findings.pairs) {
    d += p.front + '>' + p.back + '|' +
         std::to_string(static_cast<int>(p.attack)) + '|' + p.uuid + '|' +
         p.detail + '\n';
  }
  for (const auto& [name, row] : r.matrix.by_impl) {
    d += name + (row.hrs ? " H" : " .") + (row.hot ? "H" : ".") +
         (row.cpdos ? "C\n" : ".\n");
  }
  for (const auto* set : {&r.matrix.hrs_pairs, &r.matrix.hot_pairs,
                          &r.matrix.cpdos_pairs}) {
    for (const auto& p : *set) d += p + ';';
    d += '\n';
  }
  return d;
}

Unit oneshot_pass(const Options& o, std::size_t k, obs::Observability ob,
                  CallTally* tally, core::PipelineResult* out) {
  Unit unit;
  const std::uint64_t t0 = now_ns();
  // The seed permutes the fleet: the order in which the chain meets the
  // products.  Findings, as sets, do not depend on it.
  const Fleet fleet =
      permuted(hdiff::impls::make_all_implementations(), o.seed);
  Fleet counted;
  if (tally != nullptr) counted = counted_fleet(fleet, *tally);
  core::PipelineConfig config;
  config.executor.jobs = o.jobs;
  config.obs = ob;
  const core::Pipeline pipeline(config);
  const std::uint64_t t1 = now_ns();
  *out = pipeline.run(tally != nullptr ? counted : fleet);
  const std::uint64_t t2 = now_ns();
  span(ob.trace, "hdbench:pass", t1, t2, "pass-" + std::to_string(k));
  // The first case runs when the `differential` stage starts: set-up is the
  // fleet and the pipeline plus the analyze and generation stages before
  // it, as the pass itself timed them.
  std::uint64_t before_cases_ns = 0;
  for (const auto& st : out->stage_timings) {
    if (st.stage == "differential") break;
    before_cases_ns += st.micros * 1000;
  }
  before_cases_ns = std::min(before_cases_ns, t2 - t1);
  unit.setup_ns = t1 - t0 + before_cases_ns;
  unit.wall_ns = t2 - t1 - before_cases_ns;
  unit.round_ns = {t2 - t1};
  unit.cases = out->executed_cases.size();
  unit.findings = out->findings.violations.size() + out->findings.pairs.size();
  unit.failed = out->exec_stats.quarantined_cases;
  return unit;
}

Result run_oneshot(const Options& o) {
  Result res;
  std::string first_digest;
  const auto check = [&](const core::PipelineResult& r, std::size_t k) {
    const std::string d = findings_digest(r);
    if (first_digest.empty()) {
      first_digest = d;
      res.export_path = o.work_dir + "/oneshot-export.json";
      write_text(res.export_path, core::export_json(r));
    } else if (d != first_digest) {
      res.errors.push_back("oneshot pass " + std::to_string(k) +
                           " findings differ from the first pass");
    }
  };
  const auto plain_pass = [&](std::size_t k) {
    core::PipelineResult plain;
    res.units.push_back(oneshot_pass(o, k, {}, nullptr, &plain));
    check(plain, k);
  };
  for (std::size_t k = 0; k < o.units; ++k) {
    if (!o.trace) {
      plain_pass(k);
      continue;
    }
    // Twins alternate which runs first, so warm-up favours neither side of
    // the overhead ratio.
    if (k % 2 == 0) plain_pass(k);

    // Traced twin: metrics + spans on, every model call counted and timed.
    obs::Registry registry;
    obs::TraceSink sink;
    CallTally tally;
    core::PipelineResult traced;
    Unit unit =
        oneshot_pass(o, k, {&registry, &sink, nullptr}, &tally, &traced);
    check(traced, k);
    unit.traced = true;
    Layers& L = unit.layers;
    for (const auto& st : traced.stage_timings) {
      const double stage_ms = static_cast<double>(st.micros) / 1e3;
      if (st.stage == "analyze") {
        L["core.analyze_ms"] += stage_ms;
      } else if (st.stage == "differential") {
        L["core.differential_ms"] += stage_ms;
        L["core.execute_ms"] += stage_ms;
      } else if (st.stage != "build-matrix") {
        L["core.generate_ms"] += stage_ms;
      }
    }
    const core::ExecutorStats& s = traced.exec_stats;
    L["core.memo_hit_ratio"] = s.memo_hit_rate();
    L["core.verdict_hit_ratio"] = s.verdict_hit_rate();
    L["core.memo_bytes"] = static_cast<double>(s.memo_bytes);
    L["core.verdict_bytes"] = static_cast<double>(s.verdict_bytes);
    put_chain_histograms(L, registry);
    put_tally(L, tally);
    if (res.trace_path.empty()) {
      res.trace_path = o.work_dir + "/trace-oneshot.json";
      write_text(res.trace_path, sink.render_chrome_json());
    }
    res.units.push_back(std::move(unit));
    if (k % 2 == 1) plain_pass(k);
  }
  return res;
}

// ---- campaign workloads: campaign, streams, serve --------------------------

enum class Kind { kCampaign, kStreams, kServe };

/// `hdiff lint`'s generator entry points; the coverage plan's roots.
std::vector<std::string> lint_roots() {
  std::vector<std::string> roots{"http-message"};
  for (const auto& target : core::default_abnf_targets()) {
    roots.push_back(target.rule);
  }
  return roots;
}

/// A campaign's inputs, built as `hdiff campaign run` / `hdiff serve` build
/// them (tools/hdiff_cli.cpp: one_shot_corpus, campaign_coverage_plan),
/// with the time each part took.
struct Inputs {
  std::vector<core::TestCase> bootstrap;
  analysis::CoveragePlan plan;
  Fleet fleet;
  Layers setup;  ///< core.analyze_ms, core.generate_ms, ...
};

Inputs build_inputs(Kind kind, std::uint64_t seed) {
  Inputs in;
  if (kind == Kind::kStreams) {
    in.bootstrap = core::verification_probes();  // `--mini`
  } else {
    // The one-shot corpus: the pipeline over an empty fleet runs only the
    // generation stages.
    const core::Pipeline pipeline;
    const Fleet empty;
    core::PipelineResult r = pipeline.run(empty);
    for (const auto& st : r.stage_timings) {
      const char* key =
          st.stage == "analyze" ? "core.analyze_ms" : "core.generate_ms";
      in.setup[key] += static_cast<double>(st.micros) / 1e3;
    }
    in.bootstrap = std::move(r.executed_cases);
  }
  // Serve workers rebuild the CLI's bootstrap themselves and refuse any
  // other (config signature), so only the in-process workloads permute it.
  // Rounds >= 1 do not depend on bootstrap order, so the permutation moves
  // round 0's case order and nothing else.
  if (kind != Kind::kServe) {
    in.bootstrap = permuted(std::move(in.bootstrap), seed);
  }

  std::uint64_t t = now_ns();
  core::DocumentationAnalyzer analyzer;
  const auto analysis_result =
      analyzer.analyze(hdiff::corpus::http_core_documents());
  in.setup["core.analyze_ms"] += to_ms(now_ns() - t);
  t = now_ns();
  in.plan = analysis::build_coverage_plan(analysis_result.grammar,
                                          lint_roots());
  if (kind != Kind::kStreams) {
    // Bootstrap cone: the rules the default ABNF targets expand.
    hdiff::abnf::Generator gen(analysis_result.grammar);
    hdiff::abnf::load_default_http_predefined(gen);
    std::set<std::string> tapped;
    gen.set_coverage_tap(&tapped);
    for (const auto& target : core::default_abnf_targets()) {
      gen.enumerate(target.rule, 64);
    }
    gen.set_coverage_tap(nullptr);
    for (const auto& name : tapped) {
      const std::size_t id = in.plan.id_of(name);
      if (id != analysis::CoveragePlan::npos) {
        in.plan.bootstrap_covered.insert(id);
      }
    }
  }
  in.setup["analysis.coverage_plan_ms"] = to_ms(now_ns() - t);
  in.fleet = hdiff::impls::make_all_implementations();
  return in;
}

campaign::CampaignConfig campaign_config(const Options& o, Kind kind,
                                         const Inputs& in,
                                         const std::string& dir) {
  campaign::CampaignConfig c;
  c.state_dir = dir;
  c.rounds = o.rounds;
  c.budget_per_round = kind == Kind::kStreams ? 16 : 400;
  c.minimize_new = true;
  c.executor.jobs = kind == Kind::kServe ? 1 : o.jobs;
  c.bootstrap = in.bootstrap;
  c.coverage = in.plan;
  if (kind == Kind::kStreams) {
    c.streams = true;
    c.stream_budget_per_round = 256;
  }
  return c;
}

/// Turns the checkpoint publish stamps of one campaign into the unit's
/// set-up, per-round latency and wall time.  Stamp 0 is store init; stamp
/// k + 1 commits round k.  Seed registration happens between the two, so it
/// lands in round 0 here (the traced run times it as campaign.store_init_ms).
bool fill_from_stamps(Unit& unit, std::uint64_t t0,
                      const std::vector<std::uint64_t>& stamps,
                      std::size_t rounds, std::string* error) {
  if (stamps.size() != rounds + 2) {
    *error = "expected " + std::to_string(rounds + 2) +
             " checkpoint publishes, saw " + std::to_string(stamps.size());
    return false;
  }
  unit.setup_ns = stamps[0] - t0;
  unit.wall_ns = stamps.back() - stamps[0];
  for (std::size_t k = 1; k < stamps.size(); ++k) {
    unit.round_ns.push_back(stamps[k] - stamps[k - 1]);
  }
  return true;
}

/// `hdiff campaign run`: CampaignEngine::run on the CLI's inputs.
Unit engine_unit(const Options& o, Kind kind, const std::string& name,
                 std::size_t jobs, Result& res) {
  const std::string dir = fresh_dir(o, name);
  Unit unit;
  unit.dir = dir;
  const std::uint64_t t0 = now_ns();
  Inputs in = build_inputs(kind, o.seed);
  campaign::CampaignConfig config = campaign_config(o, kind, in, dir);
  config.executor.jobs = jobs;
  CommitWatcher watcher(dir);
  campaign::CampaignEngine engine(std::move(config));
  const campaign::CampaignReport report = engine.run(in.fleet);
  const std::vector<std::uint64_t> stamps = watcher.stop();
  std::string error = report.error;
  if (error.empty()) fill_from_stamps(unit, t0, stamps, o.rounds, &error);
  if (!error.empty()) res.errors.push_back(name + ": " + error);
  for (const auto& rr : report.rounds) {
    unit.cases += rr.cases;
    unit.failed += rr.quarantined;
  }
  unit.findings = report.novel_total;
  return unit;
}

std::uint64_t file_size(const std::string& path) {
  std::error_code ec;
  const auto n = fs::file_size(path, ec);
  return ec ? 0 : static_cast<std::uint64_t>(n);
}

/// The traced twin of engine_unit: the same campaign driven round by round
/// through the public hooks CampaignEngine::run itself calls (plan_round ->
/// execute_round -> integrate_round -> StateStore::commit_round), each call
/// timed, with metrics, spans and the counting fleet on.  Its state dir
/// must come out byte-identical to the untraced engine's.
Unit traced_campaign_unit(const Options& o, Kind kind,
                          const std::string& name, Result& res) {
  const std::string dir = fresh_dir(o, name);
  Unit unit;
  unit.dir = dir;
  unit.traced = true;
  Layers& L = unit.layers;
  const std::uint64_t t0 = now_ns();
  Inputs in = build_inputs(kind, o.seed);
  L = in.setup;
  CallTally tally;
  const Fleet counted = counted_fleet(in.fleet, tally);
  obs::Registry registry;
  obs::TraceSink sink;
  campaign::CampaignConfig config = campaign_config(o, kind, in, dir);
  config.obs = {&registry, &sink, nullptr};

  const std::uint64_t init0 = now_ns();
  const std::uint64_t fsyncs0 = fsync_calls();
  campaign::StateStore store(dir);
  if (!store.acquire_lock() ||
      !store.init(campaign::campaign_config_sig(config))) {
    res.errors.push_back(name + ": " + store.error());
    return unit;
  }
  campaign::register_seed_entries(store, config);
  campaign::register_stream_seed_entries(store, config);
  campaign::adopt_coverage(store, config);
  const hdiff::net::Chain chain = hdiff::net::Chain::from_fleet(counted);
  core::ObservationMemo memo;
  hdiff::net::VerdictCache verdicts;
  std::uint64_t prev = now_ns();
  L["campaign.store_init_ms"] = to_ms(prev - init0);
  unit.setup_ns = prev - t0;
  span(&sink, "hdbench:setup", t0, prev, name + "-setup");

  std::size_t memo_hits = 0, memo_lookups = 0, verdict_hits = 0,
              verdict_lookups = 0, novel = 0, duplicate = 0, steps = 0,
              minimize_hits = 0, minimize_lookups = 0,
              minimize_model_calls = 0;
  std::uint64_t checkpoint_bytes = 0;
  for (std::size_t round = 0; round <= o.rounds; ++round) {
    const std::string id = name + "-r" + std::to_string(round);
    const std::uint64_t a = now_ns();
    campaign::RoundPlan plan = campaign::plan_round(store, config, round);
    const std::uint64_t b = now_ns();
    campaign::ExecutedRound executed =
        campaign::execute_round(config, chain, plan.cases, &memo, &verdicts);
    const std::uint64_t c = now_ns();
    // Minimizer attribution: its replays are the only memo and verdict
    // traffic inside integrate_round.
    const std::size_t mh0 = memo.hits(), mm0 = memo.misses();
    const std::size_t vm0 = verdicts.stats().misses;
    campaign::RoundReport rr =
        campaign::integrate_round(store, config, round, plan.cases,
                                  executed.outcomes, chain, &memo, &verdicts);
    const std::size_t dh = memo.hits() - mh0, dm = memo.misses() - mm0;
    minimize_model_calls += verdicts.stats().misses - vm0;
    const std::uint64_t d = now_ns();
    rr.replayed = plan.replayed;
    campaign::emit_round_metrics(config.obs, rr, store);
    if (!store.commit_round(round)) {
      res.errors.push_back(name + ": " + store.error());
      return unit;
    }
    const std::uint64_t e = now_ns();

    unit.round_ns.push_back(e - prev);
    unit.phases_ns.push_back({e - prev, b - a, c - b, d - c, e - d});
    span(&sink, "hdbench:round", prev, e, id);
    span(&sink, "hdbench:plan_round", a, b, id);
    span(&sink, "hdbench:execute_round", b, c, id);
    span(&sink, "hdbench:integrate_round", c, d, id);
    span(&sink, "hdbench:commit_round", d, e, id);
    prev = e;

    unit.cases += rr.cases;
    unit.failed += rr.quarantined;
    memo_hits += executed.stats.memo_hits;
    memo_lookups += executed.stats.memo_hits + executed.stats.memo_misses;
    verdict_hits += executed.stats.verdict_hits;
    verdict_lookups +=
        executed.stats.verdict_hits + executed.stats.verdict_misses;
    novel += rr.novel;
    duplicate += rr.duplicate;
    steps += rr.minimize_steps;
    minimize_hits += dh;
    minimize_lookups += dh + dm;
    checkpoint_bytes += file_size(store.state_path());
  }
  unit.wall_ns = prev - (t0 + unit.setup_ns);
  unit.findings = novel;

  const auto ratio = [](std::size_t num, std::size_t den) {
    return den == 0 ? 0.0
                    : static_cast<double>(num) / static_cast<double>(den);
  };
  L["core.memo_hit_ratio"] = ratio(memo_hits, memo_lookups);
  L["core.verdict_hit_ratio"] = ratio(verdict_hits, verdict_lookups);
  L["core.memo_bytes"] = static_cast<double>(memo.stored_bytes());
  L["core.verdict_bytes"] = static_cast<double>(verdicts.stats().bytes);
  L["campaign.minimize_steps"] = static_cast<double>(steps);
  L["campaign.minimize_memo_hit_ratio"] =
      ratio(minimize_hits, minimize_lookups);
  L["campaign.minimize_model_calls"] =
      static_cast<double>(minimize_model_calls);
  L["campaign.novel_ratio"] = ratio(novel, novel + duplicate);
  L["campaign.state_bytes"] =
      static_cast<double>(file_size(store.state_path()));
  L["campaign.checkpoint_bytes_written"] =
      static_cast<double>(checkpoint_bytes);
  L["campaign.findings_bytes"] =
      static_cast<double>(file_size(store.findings_path()));
  std::size_t corpus_files = 0;
  for ([[maybe_unused]] const auto& entry :
       fs::directory_iterator(dir + "/corpus")) {
    ++corpus_files;
  }
  L["campaign.corpus_files"] = static_cast<double>(corpus_files);
  L["campaign.fsyncs"] = static_cast<double>(fsync_calls() - fsyncs0);
  put_chain_histograms(L, registry);
  put_histogram(L, "stream.observe_us",
                registry.histogram("hdiff_stream_observe_micros"));
  put_histogram(L, "stream.messages_per_connection",
                registry.histogram("hdiff_stream_messages_per_connection"));
  L["stream.observations"] = static_cast<double>(
      registry.counter("hdiff_stream_observations_total").value());
  put_tally(L, tally);
  if (res.trace_path.empty()) {
    res.trace_path = o.work_dir + "/trace-" + o.workload + ".json";
    write_text(res.trace_path, sink.render_chrome_json());
  }
  return unit;
}

/// `hdiff serve --shards N --jobs 1`: the supervisor forks the built CLI
/// as workers.  Metrics are on as the CLI always has them; tracing only in
/// the traced twin, whose stitched trace run.py reads.
Unit serve_unit(const Options& o, const std::string& name, bool traced,
                Result& res) {
  const std::string dir = fresh_dir(o, name);
  Unit unit;
  unit.dir = dir;
  unit.traced = traced;
  const std::uint64_t t0 = now_ns();
  Inputs in = build_inputs(Kind::kServe, o.seed);
  hdiff::serve::ServeConfig sc;
  sc.campaign = campaign_config(o, Kind::kServe, in, dir);
  sc.shards = o.jobs;
  sc.worker_binary = o.hdiff_bin;
  sc.worker_args = {"--budget", "400", "--jobs", "1"};
  obs::Registry registry;
  sc.obs.metrics = &registry;
  sc.campaign.obs.metrics = &registry;
  hdiff::serve::FleetMetrics fleet_metrics(&registry);
  sc.fleet = &fleet_metrics;
  obs::TraceSink sink;
  if (traced) {
    sink.set_process_name("supervisor");
    sc.obs.trace = &sink;
    sc.campaign.obs.trace = &sink;
  }
  hdiff::serve::Supervisor supervisor(std::move(sc), in.fleet);
  const std::uint64_t fsyncs0 = fsync_calls();
  CommitWatcher watcher(dir);
  const hdiff::serve::ServeReport report = supervisor.run();
  const std::vector<std::uint64_t> stamps = watcher.stop();
  std::string error = report.error;
  if (error.empty()) fill_from_stamps(unit, t0, stamps, o.rounds, &error);
  if (!error.empty()) res.errors.push_back(name + ": " + error);
  unit.cases = registry.counter("hdiff_campaign_cases_total").value();
  unit.findings = registry.counter("hdiff_campaign_novel_total").value();
  unit.failed = registry.counter("hdiff_campaign_quarantined_total").value() +
                report.worker_deaths;
  if (traced) {
    unit.layers = in.setup;
    unit.layers["serve.spawns"] = static_cast<double>(report.worker_spawns);
    unit.layers["serve.restarts"] =
        static_cast<double>(report.worker_restarts);
    unit.layers["campaign.fsyncs"] =
        static_cast<double>(fsync_calls() - fsyncs0);
    const std::string path = o.work_dir + "/trace-" + name + ".json";
    write_text(path, sink.render_chrome_json());
    res.serve_traces.push_back(path);
    if (res.trace_path.empty()) res.trace_path = path;
  }
  return unit;
}

Result run_campaign_workload(const Options& o, Kind kind) {
  Result res;
  if (kind == Kind::kStreams) {
    // The streams gate: the same campaign at jobs 1, byte for byte.
    res.reference_dir = engine_unit(o, kind, "ref-jobs1", 1, res).dir;
  }
  for (std::size_t k = 0; k < o.units; ++k) {
    const std::string name = "u" + std::to_string(k);
    const auto plain = [&] {
      res.units.push_back(kind == Kind::kServe
                              ? serve_unit(o, name, false, res)
                              : engine_unit(o, kind, name, o.jobs, res));
    };
    // Twins alternate which runs first, as in run_oneshot.
    if (!o.trace || k % 2 == 0) plain();
    if (o.trace) {
      const std::string twin = name + "t";
      res.units.push_back(kind == Kind::kServe
                              ? serve_unit(o, twin, true, res)
                              : traced_campaign_unit(o, kind, twin, res));
      if (k % 2 == 1) plain();
    }
  }
  return res;
}

}  // namespace

Result run_workload(const Options& o) {
  Result res;
  if (o.workload == "oneshot") {
    res = run_oneshot(o);
  } else if (o.workload == "campaign") {
    res = run_campaign_workload(o, Kind::kCampaign);
  } else if (o.workload == "streams") {
    res = run_campaign_workload(o, Kind::kStreams);
  } else if (o.workload == "serve") {
    res = run_campaign_workload(o, Kind::kServe);
  } else {
    throw std::invalid_argument("unknown workload " + o.workload);
  }
  return res;
}

}  // namespace hdbench
