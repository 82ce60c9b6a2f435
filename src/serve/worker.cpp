#include "serve/worker.h"

#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <thread>

#include "campaign/shard.h"
#include "campaign/store.h"
#include "net/chain.h"

namespace hdiff::serve {

namespace {

/// Writes one byte every `interval_ms/2` to the inherited pipe until
/// stopped.  EPIPE (supervisor died) silently stops beating — the worker
/// finishes its shard anyway; the result file is still useful to the next
/// supervisor generation.
class Heartbeat {
 public:
  Heartbeat(int fd, int interval_ms) : fd_(fd) {
    if (fd_ < 0) return;
    const auto period =
        std::chrono::milliseconds(interval_ms > 1 ? interval_ms / 2 : 1);
    thread_ = std::thread([this, period] {
      std::unique_lock<std::mutex> lock(mu_);
      while (!stop_) {
        if (!beat('h')) return;
        cv_.wait_for(lock, period, [this] { return stop_; });
      }
    });
  }

  ~Heartbeat() {
    if (fd_ < 0) return;
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    thread_.join();
  }

  /// Final liveness byte once the result is durably published.
  void done() { beat('D'); }

 private:
  bool beat(char c) {
    if (fd_ < 0) return false;
    while (true) {
      const ssize_t n = ::write(fd_, &c, 1);
      if (n == 1) return true;
      if (n < 0 && errno == EINTR) continue;
      return false;  // EPIPE / supervisor gone
    }
  }

  int fd_;
  std::thread thread_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
};

}  // namespace

int run_worker(
    const WorkerOptions& options,
    const std::vector<std::unique_ptr<impls::HttpImplementation>>& fleet) {
  Heartbeat heartbeat(options.heartbeat_fd, options.heartbeat_interval_ms);

  campaign::StateStore store(options.config.state_dir);
  if (!store.exists() || !store.load_readonly()) return kWorkerStateError;
  // The plan is only shared when worker and supervisor hold the same
  // committed checkpoint AND built it from the same config.  A mismatch is
  // a stale ask (supervisor committed while this worker was queued, or the
  // daemon was restarted with different flags): report it as such so the
  // supervisor re-plans instead of retrying a doomed worker.
  if (store.config_sig != campaign::campaign_config_sig(options.config) ||
      store.rounds_completed != options.round) {
    return kWorkerStale;
  }

  const campaign::RoundPlan plan =
      campaign::plan_round(store, options.config, options.round);
  const campaign::ShardResult result = campaign::execute_shard(
      options.config, net::Chain::from_fleet(fleet), plan, options.round,
      options.shard, options.shards, store.config_sig, options.export_metrics,
      options.export_trace);
  if (!campaign::write_shard_result(options.config.state_dir, result)) {
    return kWorkerStateError;
  }
  heartbeat.done();
  return kWorkerOk;
}

}  // namespace hdiff::serve
