#include <fcntl.h>
#include <poll.h>
#include <sys/inotify.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <numeric>
#include <stdexcept>

#include "bench.h"

namespace hdbench {
namespace {

using hdiff::impls::HttpImplementation;

class CountingImplementation final
    : public hdiff::impls::ImplementationDecorator {
 public:
  CountingImplementation(const HttpImplementation& inner, CallTally& tally)
      : ImplementationDecorator(inner), tally_(tally) {}

  hdiff::impls::ServerVerdict parse_request(
      std::string_view raw) const override {
    const std::uint64_t t0 = now_ns();
    auto out = inner_.parse_request(raw);
    tally(0, t0);
    return out;
  }
  hdiff::impls::ProxyVerdict forward_request(
      std::string_view raw) const override {
    const std::uint64_t t0 = now_ns();
    auto out = inner_.forward_request(raw);
    tally(1, t0);
    return out;
  }
  std::string respond(std::string_view raw) const override {
    const std::uint64_t t0 = now_ns();
    auto out = inner_.respond(raw);
    tally(2, t0);
    return out;
  }
  hdiff::impls::RelayOutcome relay_response(
      std::string_view backend_bytes,
      hdiff::http::Method request_method) const override {
    const std::uint64_t t0 = now_ns();
    auto out = inner_.relay_response(backend_bytes, request_method);
    tally(3, t0);
    return out;
  }

 private:
  void tally(std::size_t entry, std::uint64_t t0) const {
    tally_.ns[entry].add(now_ns() - t0);
    tally_.calls[entry].add();
  }

  CallTally& tally_;
};

std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

std::vector<std::size_t> permutation(std::size_t n, std::uint64_t seed) {
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), std::size_t{0});
  if (seed == 0) return order;
  std::uint64_t state = seed;
  for (std::size_t i = n; i > 1; --i) {
    std::swap(order[i - 1], order[splitmix64(state) % i]);
  }
  return order;
}

Fleet counted_fleet(const Fleet& inner, CallTally& tally) {
  Fleet out;
  out.reserve(inner.size());
  for (const auto& member : inner) {
    out.push_back(std::make_unique<CountingImplementation>(*member, tally));
  }
  return out;
}

CommitWatcher::CommitWatcher(const std::string& dir) {
  inotify_fd_ = ::inotify_init1(IN_CLOEXEC | IN_NONBLOCK);
  if (inotify_fd_ < 0 ||
      ::inotify_add_watch(inotify_fd_, dir.c_str(), IN_MOVED_TO) < 0 ||
      ::pipe2(stop_pipe_, O_CLOEXEC) != 0) {
    const std::string why = std::strerror(errno);
    if (inotify_fd_ >= 0) ::close(inotify_fd_);
    throw std::runtime_error("cannot watch " + dir + ": " + why);
  }
  thread_ = std::thread([this] { loop(); });
}

CommitWatcher::~CommitWatcher() {
  stop();
  ::close(inotify_fd_);
  ::close(stop_pipe_[0]);
  ::close(stop_pipe_[1]);
}

std::vector<std::uint64_t> CommitWatcher::stop() {
  if (thread_.joinable()) {
    const char byte = 's';
    while (::write(stop_pipe_[1], &byte, 1) < 0 && errno == EINTR) {
    }
    thread_.join();
  }
  return stamps_;
}

void CommitWatcher::loop() {
  pollfd fds[2] = {{inotify_fd_, POLLIN, 0}, {stop_pipe_[0], POLLIN, 0}};
  for (;;) {
    if (::poll(fds, 2, -1) < 0) {
      if (errno == EINTR) continue;
      return;
    }
    if (fds[0].revents & POLLIN) drain(&stamps_);
    if (fds[1].revents & POLLIN) {
      drain(&stamps_);
      return;
    }
  }
}

void CommitWatcher::drain(std::vector<std::uint64_t>* out) {
  alignas(inotify_event) char buf[4096];
  for (;;) {
    const ssize_t n = ::read(inotify_fd_, buf, sizeof buf);
    if (n <= 0) return;
    const std::uint64_t stamp = now_ns();
    for (ssize_t off = 0; off < n;) {
      inotify_event event;
      std::memcpy(&event, buf + off, sizeof event);
      const char* name = buf + off + sizeof(inotify_event);
      if (event.len > 0 && std::strcmp(name, "campaign.state") == 0) {
        out->push_back(stamp);
      }
      off += static_cast<ssize_t>(sizeof(inotify_event) + event.len);
    }
  }
}

namespace {
std::atomic<std::uint64_t> g_fsyncs{0};
}  // namespace

std::uint64_t fsync_calls() { return g_fsyncs.load(); }

}  // namespace hdbench

// The targets of -Wl,--wrap=fsync and -Wl,--wrap=fdatasync: every call the
// linked libraries make lands here first, then in libc.
extern "C" {
int __real_fsync(int fd);
int __real_fdatasync(int fd);

int __wrap_fsync(int fd) {
  hdbench::g_fsyncs.fetch_add(1, std::memory_order_relaxed);
  return __real_fsync(fd);
}

int __wrap_fdatasync(int fd) {
  hdbench::g_fsyncs.fetch_add(1, std::memory_order_relaxed);
  return __real_fdatasync(fd);
}
}

namespace hdbench {

std::size_t peak_rss_kib() {
  rusage self{};
  rusage children{};
  ::getrusage(RUSAGE_SELF, &self);
  ::getrusage(RUSAGE_CHILDREN, &children);
  return static_cast<std::size_t>(
      std::max(self.ru_maxrss, children.ru_maxrss));
}

}  // namespace hdbench
