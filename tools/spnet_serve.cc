// spnet_serve: persistent multi-tenant query daemon over the spGEMM
// engine.
//
// Transport: newline-delimited JSON over stdin/stdout. Each input line is
// one request object (see serve/wire.h for the schema):
//
//   {"id":"q1","tenant":"t0","source":"as-caida",
//    "algorithm":"reorganizer","priority":1,"deadline_ms":250}
//
// and each output line is one response object — either the measurement or
// an error ("ok":false with the status code/message). Responses stream in
// completion order, not submission order; correlate by "id". Admission
// rejections (full queue, exhausted tenant quota, draining) are reported
// the same way, with code "ResourceExhausted" / "FailedPrecondition", so a
// load generator can distinguish shed load from failed work.
//
// Usage:
//   spnet_serve [--workers N] [--queue 64] [--plan_cache 64] [--shards 8]
//               [--quota_capacity C --quota_refill R]   (default tenant quota)
//               [--pin src1,src2,...]  (preload + never evict)
//               [--store_capacity 8]   (unpinned resident matrices)
//               [--scale 0.05] [--seed 42] [--cache dir]
//               [--deadline_ms D] [--fallback outer-product]
//               [--device titanxp|v100|2080ti] [--threads N]
//               [--metrics_out stats.json]
//
// Any other `--name` is refused with "unknown flag --name", a numeric
// flag whose value is not wholly a number (`--workers 2x`) with "malformed
// number --workers=2x", and any other --device with "unknown device", all
// exit 2 before the daemon starts.
//
// Shutdown: EOF on stdin or SIGTERM/SIGINT begins a graceful drain — no
// new requests are admitted, queued and in-flight requests finish and
// their responses are written, then the daemon flushes --metrics_out (the
// Server::StatsJson document: serve.* counters, p50/p99/p999 latency
// percentiles, plan-cache and matrix-store state) and exits 0.

#include <csignal>
#include <cstdio>
#include <string>
#include <utility>

#include "common/flags.h"
#include "common/mutex.h"
#include "common/parallel.h"
#include "common/status.h"
#include "engine/request.h"
#include "gpusim/device_spec.h"
#include "metrics/json_writer.h"
#include "serve/server.h"
#include "serve/wire.h"

namespace spnet {
namespace {

// Signal disposition, written by the handler and polled by the read loop.
// sig_atomic_t (not bool) because that is the only type the C standard
// guarantees async-signal-safe to write — a mutex or std::atomic is not an
// option inside a signal handler.
// spnet-lint: allow(global-mutable-state)
volatile std::sig_atomic_t g_signal = 0;

void HandleSignal(int signum) { g_signal = signum; }

/// Installs `HandleSignal` without SA_RESTART, so a signal interrupts the
/// blocking stdin read (fgets returns with EINTR) instead of being
/// deferred until the next request line arrives.
void InstallSignalHandlers() {
  struct sigaction action = {};
  action.sa_handler = HandleSignal;
  sigemptyset(&action.sa_mask);
  action.sa_flags = 0;
  sigaction(SIGTERM, &action, nullptr);
  sigaction(SIGINT, &action, nullptr);
}

/// Serializes response lines from concurrent worker callbacks. stdout is
/// the protocol channel; interleaved partial lines would corrupt it.
class ResponseWriter {
 public:
  void Write(const engine::Response& response) {
    const std::string line = serve::SerializeResponse(response);
    MutexLock lock(&mu_);
    std::fwrite(line.data(), 1, line.size(), stdout);
    std::fputc('\n', stdout);
    std::fflush(stdout);
  }

 private:
  // mu_ serializes whole-line writes to the process-global stdout stream,
  // so there is no member to GUARDED_BY.
  // spnet-lint: allow(lock-discipline)
  Mutex mu_;
};

serve::ServeOptions OptionsFromFlags(const FlagParser& flags,
                                     const gpusim::DeviceSpec& device) {
  serve::ServeOptions options;
  options.workers = static_cast<int>(flags.GetInt("workers", 2));
  options.queue_capacity =
      static_cast<size_t>(std::max<int64_t>(1, flags.GetInt("queue", 64)));
  options.default_quota.capacity = flags.GetDouble("quota_capacity", 0.0);
  options.default_quota.refill_per_sec = flags.GetDouble("quota_refill", 0.0);
  options.engine.plan_cache_capacity = static_cast<size_t>(
      std::max<int64_t>(0, flags.GetInt("plan_cache", 64)));
  options.plan_cache_shards =
      static_cast<size_t>(std::max<int64_t>(1, flags.GetInt("shards", 8)));
  options.engine.fallback_algorithm =
      flags.GetString("fallback", options.engine.fallback_algorithm);
  options.engine.default_deadline_ms = flags.GetDouble("deadline_ms", 0.0);
  options.engine.device = device;
  options.store.capacity = static_cast<size_t>(
      std::max<int64_t>(0, flags.GetInt("store_capacity", 8)));
  options.store.load.scale = flags.GetDouble("scale", options.store.load.scale);
  options.store.load.seed = static_cast<uint64_t>(flags.GetInt("seed", 42));
  options.store.load.dataset_cache_dir = flags.GetString("cache", "");

  std::string pin = flags.GetString("pin", "");
  while (!pin.empty()) {
    const size_t comma = pin.find(',');
    const std::string source = pin.substr(0, comma);
    if (!source.empty()) options.pinned_sources.push_back(source);
    if (comma == std::string::npos) break;
    pin.erase(0, comma + 1);
  }
  return options;
}

int Run(int argc, char** argv) {
  // Every flag the daemon reads (see the usage above).
  const std::string unknown = FirstUnknownFlag(
      argc, argv,
      {"workers", "queue", "plan_cache", "shards", "quota_capacity",
       "quota_refill", "pin", "store_capacity", "scale", "seed", "cache",
       "deadline_ms", "fallback", "device", "threads", "metrics_out"});
  if (!unknown.empty()) {
    std::fprintf(stderr, "spnet_serve: unknown flag %s\n", unknown.c_str());
    return 2;
  }
  FlagParser flags;
  if (!flags.Parse(argc, argv).ok()) {
    std::fprintf(stderr, "usage: spnet_serve [flags] "
                         "(see the header comment of tools/spnet_serve.cc)\n");
    return 2;
  }
  const std::string malformed = FirstMalformedNumber(
      flags,
      {"workers", "queue", "plan_cache", "shards", "store_capacity", "seed",
       "threads"},
      {"quota_capacity", "quota_refill", "deadline_ms", "scale"});
  if (!malformed.empty()) {
    std::fprintf(stderr, "spnet_serve: malformed number %s\n",
                 malformed.c_str());
    return 2;
  }
  const Result<gpusim::DeviceSpec> device =
      gpusim::DeviceSpec::FromName(flags.GetString("device", "titanxp"));
  if (!device.ok()) {
    std::fprintf(stderr, "spnet_serve: %s\n",
                 device.status().message().c_str());
    return 2;
  }
  SetGlobalThreadCount(static_cast<int>(flags.GetInt("threads", 0)));
  InstallSignalHandlers();

  serve::Server server(OptionsFromFlags(flags, *device));
  const Status started = server.Start();
  if (!started.ok()) {
    std::fprintf(stderr, "error: %s\n", started.ToString().c_str());
    return 1;
  }
  std::fprintf(stderr, "spnet_serve: ready (workers=%d queue=%zu)\n",
               server.options().workers, server.options().queue_capacity);

  ResponseWriter writer;
  std::string line;
  char buffer[1 << 16];
  while (g_signal == 0) {
    if (std::fgets(buffer, sizeof(buffer), stdin) == nullptr) {
      if (g_signal != 0 || std::feof(stdin)) break;
      // EINTR from a signal that was not ours, or transient read error:
      // clear and retry unless the stream is done.
      if (std::ferror(stdin)) {
        std::clearerr(stdin);
        continue;
      }
      break;
    }
    line.assign(buffer);
    while (!line.empty() && (line.back() == '\n' || line.back() == '\r')) {
      line.pop_back();
    }
    if (line.empty()) continue;

    auto wire = serve::ParseRequestLine(line);
    if (!wire.ok()) {
      engine::Response error;
      error.id = "";
      error.status = wire.status();
      writer.Write(error);
      continue;
    }
    const Status submitted = server.SubmitWire(
        *wire, [&writer](const engine::Response& response) {
          writer.Write(response);
        });
    if (!submitted.ok()) {
      // Admission rejections surface as error responses on the same
      // stream, so clients see exactly one line per request line.
      engine::Response rejected;
      rejected.id = wire->id;
      rejected.tenant = wire->tenant;
      rejected.status = submitted;
      writer.Write(rejected);
    }
  }

  std::fprintf(stderr, "spnet_serve: draining (%lld in flight)\n",
               static_cast<long long>(server.in_flight()));
  server.Drain();

  const std::string metrics_out = flags.GetString("metrics_out", "");
  if (!metrics_out.empty()) {
    const Status written =
        metrics::WriteTextFile(metrics_out, server.StatsJson() + "\n");
    if (!written.ok()) {
      std::fprintf(stderr, "error: %s\n", written.ToString().c_str());
      return 1;
    }
    std::fprintf(stderr, "spnet_serve: wrote %s\n", metrics_out.c_str());
  }
  std::fprintf(stderr, "spnet_serve: drained, exiting\n");
  return 0;
}

}  // namespace
}  // namespace spnet

int main(int argc, char** argv) { return spnet::Run(argc, argv); }
