// svc-hit: a production-configured vlcsa_serve daemon answering memory-tier
// hits to a closed loop of two client connections.

#include <stdexcept>
#include <thread>

#include "service/server.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

constexpr int kConnections = 2;
constexpr int kSetupReps = 9;  // setup_s is their median

bool reply_ok(const std::string& reply) { return reply.rfind("{\"status\": \"ok\"", 0) == 0; }

}  // namespace

void Daemon::start(const std::string& bin_dir, const std::string& dir) {
  stop();
  dir_ = dir;
  remove_tree(dir_);
  make_dirs(dir_);
  const std::string error = child_.start(daemon_argv(bin_dir, "cache"), dir_, dir_ + "/stdout.log",
                                         dir_ + "/stderr.log");
  if (!error.empty()) throw std::runtime_error("vlcsa_serve: " + error);
  vlcsa::service::ServiceClient probe;
  if (const std::string connect = probe.connect_or_error(socket_path(), 20000);
      !connect.empty()) {
    throw std::runtime_error("vlcsa_serve did not come up: " + connect + " " +
                             read_file(dir_ + "/stderr.log"));
  }
}

std::vector<std::string> Daemon::warm(const std::vector<std::string>& lines, Outcome& out) {
  vlcsa::service::ServiceClient client;
  if (const std::string error = client.connect_or_error(socket_path(), 5000); !error.empty()) {
    throw std::runtime_error("connect: " + error);
  }
  std::vector<std::string> records;
  for (const std::string& line : lines) {
    std::string reply;
    ++out.attempted;
    if (const std::string error = client.roundtrip(line, reply); !error.empty()) {
      throw std::runtime_error("warm-up roundtrip: " + error);
    }
    std::size_t from = 0;
    records.push_back(raw_object_field(reply, "record", from));
    if (!reply_ok(reply) || records.back().empty()) out.fail("warm-up reply: " + reply);
  }
  return records;
}

void Daemon::stop() {
  if (!child_.running()) return;
  {
    vlcsa::service::ServiceClient client;
    std::string reply;
    if (client.connect_or_error(socket_path(), 1000).empty()) {
      (void)client.roundtrip("{\"request\": \"shutdown\"}", reply);
    }
  }
  child_.stop(5000);
}

LoopResult closed_loop(const std::string& socket_path, const std::vector<std::string>& lines,
                       const std::vector<std::string>& records, double seconds, int connections,
                       std::uint64_t seed, Outcome& out, SpanLog* spans) {
  struct PerClient {
    std::vector<double> latencies_s;
    std::vector<double> calibration;
    std::vector<std::pair<Clock::time_point, Clock::time_point>> spans;
    std::vector<std::string> failures;
    std::uint64_t failed = 0;
    std::string error;
  };
  std::vector<PerClient> clients(static_cast<std::size_t>(connections));
  const auto start = Clock::now();
  const auto deadline = start + std::chrono::duration_cast<Clock::duration>(
                                    std::chrono::duration<double>(seconds));
  {
    std::vector<std::thread> threads;
    for (int c = 0; c < connections; ++c) {
      threads.emplace_back([&, c] {
        PerClient& mine = clients[static_cast<std::size_t>(c)];
        vlcsa::service::ServiceClient client;
        if (std::string error = client.connect_or_error(socket_path, 5000); !error.empty()) {
          mine.error = error;
          return;
        }
        std::uint64_t state = derive_seed(seed, 4, static_cast<std::uint64_t>(c));
        std::string reply;
        mine.latencies_s.reserve(1 << 18);
        while (Clock::now() < deadline) {
          const std::size_t pick = static_cast<std::size_t>(splitmix64(state) % lines.size());
          const auto t0 = Clock::now();
          if (std::string error = client.roundtrip(lines[pick], reply); !error.empty()) {
            mine.error = error;
            return;
          }
          const auto t1 = Clock::now();
          mine.latencies_s.push_back(std::chrono::duration<double>(t1 - t0).count());
          if (mine.latencies_s.size() % 2048 == 1) mine.calibration.push_back(calibration_s());
          if (spans != nullptr) mine.spans.emplace_back(t0, t1);
          // A concurrent request for the same key is answered through the
          // single-flight latch ("coalesced") from the same memory-tier hit.
          const bool hit = reply.find("\"cache\": \"hit-memory\"") != std::string::npos ||
                           reply.find("\"cache\": \"coalesced\"") != std::string::npos;
          if (!reply_ok(reply) || !hit || reply.find(records[pick]) == std::string::npos) {
            ++mine.failed;
            if (mine.failures.size() < 3) mine.failures.push_back("reply mismatch: " + reply);
          }
        }
      });
    }
    for (std::thread& thread : threads) thread.join();
  }
  LoopResult result;
  result.wall_s = seconds_since(start);
  for (PerClient& client : clients) {
    if (!client.error.empty()) throw std::runtime_error("client: " + client.error);
    out.attempted += client.latencies_s.size();
    result.latencies_s.insert(result.latencies_s.end(), client.latencies_s.begin(),
                              client.latencies_s.end());
    result.calibration.insert(result.calibration.end(), client.calibration.begin(),
                              client.calibration.end());
    for (const std::string& failure : client.failures) out.fail(failure);
    out.failed += client.failed - client.failures.size();
    if (spans != nullptr) {
      for (const auto& [t0, t1] : client.spans) spans->add("roundtrip", -1, t0, t1);
    }
  }
  return result;
}

void run_svc(const Args& args, Outcome& out) {
  const std::vector<RunKey> keys = svc_key_pool(args.seed, args.tiny);
  std::vector<std::string> lines;
  for (const RunKey& key : keys) lines.push_back(run_line(key));

  // Set-up, repeated on a fresh cache dir each time: daemon spawn to first
  // reply plus warming every key.  The last daemon stays up for the loop.
  std::vector<double> setups;
  std::vector<std::string> records;
  Daemon daemon;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    const auto start = Clock::now();
    daemon.start(args.bin_dir, "svc");
    records = daemon.warm(lines, out);
    setups.push_back(seconds_since(start));
    if (rep + 1 < kSetupReps) daemon.stop();
  }
  Fnv fnv;
  for (const std::string& record : records) fnv.bytes(record);
  if (args.fault == "corrupt-expected") {
    for (std::string& record : records) record[1] = 'X';
  }

  const LoopResult loop = closed_loop(daemon.socket_path(), lines, records, args.seconds,
                                      kConnections, args.seed, out);
  const double rss = peak_rss_mb(daemon.pid());
  daemon.stop();

  // Unscaled: the work runs in the daemon's workers on other vCPUs, which a
  // probe on the client thread does not track (scaling by it widened the
  // run-to-run spread); calibration_us is still reported beside.
  out.add("setup_s", median(setups), "s");
  out.add("op_p50_us", median(loop.latencies_s) * 1e6, "us");
  out.add("ops_per_s", static_cast<double>(loop.latencies_s.size()) / loop.wall_s, "1/s");
  out.add("peak_rss_mb", rss, "MB");
  out.fingerprint["keys"] = std::to_string(keys.size());
  out.fingerprint["requests"] = std::to_string(loop.latencies_s.size());
  out.fingerprint["hit_p99_us"] = std::to_string(quantile(loop.latencies_s, 0.99) * 1e6);
  out.fingerprint["sim_hash"] = fnv.hex();
  out.fingerprint["calibration_us"] = std::to_string(median(loop.calibration) * 1e6);
}

void trace_svc(const Args& args, SpanLog& spans, Outcome& out) {
  const std::vector<RunKey> keys = svc_key_pool(args.seed, args.tiny);
  std::vector<std::string> lines;
  for (const RunKey& key : keys) lines.push_back(run_line(key));
  Daemon daemon;
  daemon.start(args.bin_dir, "svc-trace");
  const std::vector<std::string> records = daemon.warm(lines, out);

  // Alternate untraced and traced windows of the same closed loop.
  const double window = std::max(0.05, args.seconds * 0.1);
  std::vector<double> untraced;
  std::vector<double> traced;
  for (int round = 0; round < 2; ++round) {
    const LoopResult plain = closed_loop(daemon.socket_path(), lines, records, window,
                                         kConnections, args.seed + round, out);
    untraced.insert(untraced.end(), plain.latencies_s.begin(), plain.latencies_s.end());
    const LoopResult with_spans = closed_loop(daemon.socket_path(), lines, records, window,
                                              kConnections, args.seed + round, out, &spans);
    traced.insert(traced.end(), with_spans.latencies_s.begin(), with_spans.latencies_s.end());
  }
  daemon.stop();

  const double p50_us = median(untraced) * 1e6;
  out.add("service.hit_p99_us", quantile(untraced, 0.99) * 1e6, "us");
  out.add("trace_overhead", median(traced) / median(untraced), "ratio");
  out.add("residual_share",
          1.0 - (out.get("service.transport_us") + out.get("service.handle_line_us")) / p50_us,
          "ratio");
}

}  // namespace perfbench
