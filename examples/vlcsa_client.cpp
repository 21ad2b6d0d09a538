// vlcsa_client — command-line client for the experiment service daemon
// (vlcsa_serve): builds one protocol request from flags, sends it over the
// Unix domain socket or TCP, prints the response line to stdout, and exits 0
// iff the response says "status": "ok".  Protocol reference in DESIGN.md.
//
//   $ ./build/examples/vlcsa_client --socket=/tmp/vlcsa.sock --request=run
//         --experiment=table7.1/n64 --samples=200000 --seed=7
//   $ ./build/examples/vlcsa_client --tcp=127.0.0.1:7411 --request=list
//   $ ./build/examples/vlcsa_client --socket=/tmp/vlcsa.sock --request=metrics
//   $ ./build/examples/vlcsa_client --socket=/tmp/vlcsa.sock --request=shutdown
//   $ ./build/examples/vlcsa_client --socket=/tmp/vlcsa.sock
//         --send='{"request": "describe", "experiment": "eq5.2/n64-uniform"}'

#include <cstdint>
#include <iostream>
#include <string>
#include <vector>

#include "harness/cli.hpp"
#include "harness/json.hpp"
#include "harness/montecarlo.hpp"
#include "harness/report.hpp"
#include "service/server.hpp"

using namespace vlcsa;

namespace {

void print_usage(const service::ClientFlags& connection) {
  std::cout
      << "usage: vlcsa_client (--socket=PATH | --tcp=HOST:PORT)\n"
         "                    (--request=run|run-batch|list|describe|cache-stats\n"
         "                               |metrics|metrics-prom|drain|shutdown\n"
         "                     [--experiment=NAME] [--samples=N] [--seed=S]\n"
         "                     [--eval-path=batched|scalar] [--prefix=P]\n"
         "                     [--run-timeout-ms=T] [--trace] [--trace-id=ID]\n"
         "                     | --send=JSONLINE)\n"
         "                    [--connect-timeout-ms=N] [--timeout-ms=N]\n"
         "                    [--retries=N] [--retry-base-ms=T]\n"
      << connection.usage()
      << "  --request   protocol request to build from the flags below\n"
         "              (metrics-prom prints the Prometheus text exposition\n"
         "              unwrapped from its JSON envelope)\n"
         "  --experiment, --samples, --seed, --eval-path   run/describe fields\n"
         "  --prefix    list filter (experiment-name prefix)\n"
         "  --run-timeout-ms   server-side run deadline (\"timeout_ms\" field)\n"
         "  --trace     ask the server to echo the request's span tree\n"
         "              (\"trace\": true) in the response envelope\n"
         "  --trace-id  correlation id to stamp on the request (\"trace_id\")\n"
         "  --send      send this raw request line instead of building one\n"
         "  --timeout-ms   client I/O deadline: fail instead of hanging if the\n"
         "                 server goes silent (default 0 = wait forever)\n"
         "exit status: 0 response ok, 1 response/transport error, 2 usage error\n";
}

}  // namespace

int main(int argc, char** argv) {
  service::ClientFlags connection("--socket");
  std::string request;
  std::string experiment;
  std::string eval_path;
  std::string prefix;
  std::string raw_line;
  std::uint64_t samples = 0;
  bool samples_given = false;
  std::uint64_t seed = 1;
  bool seed_given = false;
  std::uint64_t run_timeout_ms = 0;
  bool run_timeout_given = false;
  bool trace = false;
  std::string trace_id;

  const auto store_string = [](std::string& field) {
    return [&field](const std::string& value) {
      if (value.empty()) return false;
      field = value;
      return true;
    };
  };
  std::vector<harness::ValueFlag> flags = {
      {"--request", store_string(request)},
      {"--experiment", store_string(experiment)},
      {"--eval-path",
       [&](const std::string& value) {
         harness::EvalPath parsed;  // validate now, forward the text verbatim
         if (!harness::parse_eval_path(value, parsed)) return false;
         eval_path = value;
         return true;
       }},
      {"--prefix", store_string(prefix)},
      {"--send", store_string(raw_line)},
      {"--samples",
       [&](const std::string& value) {
         samples_given = true;
         return harness::parse_u64(value, samples);
       }},
      {"--seed",
       [&](const std::string& value) {
         seed_given = true;
         return harness::parse_u64(value, seed);
       }},
      {"--run-timeout-ms",
       [&](const std::string& value) {
         run_timeout_given = true;
         return harness::parse_u64(value, run_timeout_ms) && run_timeout_ms > 0;
       }},
      {"--timeout-ms",
       [&](const std::string& value) {
         return harness::parse_nonnegative_int(value, connection.options.io_timeout_ms);
       }},
      {"--trace-id", store_string(trace_id)},
  };
  for (harness::ValueFlag& row : connection.rows()) flags.push_back(std::move(row));

  // --trace and --help take no value, so they sit outside the ValueFlag set.
  std::vector<const char*> value_args;
  value_args.push_back(argc > 0 ? argv[0] : "vlcsa_client");
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--trace") {
      trace = true;
    } else if (arg == "--help" || arg == "-h") {
      print_usage(connection);
      return 0;
    } else {
      value_args.push_back(argv[i]);
    }
  }
  if (const std::string error = harness::parse_value_flags(
          static_cast<int>(value_args.size()), value_args.data(), flags);
      !error.empty()) {
    std::cerr << "error: " << error << "\n";
    print_usage(connection);
    return 2;
  }
  if (const std::string error = connection.check(/*endpoint_required=*/true); !error.empty()) {
    std::cerr << "error: " << error << "\n";
    return 2;
  }
  if (request.empty() == raw_line.empty()) {
    std::cerr << "error: exactly one of --request or --send is required\n";
    return 2;
  }

  std::string line = raw_line;
  if (!request.empty()) {
    // Only fields the user supplied go into the request — the service is
    // strict and rejects fields a request type does not take.
    harness::JsonObject object;
    object.add("request", request);
    if (!experiment.empty()) object.add("experiment", experiment);
    if (samples_given) object.add("samples", samples);
    if (seed_given) object.add("seed", seed);
    if (!eval_path.empty()) object.add("eval_path", eval_path);
    if (!prefix.empty()) object.add("prefix", prefix);
    if (run_timeout_given) object.add("timeout_ms", run_timeout_ms);
    if (trace) object.add("trace", true);
    if (!trace_id.empty()) object.add("trace_id", trace_id);
    line = object.render_line();
  }

  // The roundtrip dials; with retries a refused connect is redialed too — a
  // daemon that is still coming up (or rotating) is what retries exist for.
  service::ServiceClient client(connection.options);
  std::string response;
  std::uint64_t retries = 0;
  const std::string transport_error = client.roundtrip(line, response, &retries);
  if (retries > 0) std::cerr << "vlcsa_client: retried " << retries << " time(s)\n";
  if (!transport_error.empty()) {
    std::cerr << "error: " << transport_error << "\n";
    return 1;
  }
  const harness::JsonParse parsed = harness::parse_json(response);
  if (!parsed.ok()) {
    std::cout << response << "\n";
    std::cerr << "error: malformed response: " << parsed.error << "\n";
    return 1;
  }
  const harness::JsonValue* status = parsed.value.find("status");
  const bool ok = status != nullptr && status->kind() == harness::JsonValue::Kind::kString &&
                  status->as_string() == "ok";

  // A body-carrying ok response (metrics-prom) prints its payload unwrapped:
  // the exposition text as a scraper would see it, not the JSON envelope.
  const harness::JsonValue* body = parsed.value.find("body");
  if (ok && body != nullptr && body->kind() == harness::JsonValue::Kind::kString &&
      parsed.value.find("content_type") != nullptr) {
    std::cout << body->as_string();
  } else {
    std::cout << response << "\n";
  }
  return ok ? 0 : 1;
}
