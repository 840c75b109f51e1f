// mgpusw-client — CLI front end for the alignment service daemon.
//
//   $ ./mgpusw-client submit --port=7421 --tenant=alice --rows=4096
//         --cols=4096 --label=chr21
//   job 1 submitted
//   $ ./mgpusw-client progress --port=7421 1      # live stream
//   $ ./mgpusw-client result --port=7421 1        # waits, prints report
//   $ ./mgpusw-client status --port=7421 1
//   $ ./mgpusw-client cancel --port=7421 1
//   $ ./mgpusw-client metrics --port=7421
//   $ ./mgpusw-client shutdown --port=7421 --drain
//
// With --retries=N the client rides through daemon restarts; pair a
// retried submit with --key=... so the journal-backed daemon dedupes
// the resubmission instead of running the job twice.
#include <cstdio>
#include <cstdlib>
#include <string>

#include "base/flags.hpp"
#include "base/json.hpp"
#include "serve/client_lib.hpp"

namespace {

using namespace mgpusw;

void print_status(const serve::JobStatus& status) {
  std::printf("job %lld: %s", static_cast<long long>(status.job_id),
              serve::job_state_name(status.state));
  if (!status.label.empty()) std::printf("  label=%s", status.label.c_str());
  if (status.score >= 0) {
    std::printf("  score=%lld", static_cast<long long>(status.score));
  }
  if (status.restarts > 0) std::printf("  restarts=%d", status.restarts);
  for (const std::string& name : status.lost_devices) {
    std::printf("  lost=%s", name.c_str());
  }
  if (status.resumed_row >= 0) {
    std::printf("  resumed=%lld", static_cast<long long>(status.resumed_row));
  }
  if (!status.error.empty()) {
    std::printf("  error=\"%s\"", status.error.c_str());
  }
  std::printf("\n");
}

std::int64_t job_id_arg(const base::FlagSet& flags) {
  if (flags.positional().size() < 2) {
    std::fprintf(stderr, "error: this command needs a job id\n");
    std::exit(2);
  }
  return std::atoll(flags.positional()[1].c_str());
}

}  // namespace

int main(int argc, char** argv) {
  base::FlagSet flags(
      "Client for mgpusw-serve. Commands: submit, status, progress, "
      "result, cancel, metrics, shutdown");
  flags.add_string("host", "127.0.0.1", "daemon host");
  flags.add_int("port", 7421, "daemon port");
  flags.add_int("timeout-ms", 0, "socket timeout (0 = block)");
  flags.add_string("tenant", "default", "tenant the job is billed to");
  flags.add_string("label", "", "job label (defaults to job-<id>)");
  flags.add_int("priority", 0, "scheduling priority (higher runs first)");
  flags.add_string("query", "", "inline query bases (ACGT)");
  flags.add_string("subject", "", "inline subject bases (ACGT)");
  flags.add_int("rows", 0, "synthetic query length");
  flags.add_int("cols", 0, "synthetic subject length");
  flags.add_int("seed", 1, "synthetic generator seed");
  flags.add_string("key", "",
                   "submit: idempotency key (per tenant) — a resubmit "
                   "with the same key returns the original job");
  flags.add_bool("wait", true, "result: wait for the job to finish");
  flags.add_bool("pretty", true, "result/metrics: pretty-print the JSON");
  flags.add_bool("drain", false,
                 "shutdown: let running jobs finish before exiting");
  flags.add_int("retries", 0,
                "reconnect attempts per request after a connection "
                "failure (0 = fail fast)");
  flags.add_int("retry-backoff-ms", 50, "initial reconnect backoff");
  flags.add_int("retry-max-backoff-ms", 2000, "reconnect backoff cap");
  if (!flags.parse(argc, argv)) return 0;
  if (flags.positional().empty()) {
    std::fprintf(stderr,
                 "error: no command (submit | status | progress | result "
                 "| cancel | metrics | shutdown)\n");
    return 2;
  }
  const std::string command = flags.positional()[0];

  try {
    serve::ReconnectPolicy policy;
    policy.max_attempts = static_cast<int>(flags.get_int("retries"));
    policy.initial_backoff_ms = flags.get_int("retry-backoff-ms");
    policy.max_backoff_ms = flags.get_int("retry-max-backoff-ms");
    serve::ServeClient client = serve::ServeClient::connect(
        flags.get_string("host"),
        static_cast<std::uint16_t>(flags.get_int("port")),
        flags.get_int("timeout-ms"), policy);

    if (command == "submit") {
      serve::SubmitRequest request;
      request.tenant = flags.get_string("tenant");
      request.label = flags.get_string("label");
      request.priority = static_cast<int>(flags.get_int("priority"));
      request.query = flags.get_string("query");
      request.subject = flags.get_string("subject");
      request.rows = flags.get_int("rows");
      request.cols = flags.get_int("cols");
      request.seed = flags.get_int("seed");
      request.idempotency_key = flags.get_string("key");
      const std::int64_t job_id = client.submit(request);
      std::printf("job %lld submitted\n", static_cast<long long>(job_id));
    } else if (command == "status") {
      print_status(client.status(job_id_arg(flags)));
    } else if (command == "progress") {
      const serve::JobStatus final_status = client.stream_progress(
          job_id_arg(flags), [](const serve::ProgressUpdate& update) {
            std::fprintf(stderr, "\rjob %lld: %lld/%lld units",
                         static_cast<long long>(update.job_id),
                         static_cast<long long>(update.completed_units),
                         static_cast<long long>(update.total_units));
          });
      std::fprintf(stderr, "\n");
      print_status(final_status);
    } else if (command == "result") {
      const serve::JobStatus status =
          client.result(job_id_arg(flags), flags.get_bool("wait"));
      print_status(status);
      if (!status.result_json.empty()) {
        // Round-trip through base::json for the pretty layout.
        const std::string report =
            flags.get_bool("pretty")
                ? base::json::dump(base::json::parse(status.result_json),
                                   base::JsonWriter::kPretty)
                : status.result_json;
        std::printf("%s\n", report.c_str());
      }
    } else if (command == "cancel") {
      print_status(client.cancel(job_id_arg(flags)));
    } else if (command == "metrics") {
      const std::string snapshot = client.metrics_json();
      const std::string report =
          flags.get_bool("pretty")
              ? base::json::dump(base::json::parse(snapshot),
                                 base::JsonWriter::kPretty)
              : snapshot;
      std::printf("%s\n", report.c_str());
    } else if (command == "shutdown") {
      client.shutdown_server(flags.get_bool("drain"));
      std::printf("server shutting down%s\n",
                  flags.get_bool("drain") ? " (draining)" : "");
    } else {
      std::fprintf(stderr, "error: unknown command \"%s\"\n",
                   command.c_str());
      return 2;
    }
  } catch (const serve::ServeError& e) {
    std::fprintf(stderr, "server error [%s]: %s\n", e.code().c_str(),
                 e.what());
    return 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  return 0;
}
