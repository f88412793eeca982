// Fuzz/property harness for the REST API handlers (src/serve/api.cpp),
// driven in-process through ApiServer::dispatch: no sockets, so every
// input reaches a handler.
//
// The first input byte picks the route (modulo 5); the remaining bytes
// are the request body, or the query string for GET /jobs:
//   0 POST /predict   1 POST /classify_batch   2 POST /characterize
//   3 POST /encode    4 GET /jobs
//
// One small job store, a KNN Framework trained on it and an ApiServer
// are built once per process. Properties checked on every input:
//   A1  dispatch never faults (ASan/UBSan in CI make violations fatal).
//   A2  the response carries a status the route documents, and its body
//       parses as JSON.
//   A3  a 200 from /classify_batch returns, in order, the labels that
//       Framework::predict_batch gives for the same decoded jobs.
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <initializer_list>
#include <iterator>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include <unistd.h>

#include "core/mcbound.hpp"
#include "serve/api.hpp"
#include "tests/fuzz_common.hpp"

namespace {

void check(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "fuzz_api: property violated: %s\n", what);
    std::abort();
  }
}

struct Route {
  const char* method;
  const char* path;
  std::initializer_list<int> statuses;  ///< what the handler documents
};

const Route kRoutes[] = {
    {"POST", "/predict", {200, 400, 503}},
    {"POST", "/classify_batch", {200, 400, 413, 503}},
    {"POST", "/characterize", {200, 400}},
    {"POST", "/encode", {200, 400}},
    {"GET", "/jobs", {200, 400}},
};

/// The trained service every input is sent to, built on first use.
struct Service {
  std::filesystem::path registry_dir;
  mcb::JobStore store;
  std::unique_ptr<mcb::Framework> framework;
  std::unique_ptr<mcb::ApiServer> api;

  Service()
      : registry_dir(std::filesystem::temp_directory_path() /
                     ("mcb_fuzz_api_" + std::to_string(::getpid()))) {
    // Two recurring apps, one memory-bound and one compute-bound.
    const mcb::TimePoint base = 1704844800;  // 2024-01-10
    mcb::TimePoint last_end = base;
    for (std::uint64_t i = 0; i < 40; ++i) {
      const bool compute = i % 2 == 1;
      mcb::JobRecord job;
      job.job_id = i;
      job.user_name = compute ? "u2" : "u1";
      job.job_name = compute ? "dgemm_app" : "stream_app";
      job.environment = "env";
      job.nodes_requested = job.nodes_allocated = 2;
      job.cores_requested = 96;
      job.submit_time = base + static_cast<mcb::TimePoint>(i) * 3600;
      job.start_time = job.submit_time + 100;
      job.end_time = job.start_time + 900;
      job.perf2 = compute ? 1e15 : 1e6;
      job.perf4 = job.perf5 = compute ? 1e6 : 1e12;
      last_end = job.end_time;
      store.insert(std::move(job));
    }
    mcb::FrameworkConfig config;
    config.registry_dir = registry_dir.string();
    config.model = mcb::ModelKind::kKnn;
    config.alpha_days = 40;
    framework = std::make_unique<mcb::Framework>(config, store);
    check(framework->train_now(last_end + 10).version.has_value(), "setup trains a model");
    api = std::make_unique<mcb::ApiServer>(*framework);
  }

  ~Service() {
    std::error_code ec;
    std::filesystem::remove_all(registry_dir, ec);
  }
};

Service& service() {
  static Service instance;
  return instance;
}

/// A3: the labels of the offline path for the jobs the handler decoded.
void check_batch_labels(const mcb::Framework& framework, const std::string& body,
                        const mcb::Json& response) {
  const auto request = mcb::Json::parse(body);
  check(request.has_value(), "A3 a 200 batch body parses");
  std::vector<mcb::JobRecord> jobs;
  for (const mcb::Json& item : (*request)["jobs"].as_array()) {
    const auto job = mcb::job_from_json(item);
    check(job.has_value(), "A3 every job of a 200 batch decodes");
    jobs.push_back(*job);
  }
  const std::vector<mcb::Label> expected = framework.predict_batch(jobs);
  const auto& labels = response["labels"].as_array();
  check(labels.size() == jobs.size() && expected.size() == jobs.size(),
        "A3 one label per job");
  for (std::size_t i = 0; i < labels.size(); ++i) {
    check(labels[i].as_string() ==
              mcb::boundedness_name(mcb::to_boundedness(expected[i])),
          "A3 served labels equal Framework::predict_batch");
  }
}

}  // namespace

int mcb_fuzz_one(const std::uint8_t* data, std::size_t size) {
  if (size == 0) return 0;
  Service& svc = service();
  const Route& route = kRoutes[data[0] % std::size(kRoutes)];
  const std::string rest(reinterpret_cast<const char*>(data + 1), size - 1);

  mcb::HttpRequest request;
  request.method = route.method;
  request.path = route.path;
  if (request.method == "GET") {
    request.query = rest;
  } else {
    request.body = rest;
  }
  const mcb::HttpResponse response = svc.api->dispatch(request);  // A1

  bool documented = false;
  for (const int status : route.statuses) documented = documented || response.status == status;
  if (!documented) {
    std::fprintf(stderr, "fuzz_api: %s %s answered %d: %s\n", route.method, route.path,
                 response.status, response.body.c_str());
  }
  check(documented, "A2 status is one the route documents");
  const auto body = mcb::Json::parse(response.body);
  check(body.has_value(), "A2 response body is JSON");

  if (std::string_view(route.path) == "/classify_batch" && response.status == 200) {
    check_batch_labels(*svc.framework, rest, *body);
  }
  return 0;
}
