// Figure 9 reproduction: KNN F1 vs theta — retraining on a theta-sized
// subset of the alpha-window, sampled either "latest-first" or uniformly
// at random (averaged over the paper's 5 seeds {520, 90, 1905, 7, 22}).
//
// Paper shape: more data is better (best at "all"); random sampling
// beats latest-first consistently, with a large gap at small theta that
// shrinks as theta grows — because Fugaku jobs arrive in batches of
// identical jobs, "latest" picks redundant duplicates.
//
// The KNN path serves these sweeps through the index over unique
// training rows (DESIGN.md §11) and searches each distinct test row
// once; predictions — and therefore every F1 in this figure — are
// bit-identical to the brute-force scan by the shared-TopK contract,
// only faster (the duplicate batches above collapse into single index
// points and single queries). bench_fig8_inference_time gates the
// speedup.
#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace mcb;
  const auto flags = CliFlags::parse(
      argc, argv, bench::standard_flags(),
      "usage: bench_fig9_theta_knn [--jobs-per-day N] [--seed S]");
  if (!flags.has_value()) return 2;
  if (flags->help_requested()) return 0;
  const double jobs_per_day = flags->get_double("jobs-per-day", 200.0);
  const auto seed = static_cast<std::uint64_t>(flags->get_int("seed", 15));

  bench::print_banner("Figure 9: KNN F1 with different theta values", "Fig. 9 (§V-C c)",
                      jobs_per_day, seed);

  WorkloadConfig workload_config;
  const JobStore store = bench::build_store(jobs_per_day, seed, &workload_config);
  const Characterizer characterizer(workload_config.machine);
  const FeatureEncoder encoder;
  const OnlineEvaluator evaluator(store, characterizer, encoder);

  bench::run_theta_sweep(ModelKind::kKnn, 30, 100, evaluator);
  return 0;
}
