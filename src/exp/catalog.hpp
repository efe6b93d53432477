// The catalog: every name a question to cloudwf can use, and every way to
// refuse one.
//
// A question is (workflow, scenario, seed, strategy). The CLI, /v1/evaluate,
// /v1/rank, /v1/shard, `cloudwf sweep` and the fabric all resolve its names
// here, so one question gets one answer — or one refusal, with one text —
// on every surface:
//
//   workflows   the eight served structures, plus "family:N", a Pegasus
//               family (dag::science::kAllFamilies) scaled to >= N tasks;
//   strategies  the 19 Fig. 4 series, the homogeneous series on xlarge,
//               and the 18 related-work baselines;
//   scenarios   the seven workload::ScenarioKind names;
//   seeds       inclusive [first, last] ranges.
//
// Every rejection throws std::invalid_argument whose message is the text
// each surface reports verbatim (the service wraps it in a 400).
#pragma once

#include <array>
#include <cstdint>
#include <string_view>
#include <vector>

#include "dag/workflow.hpp"
#include "scheduling/factory.hpp"
#include "workload/scenario.hpp"

namespace cloudwf::exp::catalog {

/// Largest "family:N" the service and every sweep grid accept. The
/// service's deadline covers only time in the queue, so this bounds how
/// long one request may hold a worker.
inline constexpr std::uint64_t kMaxServedTasks = 20'000;

/// Largest "family:N" the one-shot CLI commands (run, compare, ...) accept.
inline constexpr std::uint64_t kMaxCliTasks = 1'000'000;

/// Most seeds one /v1/evaluate request may ask for.
inline constexpr std::uint64_t kMaxSeedsPerRequest = 256;

/// The served workflow names, in `cloudwf list` order.
inline constexpr std::array<std::string_view, 8> kWorkflowNames = {
    "montage",     "cstem",      "mapreduce", "sequential",
    "epigenomics", "cybershake", "ligo",      "sipht"};

/// Throws unless `name` is a served workflow or "family:N" with
/// 1 <= N <= max_tasks. Builds nothing, so it is cheap for any N.
void check_workflow(std::string_view name, std::uint64_t max_tasks);

/// The structure `name` names, under check_workflow's rules.
[[nodiscard]] dag::Workflow workflow(std::string_view name,
                                     std::uint64_t max_tasks);

/// Every strategy the catalog accepts under its canonical label: the Fig. 4
/// legend (scheduling::paper_strategies() order), the five xlarge series,
/// then the baselines. Built once; the schedulers are stateless and shared
/// by every caller and thread.
[[nodiscard]] const std::vector<scheduling::Strategy>& strategies();

/// The strategy `label` names: a canonical label, or a homogeneous series
/// spelled with the full size name ("AllParExceed-xlarge"), which resolves
/// to its canonical entry.
[[nodiscard]] const scheduling::Strategy& strategy(std::string_view label);

/// The scenario kind `name` names (workload::name_of's spelling).
[[nodiscard]] workload::ScenarioKind scenario(std::string_view name);

/// Throws when [first, last] is inverted or holds more than `max_count`
/// seeds.
void check_seeds(std::uint64_t first, std::uint64_t last,
                 std::uint64_t max_count);

}  // namespace cloudwf::exp::catalog
