#ifndef MLCS_PERFBENCH_CHECKS_H_
#define MLCS_PERFBENCH_CHECKS_H_

// Correctness checks applied to every op. Each works on plain values the
// benchmark computed itself (or on the output of another data path into
// the engine), never on the engine's own notion of the right answer. Every
// check returns an empty string when the output passes, else the reason.

#include <cstdint>
#include <string>
#include <vector>

#include "storage/table.h"

namespace perfbench::checks {

// -- fig1-indb ---------------------------------------------------------------

/// One row of the per-precinct aggregate (precinct_id, pred_dem, n).
struct PrecinctPrediction {
  int64_t precinct_id = 0;
  int64_t pred_dem = 0;
  int64_t n = 0;
  bool operator==(const PrecinctPrediction&) const = default;
};
/// Sorted by precinct_id.
using PrecinctPredictions = std::vector<PrecinctPrediction>;

/// Actual votes of one precinct, read from the generated `precincts`.
struct PrecinctVotes {
  int64_t precinct_id = 0;
  int64_t dem = 0;
  int64_t rep = 0;
};

/// Converts a (precinct_id, pred_dem, n) result table, sorting by id.
PrecinctPredictions ToPrecinctPredictions(const mlcs::Table& table);

std::string SamePredictions(const PrecinctPredictions& got,
                            const PrecinctPredictions& expected);
/// 0 <= pred_dem <= n for every precinct.
std::string PredictionBounds(const PrecinctPredictions& got);
/// Sum of n plus the training rows equals the number of voters.
std::string RowConservation(const PrecinctPredictions& got,
                            uint64_t train_rows, uint64_t num_voters);
/// Mean absolute error of the predicted dem share against each precinct's
/// actual share, and the same for the constant overall share.
double ShareMae(const PrecinctPredictions& got,
                const std::vector<PrecinctVotes>& votes);
double ConstantShareMae(const PrecinctPredictions& got,
                        const std::vector<PrecinctVotes>& votes);
/// The model must beat the constant-share predictor.
std::string BeatsConstantShare(const PrecinctPredictions& got,
                               const std::vector<PrecinctVotes>& votes);

// -- sql-wire ----------------------------------------------------------------

/// A result set as rows of numbers (every column the rotation returns is
/// an integer, exact in a double).
using Rows = std::vector<std::vector<double>>;

Rows ToRows(const mlcs::Table& table);
/// Equal row for row; when `ordered` is false both sides are compared as
/// sorted multisets.
std::string SameRows(Rows got, const Rows& expected, bool ordered);

// -- serve-forest ------------------------------------------------------------

/// A kOk response whose labels equal one of the two forests' in-process
/// predictions for the request's rows.
std::string ServeResponse(bool code_ok, const std::vector<int32_t>& labels,
                          const std::vector<int32_t>& forest_a,
                          const std::vector<int32_t>& forest_b);
/// Every request sent got a response.
std::string ResponseCount(uint64_t sent, uint64_t received);

}  // namespace perfbench::checks

#endif  // MLCS_PERFBENCH_CHECKS_H_
