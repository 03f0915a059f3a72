#include "auction/partial_allocation.h"

#include <algorithm>
#include <cmath>
#include <span>
#include <stdexcept>

namespace themis {
namespace {

/// Sentinel for "no app skipped": the stage-1 market.
constexpr std::size_t kNoSkip = static_cast<std::size_t>(-1);

/// One nonzero dimension of a bid row.
struct Entry {
  int machine;
  int count;
};

/// The market of one PartialAllocation call, built once and shared by
/// stage 1 and every hidden-payment sub-market (which skips one app). Rows
/// are stored sparse — only their nonzero (machine, count) entries — so a
/// capacity check walks the machines a row touches, not every machine of
/// the offer. Per-row data is flat: app i's rows are the global rows
/// row_begin[i] .. row_begin[i + 1], and global row g's entries are
/// entries[entry_begin[g] .. entry_begin[g + 1]].
struct Problem {
  std::size_t apps = 0;
  const std::vector<int>* offered = nullptr;
  std::vector<std::size_t> row_begin;
  /// log V per global row.
  std::vector<double> log_value;
  /// Row visit order per app (local row indices, descending log value),
  /// laid out like log_value.
  std::vector<int> row_order;
  std::vector<std::size_t> entry_begin;
  std::vector<Entry> entries;
  /// Best (max) log value per app, for optimistic pruning bounds.
  std::vector<double> best_log;
  /// Apps by how much they stand to gain (best row vs. zero row), stable.
  std::vector<std::size_t> greedy_order;

  double Log(std::size_t i, int r) const { return log_value[row_begin[i] + r]; }
  std::span<const int> Order(std::size_t i) const {
    return {row_order.data() + row_begin[i], row_order.data() + row_begin[i + 1]};
  }
  std::span<const Entry> Row(std::size_t i, int r) const {
    const std::size_t g = row_begin[i] + r;
    return {entries.data() + entry_begin[g], entries.data() + entry_begin[g + 1]};
  }
};

/// Validates every table against the offer (std::invalid_argument naming
/// `who` on the first violation), then builds the shared problem.
Problem BuildProblem(const std::vector<const BidTable*>& bids,
                     const std::vector<int>& offered, const char* who) {
  std::size_t total_rows = 0;
  for (const BidTable* b : bids) {
    if (b == nullptr)
      throw std::invalid_argument(std::string(who) + ": null bid table");
    const std::string err = ValidateBid(*b, offered);
    if (!err.empty()) throw std::invalid_argument(std::string(who) + ": " + err);
    total_rows += b->rows.size();
  }

  Problem p;
  p.apps = bids.size();
  p.offered = &offered;
  p.row_begin.reserve(bids.size() + 1);
  p.log_value.reserve(total_rows);
  p.row_order.reserve(total_rows);
  p.entry_begin.reserve(total_rows + 1);
  p.best_log.resize(bids.size());
  p.entry_begin.push_back(0);
  for (std::size_t i = 0; i < bids.size(); ++i) {
    const auto& rows = bids[i]->rows;
    const std::size_t base = p.log_value.size();
    p.row_begin.push_back(base);
    double best = -1e18;
    for (std::size_t r = 0; r < rows.size(); ++r) {
      const double log_v = std::log(rows[r].Value());
      p.log_value.push_back(log_v);
      p.row_order.push_back(static_cast<int>(r));
      best = std::max(best, log_v);
      const auto& gpus = rows[r].gpus_per_machine;
      for (std::size_t m = 0; m < gpus.size(); ++m)
        if (gpus[m] != 0) p.entries.push_back({static_cast<int>(m), gpus[m]});
      p.entry_begin.push_back(p.entries.size());
    }
    std::stable_sort(p.row_order.begin() + base, p.row_order.end(),
                     [&](int a, int b) {
                       return p.log_value[base + a] > p.log_value[base + b];
                     });
    p.best_log[i] = best;
  }
  p.row_begin.push_back(p.log_value.size());

  p.greedy_order.resize(bids.size());
  for (std::size_t i = 0; i < bids.size(); ++i) p.greedy_order[i] = i;
  std::stable_sort(p.greedy_order.begin(), p.greedy_order.end(),
                   [&](std::size_t a, std::size_t b) {
                     const double gain_a = p.best_log[a] - p.Log(a, 0);
                     const double gain_b = p.best_log[b] - p.Log(b, 0);
                     return gain_a > gain_b;
                   });
  return p;
}

// Validation guarantees every row fits the offer and the search only ever
// consumes rows that fit, so `remaining` stays >= 0 and a row's zero
// dimensions can never fail a fit: walking the nonzero entries decides
// exactly what the dense per-machine check would.
bool Fits(std::span<const Entry> row, const std::vector<int>& remaining) {
  for (const Entry& e : row)
    if (e.count > remaining[e.machine]) return false;
  return true;
}

void Consume(std::span<const Entry> row, std::vector<int>& remaining, int sign) {
  for (const Entry& e : row) remaining[e.machine] -= sign * e.count;
}

/// One solve of the market over `active` (the apps in input order, minus
/// the skipped one). Rows are indexed by app; a skipped app keeps row 0.
/// Scratch vectors are reused across the sub-markets of one call.
class Solver {
 public:
  Solver(const Problem& p, const PaConfig& config) : p_(p), config_(config) {}

  PfSolution Solve(std::size_t skip) {
    active_.clear();
    for (std::size_t i = 0; i < p_.apps; ++i)
      if (i != skip) active_.push_back(i);
    PfSolution sol;
    if (active_.empty()) return sol;

    std::vector<int> rows(p_.apps, 0);
    GreedySolve(skip, rows);
    LocalSearch(rows);

    // suffix_[k] = sum of best logs over active apps k..end.
    suffix_.assign(active_.size() + 1, 0.0);
    for (std::size_t k = active_.size(); k-- > 0;)
      suffix_[k] = suffix_[k + 1] + p_.best_log[active_[k]];

    best_rows_ = rows;
    best_log_ = TotalLog(rows);
    nodes_ = 0;
    exhausted_ = true;
    work_rows_.assign(p_.apps, 0);
    remaining_ = *p_.offered;
    Bnb(0, 0.0);

    sol.rows = best_rows_;
    sol.log_welfare = best_log_;
    sol.exact = exhausted_;
    sol.nodes = nodes_;
    return sol;
  }

 private:
  double TotalLog(const std::vector<int>& rows) const {
    double total = 0.0;
    for (std::size_t i : active_) total += p_.Log(i, rows[i]);
    return total;
  }

  /// Greedy incumbent: apps in gain order, each taking its best feasible
  /// row. Deterministic.
  void GreedySolve(std::size_t skip, std::vector<int>& rows) {
    remaining_ = *p_.offered;
    for (std::size_t i : p_.greedy_order) {
      if (i == skip) continue;
      for (int r : p_.Order(i)) {
        if (Fits(p_.Row(i, r), remaining_)) {
          rows[i] = r;
          Consume(p_.Row(i, r), remaining_, +1);
          break;
        }
      }
    }
  }

  /// One improvement pass: for each app, try every alternative row holding
  /// the others fixed; accept the best strictly improving switch. Repeats
  /// up to `local_search_passes` times or until a fixed point.
  void LocalSearch(std::vector<int>& rows) {
    remaining_ = *p_.offered;
    for (std::size_t i : active_) Consume(p_.Row(i, rows[i]), remaining_, +1);

    for (int pass = 0; pass < config_.local_search_passes; ++pass) {
      bool improved = false;
      for (std::size_t i : active_) {
        // Free app i's current row, then look for the best feasible row.
        Consume(p_.Row(i, rows[i]), remaining_, -1);
        int best_row = rows[i];
        double best_log = p_.Log(i, rows[i]);
        for (int r : p_.Order(i)) {
          if (p_.Log(i, r) <= best_log) break;  // sorted: no better rows left
          if (Fits(p_.Row(i, r), remaining_)) {
            best_row = r;
            best_log = p_.Log(i, r);
            break;
          }
        }
        if (best_row != rows[i]) {
          rows[i] = best_row;
          improved = true;
        }
        Consume(p_.Row(i, rows[i]), remaining_, +1);
      }
      if (!improved) break;
    }
  }

  void Bnb(std::size_t k, double log_so_far) {
    if (nodes_ >= config_.max_nodes) {
      exhausted_ = false;
      return;
    }
    ++nodes_;
    if (k == active_.size()) {
      if (log_so_far > best_log_) {
        best_log_ = log_so_far;
        best_rows_ = work_rows_;
      }
      return;
    }
    // Optimistic bound: remaining apps all take their best row (capacity-free).
    if (log_so_far + suffix_[k] <= best_log_) return;

    const std::size_t i = active_[k];
    for (int r : p_.Order(i)) {
      const std::span<const Entry> row = p_.Row(i, r);
      if (!Fits(row, remaining_)) continue;
      work_rows_[i] = r;
      Consume(row, remaining_, +1);
      Bnb(k + 1, log_so_far + p_.Log(i, r));
      Consume(row, remaining_, -1);
    }
    work_rows_[i] = 0;
  }

  const Problem& p_;
  const PaConfig& config_;
  std::vector<std::size_t> active_;
  std::vector<double> suffix_;
  std::vector<int> remaining_;
  std::vector<int> work_rows_;
  std::vector<int> best_rows_;
  double best_log_ = -1e18;
  std::int64_t nodes_ = 0;
  bool exhausted_ = true;
};

}  // namespace

PfSolution SolveProportionalFair(const std::vector<const BidTable*>& bids,
                                 const std::vector<int>& offered,
                                 const PaConfig& config) {
  const Problem p = BuildProblem(bids, offered, "SolveProportionalFair");
  return Solver(p, config).Solve(kNoSkip);
}

PaResult PartialAllocation(const std::vector<const BidTable*>& bids,
                           const std::vector<int>& offered,
                           const PaConfig& config) {
  const Problem p = BuildProblem(bids, offered, "PartialAllocation");

  PaResult result;
  result.leftover = offered;
  if (bids.empty()) return result;

  Solver solver(p, config);
  const PfSolution pf = solver.Solve(kNoSkip);
  result.log_welfare = pf.log_welfare;
  result.exact = pf.exact;
  result.nodes = pf.nodes;

  // Hidden payments: compare the others' welfare with and without each app.
  result.winners.resize(bids.size());
  for (std::size_t i = 0; i < bids.size(); ++i) {
    PaWinner& w = result.winners[i];
    w.app = bids[i]->app;
    w.row = pf.rows[i];
    w.granted.assign(offered.size(), 0);

    const std::span<const Entry> row = p.Row(i, w.row);
    if (row.empty()) {
      w.c = 1.0;  // nothing granted, nothing withheld
      continue;
    }
    if (!config.hidden_payments) {
      w.c = 1.0;
      for (const Entry& e : row) {
        w.granted[e.machine] = e.count;
        result.leftover[e.machine] -= e.count;
      }
      continue;
    }

    // Market without app i: the same problem with i skipped.
    const PfSolution without = solver.Solve(i);
    if (!without.exact) result.exact = false;
    result.nodes += without.nodes;

    // Others' log-welfare inside the full optimum.
    double with_log = pf.log_welfare - p.Log(i, w.row);
    // c_i = exp(with - without) <= 1 (removing i frees resources). Clamp to
    // guard against approximate subproblem solutions.
    w.c = std::clamp(std::exp(with_log - without.log_welfare), 0.0, 1.0);

    for (const Entry& e : row) {
      const int granted = static_cast<int>(
          std::floor(w.c * static_cast<double>(e.count) + 1e-9));
      w.granted[e.machine] = granted;
      result.leftover[e.machine] -= granted;
    }
  }
  return result;
}

}  // namespace themis
