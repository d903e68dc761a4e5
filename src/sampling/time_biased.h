// Time-biased reservoir sampling: recent items are exponentially more likely
// to be retained than old ones. Algorithm 5 (ADMIT STATE) evaluates candidate
// layouts on such a sample (the paper uses R-TBS [Hentschel et al., TODS'19]).
//
// Implementation note (documented substitution, see "Substitutions" in
// docs/ARCHITECTURE.md): we realize the exponential time bias with
// Efraimidis–Spirakis weighted reservoir sampling (A-Res) using weight
// w_i = exp(lambda * t_i). Item priorities are kept in log space to avoid
// overflow: maximizing the A-Res key u^(1/w) is equivalent to maximizing
// lambda * t_i - log(e_i)  with e_i ~ Exp(1). This yields the
// same inclusion-probability profile R-TBS targets — the probability an item
// remains in the sample decays exponentially with its age.
#ifndef OREO_SAMPLING_TIME_BIASED_H_
#define OREO_SAMPLING_TIME_BIASED_H_

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "common/rng.h"

namespace oreo {

/// Fixed-size time-biased sample over a stream.
template <typename T>
class TimeBiasedReservoir {
 public:
  /// `lambda` is the decay rate per time unit: an item of age `a` is retained
  /// roughly exp(-lambda * a) as often as a fresh one. lambda = 0 degrades to
  /// uniform reservoir sampling.
  TimeBiasedReservoir(size_t capacity, double lambda, Rng rng)
      : capacity_(capacity), lambda_(lambda), rng_(rng) {
    OREO_CHECK_GT(capacity, 0u);
    OREO_CHECK_GE(lambda, 0.0);
  }

  /// Adds an item observed at time `t` (monotonically non-decreasing).
  void Add(T item, double t) {
    ++seen_;
    double e = rng_.Exponential(1.0);
    double priority = lambda_ * t - std::log(e);
    if (entries_.size() < capacity_) {
      entries_.push_back(Entry{priority, std::move(item)});
      std::push_heap(entries_.begin(), entries_.end(), MinHeapCmp);
      return;
    }
    if (priority > entries_.front().priority) {
      std::pop_heap(entries_.begin(), entries_.end(), MinHeapCmp);
      entries_.back() = Entry{priority, std::move(item)};
      std::push_heap(entries_.begin(), entries_.end(), MinHeapCmp);
    }
  }

  size_t size() const { return entries_.size(); }
  size_t capacity() const { return capacity_; }
  uint64_t seen() const { return seen_; }

  /// Current sample (unordered).
  std::vector<T> Items() const {
    std::vector<T> out;
    out.reserve(entries_.size());
    for (const Entry& e : entries_) out.push_back(e.item);
    return out;
  }

 private:
  struct Entry {
    double priority;
    T item;
  };
  // Min-heap on priority: front() is the eviction candidate.
  static bool MinHeapCmp(const Entry& a, const Entry& b) {
    return a.priority > b.priority;
  }

  size_t capacity_;
  double lambda_;
  Rng rng_;
  uint64_t seen_ = 0;
  std::vector<Entry> entries_;
};

}  // namespace oreo

#endif  // OREO_SAMPLING_TIME_BIASED_H_
