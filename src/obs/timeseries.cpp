#include "obs/timeseries.hpp"

#include <algorithm>
#include <ostream>
#include <utility>

#include "obs/json.hpp"

namespace dope::obs {

Series::Series(std::string name) : name_(std::move(name)) {}

void Series::fold(TierBucket& bucket, const RawSample& s) {
  if (bucket.count == 0) {
    bucket.first_index = s.index;
    bucket.first_t = s.t;
    bucket.min = bucket.max = s.value;
  } else {
    bucket.min = std::min(bucket.min, s.value);
    bucket.max = std::max(bucket.max, s.value);
  }
  bucket.last_t = s.t;
  bucket.sum += s.value;
  ++bucket.count;
}

void Series::sample(Time t, double value) {
  const RawSample s{total_, t, value};
  if (total_ == 0) {
    seen_min_ = seen_max_ = value;
  } else {
    seen_min_ = std::min(seen_min_, value);
    seen_max_ = std::max(seen_max_, value);
  }
  ++total_;
  total_sum_ += value;
  last_ = value;

  raw_.push(s);
  fold(tier1_accum_, s);
  if (tier1_accum_.count == kTier1FanIn) {
    tier1_.push(tier1_accum_);
    tier1_accum_ = TierBucket{};
  }
  fold(tier2_accum_, s);
  if (tier2_accum_.count == kTier2FanIn) {
    tier2_.push(tier2_accum_);
    tier2_accum_ = TierBucket{};
  }
}

std::vector<RawSample> Series::raw() const { return raw_.ordered(); }
std::vector<TierBucket> Series::tier1() const { return tier1_.ordered(); }
std::vector<TierBucket> Series::tier2() const { return tier2_.ordered(); }

namespace {

void write_tier_json(std::ostream& out, const char* title,
                     const std::vector<TierBucket>& buckets) {
  out << '"' << title << "\": [";
  for (std::size_t i = 0; i < buckets.size(); ++i) {
    const TierBucket& b = buckets[i];
    if (i > 0) out << ", ";
    out << "{\"i\": " << b.first_index << ", \"n\": " << b.count
        << ", \"t0_us\": " << b.first_t << ", \"t1_us\": " << b.last_t
        << ", \"min\": ";
    write_json_number(out, b.min);
    out << ", \"mean\": ";
    write_json_number(out, b.mean());
    out << ", \"max\": ";
    write_json_number(out, b.max);
    out << '}';
  }
  out << ']';
}

}  // namespace

void Series::write_json(std::ostream& out) const {
  out << "{\"samples\": " << total_ << ", \"sum\": ";
  write_json_number(out, total_sum_);
  out << ", \"min\": ";
  write_json_number(out, seen_min());
  out << ", \"max\": ";
  write_json_number(out, seen_max());
  out << ", \"last\": ";
  write_json_number(out, total_ ? last_ : 0.0);
  out << ",\n      \"raw\": [";
  const std::vector<RawSample> raw_samples = raw();
  for (std::size_t i = 0; i < raw_samples.size(); ++i) {
    const RawSample& s = raw_samples[i];
    if (i > 0) out << ", ";
    out << "{\"i\": " << s.index << ", \"t_us\": " << s.t << ", \"v\": ";
    write_json_number(out, s.value);
    out << '}';
  }
  out << "],\n      ";
  write_tier_json(out, "tier10", tier1());
  out << ",\n      ";
  write_tier_json(out, "tier100", tier2());
  out << '}';
}

Series& TimeSeriesStore::series(std::string_view name) {
  const auto it = index_.find(std::string(name));
  if (it != index_.end()) return *series_[it->second];
  index_.emplace(std::string(name), series_.size());
  series_.push_back(std::make_unique<Series>(std::string(name)));
  return *series_.back();
}

const Series* TimeSeriesStore::find(std::string_view name) const {
  const auto it = index_.find(std::string(name));
  return it == index_.end() ? nullptr : series_[it->second].get();
}

void TimeSeriesStore::write_json(std::ostream& out) const {
  // Sorted-name order, not creation order: the bytes written must not
  // depend on which component bound first.
  std::vector<const Series*> sorted;
  sorted.reserve(series_.size());
  for (const auto& s : series_) sorted.push_back(s.get());
  std::sort(sorted.begin(), sorted.end(),
            [](const Series* a, const Series* b) {
              return a->name() < b->name();
            });
  out << "{";
  for (std::size_t i = 0; i < sorted.size(); ++i) {
    if (i > 0) out << ',';
    out << "\n    ";
    write_json_string(out, sorted[i]->name());
    out << ": ";
    sorted[i]->write_json(out);
  }
  if (!sorted.empty()) out << "\n  ";
  out << '}';
}

}  // namespace dope::obs
