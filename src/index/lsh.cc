#include "index/lsh.h"

#include <algorithm>
#include <string>
#include <utility>

#include "common/check.h"
#include "common/simd.h"

namespace fcm::index {

namespace {

/// Shared tail of Query/QueryBatch: collapse raw probe hits to the sorted
/// unique payload list the public API promises.
std::vector<int64_t> SortedUnique(std::vector<int64_t> hits) {
  std::sort(hits.begin(), hits.end());
  hits.erase(std::unique(hits.begin(), hits.end()), hits.end());
  return hits;
}

}  // namespace

RandomHyperplaneLsh RandomHyperplaneLsh::Build(
    int dim, const LshConfig& config, const std::vector<LshItem>& items,
    common::ThreadPool* pool) {
  FCM_CHECK_GT(dim, 0);
  FCM_CHECK_GT(config.num_bits, 0);
  FCM_CHECK_LE(config.num_bits, 64);
  FCM_CHECK_GT(config.num_tables, 0);
  RandomHyperplaneLsh lsh;
  lsh.dim_ = dim;
  lsh.config_ = config;
  common::Rng rng(config.seed);
  lsh.hyperplane_data_.resize(static_cast<size_t>(config.num_tables) *
                              config.num_bits * static_cast<size_t>(dim));
  for (auto& v : lsh.hyperplane_data_) v = static_cast<float>(rng.Normal());
  lsh.hyperplanes_view_ = lsh.hyperplane_data_;

  // Per-(item, table) codes: the dot products dominate the build and are
  // embarrassingly parallel.
  const size_t tables = static_cast<size_t>(config.num_tables);
  std::vector<uint64_t> codes(items.size() * tables);
  const auto code_item = [&](size_t i) {
    for (size_t t = 0; t < tables; ++t) {
      codes[i * tables + t] =
          lsh.CodeRaw(items[i].embedding, static_cast<int>(t));
    }
  };
  if (pool != nullptr) {
    pool->ParallelFor(items.size(), code_item);
  } else {
    for (size_t i = 0; i < items.size(); ++i) code_item(i);
  }

  // Per table: sorting (code, item index) groups each bucket's items
  // together in item order, so buckets are written straight into the
  // CSR arrays.
  lsh.group_begin_.assign(tables + 1, 0);
  std::vector<std::pair<uint64_t, size_t>> order(items.size());
  for (size_t t = 0; t < tables; ++t) {
    lsh.group_begin_[t] = lsh.codes_.size();
    for (size_t i = 0; i < items.size(); ++i) {
      order[i] = {codes[i * tables + t], i};
    }
    std::sort(order.begin(), order.end());
    for (size_t j = 0; j < order.size(); ++j) {
      const int64_t payload = items[order[j].second].payload;
      if (j == 0 || order[j].first != order[j - 1].first) {
        lsh.codes_.push_back(order[j].first);
        lsh.payload_begin_.push_back(lsh.payloads_.size());
      } else if (lsh.payloads_.back() == payload) {
        continue;  // Adjacent duplicate within the bucket.
      }
      lsh.payloads_.push_back(payload);
    }
  }
  lsh.group_begin_[tables] = lsh.codes_.size();
  lsh.payload_begin_.push_back(lsh.payloads_.size());
  lsh.view_ = Frozen{lsh.hyperplanes_view_, lsh.group_begin_, lsh.codes_,
                     lsh.payload_begin_, lsh.payloads_};
  lsh.num_items_ = items.size();
  return lsh;
}

common::Result<RandomHyperplaneLsh> RandomHyperplaneLsh::FromFrozen(
    int dim, const LshConfig& config, size_t num_items,
    const Frozen& frozen) {
  auto bad = [](const std::string& what) {
    return common::Status::InvalidArgument("lsh frozen data: " + what);
  };
  if (dim <= 0 || config.num_bits <= 0 || config.num_bits > 64 ||
      config.num_tables <= 0) {
    return bad("invalid configuration");
  }
  const size_t groups = static_cast<size_t>(config.num_tables);
  if (frozen.hyperplanes.size() != static_cast<size_t>(config.num_tables) *
                                       config.num_bits *
                                       static_cast<size_t>(dim)) {
    return bad("hyperplane block has the wrong size");
  }
  if (frozen.group_begin.size() != groups + 1) {
    return bad("group_begin length does not match the table count");
  }
  if (frozen.group_begin[0] != 0 ||
      frozen.group_begin[groups] != frozen.codes.size()) {
    return bad("group_begin does not span the code array");
  }
  for (size_t g = 0; g < groups; ++g) {
    if (frozen.group_begin[g] > frozen.group_begin[g + 1]) {
      return bad("group_begin is not monotone");
    }
    for (uint64_t i = frozen.group_begin[g] + 1;
         i < frozen.group_begin[g + 1]; ++i) {
      if (frozen.codes[i - 1] >= frozen.codes[i]) {
        return bad("codes are not strictly increasing within a table");
      }
    }
  }
  if (frozen.payload_begin.size() != frozen.codes.size() + 1) {
    return bad("payload_begin length does not match the code array");
  }
  if (!frozen.payload_begin.empty() &&
      (frozen.payload_begin[0] != 0 ||
       frozen.payload_begin.back() != frozen.payloads.size())) {
    return bad("payload_begin does not span the payload array");
  }
  for (size_t i = 0; i + 1 < frozen.payload_begin.size(); ++i) {
    // Every bucket holds at least one payload (Build never writes an
    // empty one).
    if (frozen.payload_begin[i] >= frozen.payload_begin[i + 1]) {
      return bad("payload_begin is not strictly monotone");
    }
  }

  RandomHyperplaneLsh lsh;
  lsh.dim_ = dim;
  lsh.config_ = config;
  lsh.hyperplanes_view_ = frozen.hyperplanes;
  lsh.view_ = frozen;
  lsh.num_items_ = num_items;
  return lsh;
}

uint64_t RandomHyperplaneLsh::CodeRaw(const float* embedding,
                                      int table) const {
  const auto& kernels = simd::Active();
  uint64_t code = 0;
  for (int b = 0; b < config_.num_bits; ++b) {
    const float dot = kernels.dot_f32(Hyperplane(table, b), embedding,
                                      static_cast<size_t>(dim_));
    // The sign of the dot product rounds the cosine similarity to a bit.
    if (dot >= 0.0f) code |= (1ULL << b);
  }
  return code;
}

uint64_t RandomHyperplaneLsh::Code(const std::vector<float>& embedding,
                                   int table) const {
  FCM_CHECK_EQ(static_cast<int>(embedding.size()), dim_);
  return CodeRaw(embedding.data(), table);
}

void RandomHyperplaneLsh::ProbeTable(int table, uint64_t code,
                                     std::vector<int64_t>* out) const {
  const auto probe_one = [&](uint64_t probe) {
    const uint64_t* begin = view_.codes.data() + view_.group_begin[table];
    const uint64_t* end = view_.codes.data() + view_.group_begin[table + 1];
    const uint64_t* it = std::lower_bound(begin, end, probe);
    if (it == end || *it != probe) return;
    const size_t bucket = static_cast<size_t>(it - view_.codes.data());
    const uint64_t lo = view_.payload_begin[bucket];
    const uint64_t hi = view_.payload_begin[bucket + 1];
    out->insert(out->end(), view_.payloads.data() + lo,
                view_.payloads.data() + hi);
  };
  probe_one(code);
  if (config_.probe_hamming1) {
    for (int b = 0; b < config_.num_bits; ++b) probe_one(code ^ (1ULL << b));
  }
}

std::vector<int64_t> RandomHyperplaneLsh::Query(
    const std::vector<float>& embedding) const {
  std::vector<int64_t> hits;
  for (int t = 0; t < config_.num_tables; ++t) {
    ProbeTable(t, Code(embedding, t), &hits);
  }
  return SortedUnique(std::move(hits));
}

std::vector<std::vector<int64_t>> RandomHyperplaneLsh::QueryBatch(
    const std::vector<std::vector<float>>& embeddings,
    common::ThreadPool* pool) const {
  const size_t n = embeddings.size();
  std::vector<std::vector<int64_t>> out(n);
  if (n == 0) return out;
  if (pool == nullptr) {
    for (size_t i = 0; i < n; ++i) out[i] = Query(embeddings[i]);
    return out;
  }
  const size_t tables = static_cast<size_t>(config_.num_tables);
  // Stage 1: every (embedding, table) pair codes and probes independently,
  // so small batches still spread across the pool.
  std::vector<std::vector<int64_t>> table_hits(n * tables);
  pool->ParallelFor(n * tables, [&](size_t p) {
    const size_t i = p / tables;
    const int t = static_cast<int>(p % tables);
    ProbeTable(t, Code(embeddings[i], t), &table_hits[p]);
  });
  // Stage 2: per-embedding merge, identical to Query's tail.
  pool->ParallelFor(n, [&](size_t i) {
    std::vector<int64_t> hits;
    for (size_t t = 0; t < tables; ++t) {
      const auto& h = table_hits[i * tables + t];
      hits.insert(hits.end(), h.begin(), h.end());
    }
    out[i] = SortedUnique(std::move(hits));
  });
  return out;
}

size_t RandomHyperplaneLsh::MemoryBytes() const {
  return hyperplanes_view_.size() * sizeof(float) +
         (view_.group_begin.size() + view_.codes.size() +
          view_.payload_begin.size()) *
             sizeof(uint64_t) +
         view_.payloads.size() * sizeof(int64_t);
}

}  // namespace fcm::index
