// Experiments E8 + E9 (DESIGN.md): the sketching substrates' contracts.
//
// E8 — F2 heavy hitters (Theorem 2.10): recall of truly φ-heavy coordinates
//      and (1 ± 1/2) frequency accuracy on Zipf streams, plus
//      F2-Contributing's class-hit rate (Theorem 2.11).
// E9 — L0 estimation (Theorem 2.12): relative error vs sketch size, and the
//      1/√k error law of the KMV sketch.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "core/large_set.h"
#include "hash/mersenne.h"
#include "sketch/f2_contributing.h"
#include "sketch/f2_heavy_hitters.h"
#include "sketch/hyperloglog.h"
#include "sketch/l0_estimator.h"
#include "util/random.h"

namespace streamkc {
namespace {

void HeavyHitterContract() {
  bench::Banner("E8: F2 heavy hitters (Theorem 2.10)",
                "return ALL j with a[j]^2 >= phi*F2, values within (1±1/2), "
                "space O~(1/phi)");
  const int num_items = 2000;
  const int seeds = bench::SmallScale() ? 5 : 15;
  bench::Table table({"phi", "zipf_s", "truly heavy", "recall",
                      "val in (1±1/2)", "sketch_KB"});
  for (double phi : {0.05, 0.01, 0.002}) {
    for (double zipf : {1.0, 1.5}) {
      int heavy_total = 0, found_total = 0, val_ok = 0, val_total = 0;
      size_t bytes = 0;
      for (int s = 0; s < seeds; ++s) {
        std::vector<int64_t> freq(num_items);
        double f2 = 0;
        for (int i = 0; i < num_items; ++i) {
          freq[i] = 1 + static_cast<int64_t>(
                            3000.0 / std::pow(i + 1.0, zipf));
          f2 += static_cast<double>(freq[i]) * freq[i];
        }
        const F2HeavyHitters::Config cfg{.phi = phi, .seed = 100u + s};
        const CountSketchRows rows(cfg.depth, SplitMix64(cfg.seed));
        F2HeavyHitters hh(cfg);
        for (int i = 0; i < num_items; ++i) hh.Add(rows, i, freq[i]);
        bytes = hh.MemoryBytes() + rows.MemoryBytes();
        auto out = hh.Extract(rows);
        for (int i = 0; i < num_items; ++i) {
          if (static_cast<double>(freq[i]) * freq[i] < phi * f2) continue;
          ++heavy_total;
          auto it = std::find_if(out.begin(), out.end(),
                                 [i](const HeavyHitter& h) {
                                   return h.id == static_cast<uint64_t>(i);
                                 });
          if (it == out.end()) continue;
          ++found_total;
          ++val_total;
          double rel = it->estimate / static_cast<double>(freq[i]);
          if (rel >= 0.5 && rel <= 1.5) ++val_ok;
        }
      }
      table.AddRow(
          {bench::Fmt("%.3f", phi), bench::Fmt("%.1f", zipf),
           bench::Fmt("%d", heavy_total),
           heavy_total ? bench::Fmt("%.3f",
                                    found_total / (double)heavy_total)
                       : "-",
           val_total ? bench::Fmt("%.3f", val_ok / (double)val_total) : "-",
           bench::Fmt("%zu", bytes >> 10)});
    }
  }
  table.Print();
}

// Feeds `updates` (id, count) as LargeSet feeds its contributing sketches:
// closed windows of at most LargeSetComplete::kWindowEdges updates, each
// window's distinct ids ascending, hashed once, counted, then admitted.
void AddClosedWindows(F2Contributing& fc, const F2Contributing::Hashes& hashes,
                      const std::vector<std::pair<uint64_t, int64_t>>& updates) {
  std::map<uint64_t, int64_t> window;
  auto close = [&] {
    std::vector<uint64_t> ids, folded;
    std::vector<int64_t> counts;
    for (const auto& [id, count] : window) {
      ids.push_back(id);
      folded.push_back(MersenneFold(id));
      counts.push_back(count);
    }
    const size_t n = ids.size();
    std::vector<uint64_t> keys(n), row_hashes(size_t{hashes.rows.depth()} * n);
    hashes.HashFoldedBatch(folded.data(), n, keys.data(), row_hashes.data());
    const HashedIds block{ids.data(), row_hashes.data(), keys.data(),
                          counts.data(), n};
    fc.AddCounts(block);
    fc.Admit(hashes, block);
    window.clear();
  };
  for (size_t i = 0; i < updates.size(); ++i) {
    window[updates[i].first] += updates[i].second;
    if ((i + 1) % LargeSetComplete::kWindowEdges == 0) close();
  }
  if (!window.empty()) close();
}

void ContributingContract() {
  bench::Banner("E8 (cont.): F2-Contributing (Theorem 2.11)",
                "one representative from every gamma-contributing class");
  const int seeds = bench::SmallScale() ? 5 : 15;
  // Planted class: `size` coordinates of weight w over unit noise.
  bench::Table table({"class size", "coord weight", "class share of F2",
                      "hit rate", "sketch_KB"});
  struct Plant {
    uint64_t size;
    int64_t weight;
  };
  for (Plant plant : {Plant{1, 200}, Plant{64, 24}, Plant{1024, 8}}) {
    int hits = 0;
    size_t bytes = 0;
    double share = 0;
    for (int s = 0; s < seeds; ++s) {
      const F2Contributing::Config cfg{.phi = 0.05,
                                       .max_class_size = 4096,
                                       .domain_size = 16384,
                                       .seed = 500u + s};
      const F2Contributing::Hashes hashes =
          F2Contributing::MakeHashes(8, cfg.seed);
      F2Contributing fc(cfg);
      double class_f2 = static_cast<double>(plant.size) * plant.weight *
                        plant.weight;
      double noise_f2 = 4096;
      share = class_f2 / (class_f2 + noise_f2);
      std::vector<std::pair<uint64_t, int64_t>> updates;
      for (uint64_t j = 0; j < plant.size; ++j) {
        updates.emplace_back(100000 + j, plant.weight);
      }
      for (uint64_t i = 0; i < 4096; ++i) updates.emplace_back(i, 1);
      AddClosedWindows(fc, hashes, updates);
      bytes = fc.MemoryBytes() + hashes.MemoryBytes();
      auto out = fc.Extract(hashes);
      hits += std::any_of(out.begin(), out.end(),
                          [&](const ContributingCoordinate& cc) {
                            return cc.id >= 100000 &&
                                   cc.id < 100000 + plant.size;
                          });
    }
    table.AddRow({bench::Fmt("%llu", (unsigned long long)plant.size),
                  bench::Fmt("%lld", (long long)plant.weight),
                  bench::Fmt("%.2f", share),
                  bench::Fmt("%.2f", hits / (double)seeds),
                  bench::Fmt("%zu", bytes >> 10)});
  }
  table.Print();
  std::printf(
      "Reading: classes of every size — including ones whose individual\n"
      "coordinates are far below the heavy-hitter bar — are caught via the\n"
      "per-level subsampling, as Theorem 2.11 promises.\n");
}

void L0Contract() {
  bench::Banner("E9: L0 estimation (Theorem 2.12)",
                "(1±eps) distinct count in O~(1) space; KMV error ~ 2/sqrt(k)");
  const int seeds = bench::SmallScale() ? 10 : 40;
  const uint64_t n = 100000;
  bench::Table table({"num_mins", "bytes", "mean rel err", "max rel err",
                      "2/sqrt(k) ref"});
  for (uint32_t k : {16u, 64u, 256u, 1024u}) {
    double sum_err = 0, max_err = 0;
    size_t bytes = 0;
    for (int s = 0; s < seeds; ++s) {
      L0Estimator l0({.num_mins = k, .seed = 1000u + s});
      for (uint64_t i = 0; i < n; ++i) l0.Add(i * 2654435761u + s);
      double err = std::abs(l0.Estimate() - static_cast<double>(n)) / n;
      sum_err += err;
      max_err = std::max(max_err, err);
      bytes = l0.MemoryBytes();
    }
    table.AddRow({bench::Fmt("%u", k), bench::Fmt("%zu", bytes),
                  bench::Fmt("%.4f", sum_err / seeds),
                  bench::Fmt("%.4f", max_err),
                  bench::Fmt("%.4f", 2.0 / std::sqrt((double)k))});
  }
  table.Print();
  std::printf(
      "Reading: error tracks the 2/sqrt(k) reference; num_mins = 64 (the\n"
      "library default) is far inside Theorem 2.12's (1±1/2) contract.\n");
}

void L0AlternativesComparison() {
  bench::Banner("E9 (cont.): KMV vs HyperLogLog (two Thm 2.12 realizations)",
                "equal-error space comparison; KMV is exact below k distinct,"
                " HLL is ~5x smaller per unit accuracy");
  const int seeds = bench::SmallScale() ? 10 : 30;
  const uint64_t n = 200000;
  bench::Table table({"sketch", "config", "bytes", "mean rel err",
                      "exact when small?"});
  for (uint32_t k : {64u, 256u}) {
    double err = 0;
    size_t bytes = 0;
    for (int s = 0; s < seeds; ++s) {
      L0Estimator l0({.num_mins = k, .seed = 2000u + s});
      for (uint64_t i = 0; i < n; ++i) l0.Add(i * 131 + s);
      err += std::abs(l0.Estimate() - (double)n) / n;
      bytes = l0.MemoryBytes();
    }
    table.AddRow({"KMV", bench::Fmt("num_mins=%u", k),
                  bench::Fmt("%zu", bytes), bench::Fmt("%.4f", err / seeds),
                  "yes"});
  }
  for (uint32_t p : {10u, 14u}) {
    double err = 0;
    size_t bytes = 0;
    for (int s = 0; s < seeds; ++s) {
      HyperLogLog hll({.precision = p, .seed = 2000u + s});
      for (uint64_t i = 0; i < n; ++i) hll.Add(i * 131 + s);
      err += std::abs(hll.Estimate() - (double)n) / n;
      bytes = (1u << p);  // register payload (hash tables are shared/const)
    }
    table.AddRow({"HyperLogLog", bench::Fmt("precision=%u", p),
                  bench::Fmt("%zu", bytes), bench::Fmt("%.4f", err / seeds),
                  "linear-counting"});
  }
  table.Print();
  std::printf(
      "Reading: at matched error HLL's registers are several times smaller;\n"
      "streamkc's algorithm paths keep KMV because exactness below k\n"
      "distinct values matters on the tiny reduced universes (z as small as\n"
      "8), where HLL's bias corrections are at their weakest.\n");
}

}  // namespace
}  // namespace streamkc

int main() {
  streamkc::HeavyHitterContract();
  streamkc::ContributingContract();
  streamkc::L0Contract();
  streamkc::L0AlternativesComparison();
  return 0;
}
