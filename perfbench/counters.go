package main

import "discsec/internal/obs"

// recordedCounters are the program's obs counters the per-layer
// metrics are derived from.
var recordedCounters = []string{
	"library.hit", "library.miss", "library.singleflight_wait", "library.evict",
	"cluster.forward", "cluster.origin_verify", "cluster.push", "cluster.lagging_drop",
}

// recorderCounters snapshots recordedCounters (all 0 for a nil
// recorder).
func recorderCounters(rec *obs.Recorder) map[string]float64 {
	m := map[string]float64{}
	for _, name := range recordedCounters {
		m[name] = float64(rec.Counter(name))
	}
	return m
}

// addCounterMetrics derives the per-layer counts of a traced phase
// from counter snapshots taken before and after it. Deltas are
// normalised by the work they describe; a layer the workload never
// reaches reports 0.
func addCounterMetrics(res *result, ph *phase, before, after map[string]float64) {
	delta := func(name string) float64 { return after[name] - before[name] }
	ratio := func(num, den float64) float64 {
		if den == 0 {
			return 0
		}
		return num / den
	}

	libOpens := delta("library.hit") + delta("library.miss") + delta("library.singleflight_wait")
	res.add("library.hit_ratio", ratio(delta("library.hit"), libOpens), "ratio")
	res.add("library.evict_per_kop", 1000*ratio(delta("library.evict"), libOpens), "count")
	res.add("library.singleflight_wait_per_kop", 1000*ratio(delta("library.singleflight_wait"), libOpens), "count")
	res.add("library.resident_mb", after["library.size_bytes"]/(1<<20), "MiB")

	// Edge calls are counted by the benchmark per class (ph.attempts);
	// only edge-fleet's counters hold cluster.edge_records.
	var edgeCalls, edgeHits, edgeMisses float64
	if _, fleet := after["cluster.edge_records"]; fleet {
		hit, miss := ph.attempts[classHit], ph.attempts[classMiss]
		edgeCalls = float64(hit.attempted + miss.attempted)
		edgeHits, edgeMisses = float64(hit.succeeded), float64(miss.succeeded)
	}
	fills := delta("cluster.origin_verify")
	res.add("cluster.hit_ratio", ratio(edgeHits, edgeCalls), "ratio")
	res.add("cluster.forward_per_miss", ratio(delta("cluster.forward"), edgeMisses), "count")
	res.add("cluster.origin_verify_per_miss", ratio(fills, edgeMisses), "count")
	res.add("cluster.push_per_fill", ratio(delta("cluster.push"), fills), "count")
	res.add("cluster.lagging_drop_per_revoke", ratio(delta("cluster.lagging_drop"), float64(len(ph.revokes))), "count")
	res.add("cluster.edge_records", after["cluster.edge_records"], "count")
	res.add("cluster.origin_records", after["cluster.origin_records"], "count")
}
