package main

import (
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"
	"time"
)

// benchmarkSpec is the part of the repository's BENCHMARK.json the
// tests compare the output with.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s benchmarkSpec
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// shortRun lowers the per-window sample floor so a run of a few
// seconds reports every metric.
func shortRun(t *testing.T) {
	t.Helper()
	old := minSamples
	minSamples = 20
	t.Cleanup(func() { minSamples = old })
}

func checkMetrics(t *testing.T, res *result, want []struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}) {
	t.Helper()
	if len(res.Metrics) != len(want) {
		t.Errorf("%d metrics, BENCHMARK.json lists %d", len(res.Metrics), len(want))
	}
	for _, m := range want {
		got, ok := res.Metrics[m.Name]
		switch {
		case !ok:
			t.Errorf("metric %s missing", m.Name)
		case got.Unit != m.Unit:
			t.Errorf("metric %s unit %q, want %q", m.Name, got.Unit, m.Unit)
		case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
			t.Errorf("metric %s = %v", m.Name, got.Value)
		}
	}
	if !res.Correct || res.Attempted < 1 {
		t.Errorf("correct %v, attempted %d", res.Correct, res.Attempted)
	}
}

// TestWorkloadsEmitEveryMetric runs each workload briefly, untraced and
// traced, and checks that every metric BENCHMARK.json names is
// reported, finite and in its unit. Every op's output is checked on
// the way; a wrong output fails the run.
func TestWorkloadsEmitEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("builds every workload")
	}
	shortRun(t)
	spec := loadSpec(t)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		def := &workloads[i]
		if def.name != w.Name {
			t.Fatalf("workload %d is %q, BENCHMARK.json says %q", i, def.name, w.Name)
		}
		t.Run(def.name, func(t *testing.T) {
			res, err := runUntraced(def, 7, 2*time.Second)
			if err != nil {
				t.Fatal(err)
			}
			checkMetrics(t, res, spec.EndToEnd)
			res, err = runTraced(def, 7, 2*time.Second)
			if err != nil {
				t.Fatal(err)
			}
			checkMetrics(t, res, spec.PerLayer)
		})
	}
}

// TestSeedsGiveDifferentInputs checks that every generated input
// depends on the seed: the catalogs, the disc images and the draws.
func TestSeedsGiveDifferentInputs(t *testing.T) {
	p, err := newPKI()
	if err != nil {
		t.Fatal(err)
	}
	s, err := p.register("Studio")
	if err != nil {
		t.Fatal(err)
	}
	catalog := func(seed uint64) []*doc {
		c, err := buildCatalog(64, []*signer{s}, newRNG(seed, 0))
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	a, a2, b := catalog(1), catalog(1), catalog(2)
	sameBig := true
	for i := range a {
		if a[i].seed != a2[i].seed || a[i].big != a2[i].big {
			t.Fatalf("seed 1 built document %d twice with different content", i)
		}
		if a[i].seed == b[i].seed {
			t.Errorf("seeds 1 and 2 built the same document %d", i)
		}
		if a[i].big != b[i].big {
			sameBig = false
		}
	}
	if sameBig {
		t.Error("seeds 1 and 2 put the large documents at the same ranks")
	}

	im1, err := authorImage(p, []byte("0123456789abcdef"), 1)
	if err != nil {
		t.Fatal(err)
	}
	im2, err := authorImage(p, []byte("0123456789abcdef"), 2)
	if err != nil {
		t.Fatal(err)
	}
	if im1.script == im2.script {
		t.Error("seeds 1 and 2 authored the same application script")
	}

	z := newZipf(1024)
	r1, r2 := newRNG(1, 1), newRNG(2, 1)
	same := 0
	for i := 0; i < 100; i++ {
		if z.draw(r1) == z.draw(r2) {
			same++
		}
	}
	if same == 100 {
		t.Error("seeds 1 and 2 drew the same ranks")
	}
}

// TestZipfShape checks the exponent-1 draw: rank 0 is drawn about
// 1/H(n) of the time and every draw is in range.
func TestZipfShape(t *testing.T) {
	const n, draws = 256, 200000
	z := newZipf(n)
	rng := newRNG(3, 3)
	top := 0
	for i := 0; i < draws; i++ {
		r := z.draw(rng)
		if r < 0 || r >= n {
			t.Fatalf("rank %d out of range", r)
		}
		if r == 0 {
			top++
		}
	}
	h := 0.0
	for i := 1; i <= n; i++ {
		h += 1 / float64(i)
	}
	if got, want := float64(top)/draws, 1/h; math.Abs(got-want) > 0.01 {
		t.Errorf("rank 0 share %.4f, want %.4f", got, want)
	}
}

// TestSelfTimesAddUp checks the self-time arithmetic on a hand-built
// trace of two clients: each layer's self time excludes its children,
// and the layers plus the unattributed remainder equal the op time.
func TestSelfTimesAddUp(t *testing.T) {
	c1 := &client{tr: &tracer{}}
	c1.tr.spans = []span{
		{name: rootOp, op: 1, parent: -1, start: 0, end: 100},
		{name: spanLoad, op: 1, parent: 0, start: 10, end: 70},
		{name: spanRun, op: 1, parent: 1, start: 20, end: 50},
		{name: rootRevoke, op: 2, parent: -1, start: 100, end: 130},
		{name: spanRevoke, op: 2, parent: 3, start: 100, end: 120},
	}
	c2 := &client{tr: &tracer{}}
	c2.tr.spans = []span{
		{name: rootOp, op: 1, parent: -1, start: 0, end: 50},
		{name: spanLibraryOpen, op: 1, parent: 0, start: 5, end: 45},
	}
	ph := mergeClients(time.Now(), []*client{c1, c2})
	roots, total, self, err := selfTimes(ph.spans, rootOp)
	if err != nil {
		t.Fatal(err)
	}
	if roots != 2 || total != 150 {
		t.Fatalf("roots %d total %v, want 2 and 150", roots, total)
	}
	want := map[string]float64{"bench.unattributed": 40 + 10, spanLoad: 30, spanRun: 30, spanLibraryOpen: 40}
	sum := 0.0
	for name, v := range self {
		sum += v
		if v != want[name] {
			t.Errorf("self[%s] = %v, want %v", name, v, want[name])
		}
	}
	if sum != total {
		t.Errorf("self times add up to %v, op time is %v", sum, total)
	}
}

// TestReferenceKernel checks that the speed gauge's kernel computes
// its fixed result and allocates no more than ECDSA verification's few
// temporaries, so its time does not include the system's garbage
// collection; and that the gauge turns shots into a finite factor.
func TestReferenceKernel(t *testing.T) {
	if n := testing.AllocsPerRun(20, refKernel.run); n > 12 {
		t.Errorf("reference kernel allocates %v times per run", n)
	}
	var g gauge
	for i := 0; i < 3; i++ {
		g.shoot()
	}
	if k := g.factor(); math.IsNaN(k) || math.IsInf(k, 0) || k <= 0 {
		t.Errorf("speed factor %v", k)
	}
}

// TestEdgePoolsRunOutLoudly checks that an edge-fleet phase longer
// than its pre-built pools allow fails the run instead of shortening.
func TestEdgePoolsRunOutLoudly(t *testing.T) {
	if testing.Short() {
		t.Skip("starts a fleet")
	}
	sys, err := setupEdgeFleet(7, false, 10*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	defer sys.close()
	_, err = sys.run(time.Now().Add(time.Minute), false)
	if err == nil || !strings.Contains(err.Error(), "ran out") {
		t.Fatalf("run past the pools returned %v, want a pool-exhaustion error", err)
	}
}
