// Command perfbench is the repository benchmark. It builds one
// workload's inputs from a seed, runs the system under closed-loop load
// for a fixed time, checks every output and prints every metric by
// name with its unit. The last line of standard output is one JSON
// object:
//
//	{"correct": true, "attempted": N, "failed": F, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones, measured with no
// obs.Recorder attached. With --trace 1 they are the per-layer ones:
// span self-times recorded around the benchmark's calls into each
// package, the program's own counters, and a replay of the workload's
// documents through each primitive alone.
//
// Run it from the repository root with perfbench/run.sh, which builds
// this module and keeps every artefact under .bench_build/.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

// workloadDef describes one workload: how to build its system and how
// many times set-up is repeated for the setup_s median.
type workloadDef struct {
	name      string
	why       string
	setupReps int
	// setup builds the system; d is the total length of the timed
	// phases that will run on it.
	setup func(seed uint64, traced bool, d time.Duration) (system, error)
}

// system is one built workload, ready for timed phases.
type system interface {
	// run drives the closed-loop clients until the deadline. With
	// traced set, each client records spans around its calls.
	run(deadline time.Time, traced bool) (*phase, error)
	// setRecording enables or disables the program's obs.Recorder
	// (present only in traced processes).
	setRecording(on bool)
	// counters snapshots the program's counters and accessors.
	counters() map[string]float64
	// corpus supplies the workload's own documents for the replay pass.
	corpus() *replayCorpus
	close()
}

var workloads = []workloadDef{
	{
		name:      "player-boot",
		why:       "player cold start from disc image bytes: every Fig. 9 stage runs on every op, while the library and cluster are bypassed",
		setupReps: 9,
		setup:     setupPlayerBoot,
	},
	{
		name:      "library-zipf",
		why:       "two clients share one byte-budgeted verdict cache over a Zipf catalog: key derivation on hits, full verification on misses",
		setupReps: 3,
		setup:     setupLibraryZipf,
	},
	{
		name:      "edge-fleet",
		why:       "origin and 4 loopback edges under revocation churn: warm edge hits, forwarded cold fills and epoch fan-out",
		setupReps: 3,
		setup:     setupEdgeFleet,
	},
}

func main() {
	name := flag.String("workload", "", "workload: player-boot, library-zipf or edge-fleet")
	seed := flag.Uint64("seed", 1, "seed every input is built from")
	seconds := flag.Int("seconds", 10, "length of the timed phase")
	trace := flag.Int("trace", 0, "1 reports per-layer metrics from a traced run, 0 end-to-end metrics")
	flag.Parse()

	var def *workloadDef
	for i := range workloads {
		if workloads[i].name == *name {
			def = &workloads[i]
		}
	}
	if def == nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "usage: perfbench --workload <%s> --seed <n> --seconds <s> --trace <0|1>\n", workloadNames())
		os.Exit(2)
	}
	printEnv(def)
	d := time.Duration(*seconds) * time.Second
	var res *result
	var err error
	if *trace == 1 {
		res, err = runTraced(def, *seed, d)
	} else {
		res, err = runUntraced(def, *seed, d)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", def.name, err)
		os.Exit(1)
	}
	res.print(os.Stdout)
}

func workloadNames() string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return strings.Join(names, "|")
}

// printEnv records what the numbers were measured on.
func printEnv(def *workloadDef) {
	fmt.Printf("workload     %s (%s)\n", def.name, def.why)
	fmt.Printf("go           %s\n", runtime.Version())
	fmt.Printf("GOMAXPROCS   %d\n", runtime.GOMAXPROCS(0))
	fmt.Printf("nproc        %d\n", runtime.NumCPU())
	fmt.Printf("cpu          %s\n", cpuModel())
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// setupSystem builds the workload def.setupReps times, timing each
// build, and keeps the last one. Earlier builds are closed before the
// next starts, so only one system is ever live. Speed-gauge shots
// precede each build. d is the length of the timed phases to come,
// which input pools are sized from.
func setupSystem(def *workloadDef, seed uint64, traced bool, reps int, d time.Duration) (system, []float64, error) {
	var sys system
	var times []float64
	for i := 0; i < reps; i++ {
		if sys != nil {
			sys.close()
			sys = nil
		}
		runtime.GC()
		for j := 0; j < gaugeSetupShots; j++ {
			speed.shoot()
		}
		start := time.Now()
		s, err := def.setup(seed, traced, d)
		if err != nil {
			return nil, nil, fmt.Errorf("set-up: %w", err)
		}
		times = append(times, time.Since(start).Seconds())
		sys = s
	}
	return sys, times, nil
}

// runUntraced measures the end-to-end metrics: median set-up time over
// several builds, then one timed phase with no recorder attached and
// the speed gauge running. Times are reported at the gauge's reference
// speed; the time its shots held the clients out is not part of the
// phase's elapsed time.
func runUntraced(def *workloadDef, seed uint64, d time.Duration) (*result, error) {
	sys, setups, err := setupSystem(def, seed, false, def.setupReps, d)
	if err != nil {
		return nil, err
	}
	defer sys.close()
	fmt.Printf("setup_s      %s\n", fmtFloats(setups))

	stopGauge := speed.during()
	ph, allocBytes, err := timedPhase(sys, d, false)
	held := stopGauge()
	if err != nil {
		return nil, err
	}
	ph.elapsed -= held
	ph.report(os.Stdout)
	if err := ph.valid(); err != nil {
		return nil, err
	}
	fmt.Printf("speed        %v\n", &speed)
	k := speed.factor()
	primary := latencies(ph.primary)
	measured := []struct {
		name string
		v    float64
		unit string
	}{
		{"setup_s", median(setups), "s"},
		{"op_p50_ms", quantileMS(primary, 0.50), "ms"},
		{"op_p90_ms", quantileMS(primary, 0.90), "ms"},
		{"ops_per_s", float64(len(ph.primary)) / ph.elapsed.Seconds(), "1/s"},
		{"hit_p50_ms", quantileMS(latencies(ph.hit), 0.50), "ms"},
		{"miss_p50_ms", quantileMS(latencies(ph.miss), 0.50), "ms"},
	}
	// The whole-phase p99 is printed, not reported: on a shared 2-vCPU
	// guest the host's preemption slices (about 10 ms) decide the p99
	// of a 2.5 ms boot, so it moved 3.6-15.7 ms between runs of one build.
	fmt.Printf("measured     %-12s %.6g ms (not reported)\n", "op_p99_ms", quantileMS(primary, 0.99))
	res := newResult(ph)
	for _, m := range measured {
		fmt.Printf("measured     %-12s %.6g %s\n", m.name, m.v, m.unit)
		if m.unit == "1/s" {
			res.add(m.name, m.v/k, m.unit)
		} else {
			res.add(m.name, m.v*k, m.unit)
		}
	}
	res.add("alloc_kb_per_op", float64(allocBytes)/1024/float64(len(ph.primary)), "KiB")
	// The samples are the benchmark's bookkeeping, not the system's
	// memory: drop them before measuring the live heap.
	ph, primary = nil, nil
	res.add("retained_mb", float64(liveHeap(sys))/(1<<20), "MiB")
	return res, nil
}

// timedPhase runs one phase and returns it with the bytes it
// allocated (the TotalAlloc delta).
func timedPhase(sys system, d time.Duration, traced bool) (*phase, uint64, error) {
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	ph, err := sys.run(time.Now().Add(d), traced)
	if err != nil {
		return nil, 0, err
	}
	runtime.ReadMemStats(&after)
	return ph, after.TotalAlloc - before.TotalAlloc, nil
}

// liveHeap is the live heap after a forced collection, with the system
// (and its inputs) still reachable.
func liveHeap(sys system) uint64 {
	runtime.GC()
	var live runtime.MemStats
	runtime.ReadMemStats(&live)
	runtime.KeepAlive(sys)
	return live.HeapAlloc
}

// runTraced measures the per-layer metrics. One build; the first half
// of the time runs with the recorder disabled (the reference for the
// trace overhead), the second half records spans and counters; then
// the replay pass times each primitive alone.
func runTraced(def *workloadDef, seed uint64, d time.Duration) (*result, error) {
	sys, _, err := setupSystem(def, seed, true, 1, d)
	if err != nil {
		return nil, err
	}
	defer sys.close()

	half := d / 2
	sys.setRecording(false)
	plain, _, err := timedPhase(sys, half, false)
	if err != nil {
		return nil, err
	}
	if err := plain.valid(); err != nil {
		return nil, err
	}
	sys.setRecording(true)
	before := sys.counters()
	ph, _, err := timedPhase(sys, half, true)
	if err != nil {
		return nil, err
	}
	after := sys.counters()
	ph.report(os.Stdout)
	if err := ph.valid(); err != nil {
		return nil, err
	}

	res := newResult(ph)
	if err := addSpanMetrics(res, ph, plain); err != nil {
		return nil, err
	}
	addCounterMetrics(res, ph, before, after)
	if err := writeSpans(def.name, seed, ph.spans); err != nil {
		return nil, err
	}
	if err := replay(res, sys.corpus()); err != nil {
		return nil, fmt.Errorf("replay: %w", err)
	}
	return res, nil
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	order     []string
}

func newResult(ph *phase) *result {
	return &result{Correct: true, Attempted: ph.ops.attempted, Failed: ph.ops.failed, Metrics: map[string]metric{}}
}

func (r *result) add(name string, v float64, unit string) {
	if _, dup := r.Metrics[name]; !dup {
		r.order = append(r.order, name)
	}
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

// check rejects a result with a non-finite value: a metric whose
// samples were missing must fail the run, not print NaN.
func (r *result) check() error {
	for _, name := range r.order {
		if v := r.Metrics[name].Value; math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s is not finite", name)
		}
	}
	return nil
}

func (r *result) print(w *os.File) {
	if err := r.check(); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	for _, name := range r.order {
		m := r.Metrics[name]
		fmt.Fprintf(w, "%-42s %14.6g %s\n", name, m.Value, m.Unit)
	}
	b, err := json.Marshal(r)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Fprintln(w, string(b))
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quantileMS returns the q-quantile of nanosecond samples in
// milliseconds (nearest rank). It sorts ns in place.
func quantileMS(ns []int64, q float64) float64 {
	if len(ns) == 0 {
		return math.NaN()
	}
	sort.Slice(ns, func(i, j int) bool { return ns[i] < ns[j] })
	i := int(math.Ceil(q*float64(len(ns)))) - 1
	if i < 0 {
		i = 0
	}
	return float64(ns[i]) / 1e6
}

func fmtFloats(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf("%.4f", x)
	}
	return strings.Join(parts, " ")
}
