package main

import (
	"bufio"
	"compress/gzip"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"time"
)

// Root span names. A root span covers one op; the spans under it are
// the benchmark's calls into the program's packages.
const (
	rootOp     = "op"     // a primary op (the op_p50_ms population)
	rootResume = "resume" // player-boot's application re-run
	rootRevoke = "revoke" // one revocation and its convergence wait
	rootProbe  = "probe"  // opens of revoked content
)

// Layer span names, one per public call the benchmark times.
const (
	spanReadImage    = "disc.read_image"
	spanLoad         = "player.load"
	spanRun          = "player.run"
	spanLibraryOpen  = "library.open"
	spanClusterOpen  = "cluster.open"
	spanRevoke       = "keymgmt.revoke"
	spanConvergeWait = "cluster.converge_wait"
)

// opLayers are the layers whose self-times, with bench.unattributed_ms,
// add up to the traced op time. A workload that never calls a layer
// reports 0 for it.
var opLayers = []string{spanReadImage, spanLoad, spanRun, spanLibraryOpen, spanClusterOpen}

// span is one timed interval. Times are ns since the phase start.
type span struct {
	name       string
	op         int64
	parent     int32 // index in the same tracer, -1 for a root
	start, end int64
}

// tracer records one client's spans in memory; a nil tracer records
// nothing. Spans nest: begin pushes, end pops.
type tracer struct {
	base  time.Time
	spans []span
	stack []int32
	op    int64
}

func (t *tracer) begin(name string) {
	if t == nil {
		return
	}
	parent := int32(-1)
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	} else {
		t.op++
	}
	t.stack = append(t.stack, int32(len(t.spans)))
	t.spans = append(t.spans, span{name: name, op: t.op, parent: parent, start: time.Since(t.base).Nanoseconds()})
}

func (t *tracer) end() {
	if t == nil {
		return
	}
	n := len(t.stack) - 1
	t.spans[t.stack[n]].end = time.Since(t.base).Nanoseconds()
	t.stack = t.stack[:n]
}

// selfTimes sums, over the root spans named root, their durations and
// the self time (duration minus the time covered by child spans) of
// every span in their trees, by span name. A root's own self time is
// the unattributed remainder. Parent indices must be absolute, as
// mergeClients leaves them.
func selfTimes(spans []span, root string) (roots int, total float64, self map[string]float64, err error) {
	self = map[string]float64{}
	child := make([]int64, len(spans))
	rootOf := make([]int32, len(spans))
	for i, s := range spans {
		if s.parent < 0 {
			rootOf[i] = int32(i)
			continue
		}
		child[s.parent] += s.end - s.start
		rootOf[i] = rootOf[s.parent]
	}
	for i, s := range spans {
		if spans[rootOf[i]].name != root {
			continue
		}
		d := s.end - s.start
		own := d - child[i]
		if own < 0 {
			return 0, 0, nil, fmt.Errorf("span %s (op %d) has children longer than itself", s.name, s.op)
		}
		if s.parent < 0 {
			roots++
			total += float64(d)
			self["bench.unattributed"] += float64(own)
		} else {
			self[s.name] += float64(own)
		}
	}
	return roots, total, self, nil
}

// addSpanMetrics reports each layer's mean self time per primary op,
// the unattributed remainder and the traced op time they add up to,
// plus the revocation spans and the overhead of tracing.
func addSpanMetrics(res *result, ph, plain *phase) error {
	roots, total, self, err := selfTimes(ph.spans, rootOp)
	if err != nil {
		return err
	}
	if roots == 0 {
		return fmt.Errorf("traced phase recorded no op spans")
	}
	perOp := func(ns float64) float64 { return ns / float64(roots) / 1e6 }
	sum := self["bench.unattributed"]
	for _, l := range opLayers {
		res.add(l+"_ms", perOp(self[l]), "ms")
		sum += self[l]
	}
	if math.Abs(sum-total) > 1e-6*total {
		return fmt.Errorf("layer self-times add up to %.0f ns, traced op time is %.0f ns", sum, total)
	}
	res.add("bench.unattributed_ms", perOp(self["bench.unattributed"]), "ms")
	res.add("bench.traced_op_ms", perOp(total), "ms")
	untraced := quantileMS(latencies(plain.primary), 0.5)
	res.add("bench.trace_overhead_pct", (quantileMS(latencies(ph.primary), 0.5)/untraced-1)*100, "%")

	revokes, _, rself, err := selfTimes(ph.spans, rootRevoke)
	if err != nil {
		return err
	}
	perRevoke := func(ns float64) float64 {
		if revokes == 0 {
			return 0
		}
		return ns / float64(revokes) / 1e6
	}
	res.add(spanRevoke+"_ms", perRevoke(rself[spanRevoke]), "ms")
	res.add(spanConvergeWait+"_ms", perRevoke(rself[spanConvergeWait]), "ms")
	res.add("revoke_converge_ms", medianMS(ph.revokes), "ms")
	res.add("fail_ratio", ph.failRatio(), "ratio")
	return nil
}

// writeSpans writes the traced phase's spans, one per line as
// op,parent,name,start_ns,end_ns, gzip-compressed under .bench_build/.
func writeSpans(workload string, seed uint64, spans []span) (err error) {
	dir := filepath.Join(".bench_build", "trace")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.csv.gz", workload, seed))
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	zw := gzip.NewWriter(f)
	bw := bufio.NewWriter(zw)
	fmt.Fprintln(bw, "op,parent,name,start_ns,end_ns")
	for _, s := range spans {
		fmt.Fprintf(bw, "%d,%d,%s,%d,%d\n", s.op, s.parent, s.name, s.start, s.end)
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	if err := zw.Close(); err != nil {
		return err
	}
	fmt.Printf("spans        %d written to %s\n", len(spans), path)
	return nil
}
