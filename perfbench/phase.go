package main

import (
	"fmt"
	"io"
	"sort"
	"time"
)

// Op classes. A hit is served from verified state without running a
// signature verification; a miss ran or fetched one; a probe is an
// open of revoked content, which must be refused.
const (
	classHit = iota
	classMiss
	classProbe
	numClasses
)

var classNames = [numClasses]string{"hit", "miss", "probe"}

// tally counts attempts and their outcomes.
type tally struct {
	attempted, succeeded, failed int64
}

func (t *tally) record(ok bool) {
	t.attempted++
	if ok {
		t.succeeded++
	} else {
		t.failed++
	}
}

func (t *tally) merge(o tally) {
	t.attempted += o.attempted
	t.succeeded += o.succeeded
	t.failed += o.failed
}

// sample is one successful op: when it ended (ns since the phase
// started) and how long it took (ns).
type sample struct {
	at, ns int64
}

// client is one closed-loop client's private record of a phase; the
// clients of a phase are merged when it ends, so recording takes no
// locks.
type client struct {
	// primary holds the successful ops that make up the population of
	// op_p50_ms, op_p90_ms and ops_per_s.
	primary []sample
	// byClass holds the successful ops of each class.
	byClass [numClasses][]sample
	// ops counts whole ops (after the documented retry); attempts
	// counts single calls into the system by class, so a retried op
	// shows up as two attempts.
	ops      tally
	attempts [numClasses]tally
	// revokes holds, per revocation, the time from calling Revoke
	// until every node reports the new trust epoch (ns).
	revokes []int64
	tr      *tracer
	base    time.Time
}

func newClient(traced bool, base time.Time) *client {
	c := &client{base: base}
	if traced {
		c.tr = &tracer{base: base}
	}
	return c
}

// done records one finished op.
func (c *client) done(class int, primary bool, start time.Time, err error) {
	end := time.Now()
	c.ops.record(err == nil)
	if err != nil {
		return
	}
	s := sample{at: end.Sub(c.base).Nanoseconds(), ns: end.Sub(start).Nanoseconds()}
	c.byClass[class] = append(c.byClass[class], s)
	if primary {
		c.primary = append(c.primary, s)
	}
}

// phase is the merged outcome of one timed phase.
type phase struct {
	elapsed  time.Duration
	primary  []sample
	hit      []sample
	miss     []sample
	ops      tally
	attempts [numClasses]tally
	revokes  []int64
	spans    []span
}

func mergeClients(start time.Time, clients []*client) *phase {
	ph := &phase{elapsed: time.Since(start)}
	for ci, c := range clients {
		ph.primary = append(ph.primary, c.primary...)
		ph.hit = append(ph.hit, c.byClass[classHit]...)
		ph.miss = append(ph.miss, c.byClass[classMiss]...)
		ph.ops.merge(c.ops)
		for i := range c.attempts {
			ph.attempts[i].merge(c.attempts[i])
		}
		ph.revokes = append(ph.revokes, c.revokes...)
		if c.tr != nil {
			// Make parent indices absolute and op ids unique across
			// clients.
			off := int32(len(ph.spans))
			for _, s := range c.tr.spans {
				if s.parent >= 0 {
					s.parent += off
				}
				s.op |= int64(ci) << 48
				ph.spans = append(ph.spans, s)
			}
		}
	}
	return ph
}

// minSamples is the fewest successful primary ops a phase may report
// from, so that even a p99 has ten samples beyond it. Tests lower it
// to run briefly.
var minSamples = 1000

// valid rejects a phase too short to report its metrics.
func (ph *phase) valid() error {
	switch {
	case len(ph.primary) < minSamples:
		return fmt.Errorf("only %d successful ops, %d needed", len(ph.primary), minSamples)
	case len(ph.hit) == 0 || len(ph.miss) == 0:
		return fmt.Errorf("hit and miss classes need samples (have %d and %d)", len(ph.hit), len(ph.miss))
	}
	return nil
}

// failRatio is failed calls over attempted calls, all classes but
// probes (a refused probe is the correct outcome).
func (ph *phase) failRatio() float64 {
	var t tally
	t.merge(ph.attempts[classHit])
	t.merge(ph.attempts[classMiss])
	if t.attempted == 0 {
		return 0
	}
	return float64(t.failed) / float64(t.attempted)
}

func (ph *phase) report(w io.Writer) {
	fmt.Fprintf(w, "phase        %.3f s, %d ops attempted, %d failed, %d primary samples\n",
		ph.elapsed.Seconds(), ph.ops.attempted, ph.ops.failed, len(ph.primary))
	for i, t := range ph.attempts {
		if t.attempted > 0 {
			fmt.Fprintf(w, "  %-6s     attempted %d, succeeded %d, failed %d\n", classNames[i], t.attempted, t.succeeded, t.failed)
		}
	}
	if len(ph.revokes) > 0 {
		fmt.Fprintf(w, "  revocations %d\n", len(ph.revokes))
	}
}

// latencies extracts the latency of each sample.
func latencies(samples []sample) []int64 {
	out := make([]int64, len(samples))
	for i, s := range samples {
		out[i] = s.ns
	}
	return out
}

// medianMS is the median of ns samples in ms, 0 for none.
func medianMS(ns []int64) float64 {
	if len(ns) == 0 {
		return 0
	}
	s := append([]int64(nil), ns...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return float64(s[(len(s)-1)/2]) / 1e6
}

// wrong builds an output-check failure. The workloads return it and
// the run aborts; a call that fails is counted instead.
func wrong(format string, args ...any) error {
	return fmt.Errorf("wrong output: "+format, args...)
}
