package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"net"
	"net/http"
	"runtime"
	"time"

	"discsec/internal/cluster"
	"discsec/internal/core"
	"discsec/internal/library"
	"discsec/internal/obs"
	"discsec/internal/server"
)

// edge-fleet: origin/edge serving under trust churn. One origin and
// edgeCount edges, each behind a real loopback server.ContentServer.
// One client opens documents round-robin across the edges; one open in
// edgeNewEvery is a document no node has seen, so cold fills through
// the ring and the origin keep arriving. Every edgeChurnEvery opens a
// fresh, unrelated signer is registered, its probe document is warmed
// through one edge, and the signer is revoked.
//
// A client that gets library.ErrTrustChanged retries once with a fresh
// reader, as library.OpenReader documents; the failed call still
// counts as a failed attempt, so the fleet-wide revocation defect
// shows in fail_ratio and cluster.lagging_drop_per_revoke.
//
// The never-seen documents and the churn signers are pre-built in
// set-up, enough for all timed phases together at edgePoolRate opens
// per second: eight times the rate measured at this commit (about 800
// on a 2-vCPU Xeon guest), so that a fix of the revocation defect or a
// faster hit path still fits. The never-seen documents are all small,
// which keeps that pool's signing time and memory down. A phase that
// empties a pool fails the run rather than quietly shortening.
const (
	edgeCount        = 4
	edgeCatalog      = 256
	edgeNewEvery     = 16
	edgeChurnEvery   = 256
	edgePoolRate     = 8 * 800
	edgeOriginBudget = 8 << 20
	edgeWarmups      = 512
)

// churnSigner is a signer registered, warmed and revoked during the
// timed phase, with the probe document only it signed.
type churnSigner struct {
	s     *signer
	probe *doc
}

type edgeFleet struct {
	pk      *pki
	lib     *library.Library
	origin  *cluster.Origin
	edges   []*cluster.Edge
	stops   []func()
	catalog []*doc
	fresh   []*doc
	churn   []*churnSigner
	dist    *zipf
	rng     uint64
	rec     *obs.Recorder

	nextFresh, nextChurn int
}

// edgePools is how many never-seen documents and churn signers phases
// of d need in total at edgePoolRate opens per second.
func edgePools(d time.Duration) (fresh, churn int) {
	opens := int(d.Seconds()*edgePoolRate) + 1
	return opens/edgeNewEvery + 1, opens/edgeChurnEvery + 1
}

func setupEdgeFleet(seed uint64, traced bool, d time.Duration) (sys system, err error) {
	rng := newRNG(seed, 0)
	p, err := newPKI()
	if err != nil {
		return nil, err
	}
	var signers []*signer
	for _, name := range []string{"Studio A", "Studio B"} {
		s, err := p.register(name)
		if err != nil {
			return nil, err
		}
		signers = append(signers, s)
	}
	f := &edgeFleet{pk: p, dist: newZipf(edgeCatalog)}
	if f.catalog, err = buildCatalog(edgeCatalog, signers, rng); err != nil {
		return nil, err
	}
	// The pools draw from streams of their own, so the catalog and the
	// draws do not depend on d.
	freshN, churnN := edgePools(d)
	if f.fresh, err = buildDocs(make([]bool, freshN), signers, newRNG(seed, 2)); err != nil {
		return nil, err
	}
	crng := newRNG(seed, 3)
	seeds := make([]uint64, churnN)
	for i := range seeds {
		seeds[i] = crng.Uint64()
	}
	f.churn = make([]*churnSigner, churnN)
	if err := parallel(churnN, func(i int) error {
		s, err := p.issue(fmt.Sprintf("Churn Signer %d", i))
		if err != nil {
			return err
		}
		probe, err := makeDoc(s, false, seeds[i])
		if err != nil {
			return err
		}
		f.churn[i] = &churnSigner{s: s, probe: probe}
		return nil
	}); err != nil {
		return nil, err
	}
	f.rng = rng.Uint64()
	if traced {
		f.rec = obs.NewRecorder()
	}

	f.lib = library.New(
		library.WithOpener(core.Opener{RequireSignature: true}),
		library.WithTrustService(p.svc),
		library.WithByteBudget(edgeOriginBudget),
		library.WithRecorder(f.rec),
	)
	f.origin = cluster.NewOrigin(f.lib, cluster.WithOriginRecorder(f.rec), cluster.WithOriginTrust(p.svc))
	defer func() {
		if err != nil {
			f.close()
		}
	}()
	if err := f.start(); err != nil {
		return nil, err
	}

	// Warm-up: every catalog document once, then Zipf draws from a
	// stream the timed phase never uses.
	c := newClient(false, time.Now())
	for i, d := range f.catalog {
		if err := f.open(c, f.edges[i%edgeCount], d); err != nil {
			return nil, err
		}
	}
	wrng := newRNG(f.rng, 100)
	for i := 0; i < edgeWarmups; i++ {
		if err := f.open(c, f.edges[i%edgeCount], f.catalog[f.dist.draw(wrng)]); err != nil {
			return nil, err
		}
	}
	if c.ops.failed > 0 {
		return nil, fmt.Errorf("warm-up: %d of %d opens failed", c.ops.failed, c.ops.attempted)
	}
	return f, nil
}

// start serves the origin and every edge on loopback listeners, joins
// the edges and waits until each one sees the full membership.
func (f *edgeFleet) start() error {
	originURL, stopOrigin, err := server.NewContentServer(server.WithClusterOrigin(f.origin)).Serve("127.0.0.1:0")
	if err != nil {
		return err
	}
	f.stops = append(f.stops, func() { _ = stopOrigin() })
	for i := 0; i < edgeCount; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		e := cluster.NewEdge(fmt.Sprintf("edge-%d", i), "http://"+ln.Addr().String(), originURL,
			cluster.WithEdgeRecorder(f.rec))
		srv := &http.Server{Handler: server.NewContentServer(server.WithClusterEdge(e)), ReadHeaderTimeout: 5 * time.Second}
		done := make(chan struct{})
		//discvet:ignore goroutineleak Serve returns once the stop func below closes srv, and that func waits on done
		go func() {
			defer close(done)
			_ = srv.Serve(ln) // returns http.ErrServerClosed once stopped
		}()
		f.stops = append(f.stops, func() {
			_ = srv.Close()
			<-done
		})
		if err := e.Join(context.Background()); err != nil {
			return err
		}
		f.edges = append(f.edges, e)
	}
	// Membership updates fan out after each join response; spin (no
	// sleep, whose granularity would show in setup_s) until every edge
	// has them.
	deadline := time.Now().Add(10 * time.Second)
	for _, e := range f.edges {
		for e.Ring().Len() != edgeCount {
			if time.Now().After(deadline) {
				return fmt.Errorf("edge %s never saw the full membership", e.Name())
			}
			runtime.Gosched()
		}
	}
	return nil
}

// call is one OpenReader attempt, counted by the status it returned.
func (f *edgeFleet) call(c *client, e *cluster.Edge, d *doc) (cluster.Record, cluster.Status, error) {
	c.tr.begin(spanClusterOpen)
	rd, st, err := e.OpenReader(context.Background(), bytes.NewReader(d.raw))
	c.tr.end()
	class := classMiss
	if st == cluster.StatusHit {
		class = classHit
	}
	c.attempts[class].record(err == nil)
	return rd, st, err
}

// open is one op on one edge, with one retry after
// library.ErrTrustChanged. The record served must carry the
// document's precomputed key and signer.
func (f *edgeFleet) open(c *client, e *cluster.Edge, d *doc) error {
	start := time.Now()
	c.tr.begin(rootOp)
	rd, st, err := f.call(c, e, d)
	retried := errors.Is(err, library.ErrTrustChanged)
	if retried {
		rd, st, err = f.call(c, e, d)
	}
	c.tr.end()
	class := classMiss
	if st == cluster.StatusHit && !retried {
		class = classHit
	}
	c.done(class, true, start, err)
	if err != nil {
		return nil
	}
	if rd.Key != d.key || rd.Signer != d.signer {
		return wrong("edge-fleet: %s served key %.12s signer %.12s, want %.12s and %.12s", e.Name(), rd.Key, rd.Signer, d.key, d.signer)
	}
	return nil
}

// revoke registers the next churn signer, warms its probe through one
// edge, revokes it, waits until every edge reports the origin's epoch,
// and checks that every edge refuses the probe.
func (f *edgeFleet) revoke(c *client) error {
	cs := f.churn[f.nextChurn]
	f.nextChurn++
	name := cs.s.id.Name
	if err := f.pk.svc.Register(name, cs.s.id.Cert, signerPassword); err != nil {
		return err
	}
	warm := f.edges[f.nextChurn%edgeCount]
	rd, _, err := warm.OpenReader(context.Background(), bytes.NewReader(cs.probe.raw))
	if err != nil {
		return fmt.Errorf("warming the probe of %s: %w", name, err)
	}
	if rd.Key != cs.probe.key || rd.Signer != cs.probe.signer {
		return wrong("edge-fleet: probe served key %.12s signer %.12s, want %.12s and %.12s", rd.Key, rd.Signer, cs.probe.key, cs.probe.signer)
	}

	c.tr.begin(rootRevoke)
	start := time.Now()
	c.tr.begin(spanRevoke)
	err = f.pk.svc.Revoke(name, signerPassword)
	c.tr.end()
	if err != nil {
		c.tr.end()
		return err
	}
	c.tr.begin(spanConvergeWait)
	err = f.converge(start)
	c.tr.end()
	c.tr.end()
	if err != nil {
		return err
	}
	c.revokes = append(c.revokes, time.Since(start).Nanoseconds())

	c.tr.begin(rootProbe)
	defer c.tr.end()
	for _, e := range f.edges {
		if err := f.probe(c, e, cs.probe); err != nil {
			return err
		}
	}
	return nil
}

// converge spins until every edge reports the origin's epoch.
func (f *edgeFleet) converge(start time.Time) error {
	want := f.origin.Epoch()
	for {
		done := true
		for _, e := range f.edges {
			if e.Epoch() != want {
				done = false
			}
		}
		if done {
			return nil
		}
		if time.Since(start) > 10*time.Second {
			return fmt.Errorf("fleet did not converge on epoch %d", want)
		}
		runtime.Gosched()
	}
}

// probe opens revoked content on one edge, retrying once after
// library.ErrTrustChanged as a client would. Any serve is a wrong
// output; refusal is the probe's success.
func (f *edgeFleet) probe(c *client, e *cluster.Edge, d *doc) error {
	for attempt := 0; attempt < 2; attempt++ {
		c.tr.begin(spanClusterOpen)
		_, _, err := e.OpenReader(context.Background(), bytes.NewReader(d.raw))
		c.tr.end()
		c.attempts[classProbe].record(err != nil)
		if err == nil {
			return wrong("edge-fleet: %s served content of a revoked signer", e.Name())
		}
		if !errors.Is(err, library.ErrTrustChanged) {
			return nil
		}
	}
	return nil
}

func (f *edgeFleet) run(deadline time.Time, traced bool) (*phase, error) {
	start := time.Now()
	c := newClient(traced, start)
	rng := newRNG(f.rng, 1)
	for i := 0; time.Now().Before(deadline); i++ {
		speed.enter()
		err := f.iteration(c, rng, i)
		speed.leave()
		if err != nil {
			return nil, err
		}
	}
	return mergeClients(start, []*client{c}), nil
}

// iteration is the i-th op of a phase, preceded by a revocation every
// edgeChurnEvery ops.
func (f *edgeFleet) iteration(c *client, rng *rand.Rand, i int) error {
	if i > 0 && i%edgeChurnEvery == 0 {
		if f.nextChurn == len(f.churn) {
			return fmt.Errorf("the %d churn signers ran out: raise edgePoolRate", len(f.churn))
		}
		if err := f.revoke(c); err != nil {
			return err
		}
	}
	var d *doc
	if rng.IntN(edgeNewEvery) == 0 {
		if f.nextFresh == len(f.fresh) {
			return fmt.Errorf("the %d never-seen documents ran out: raise edgePoolRate", len(f.fresh))
		}
		d = f.fresh[f.nextFresh]
		f.nextFresh++
	} else {
		d = f.catalog[f.dist.draw(rng)]
	}
	return f.open(c, f.edges[i%edgeCount], d)
}

func (f *edgeFleet) setRecording(on bool) { f.rec.SetEnabled(on) }

func (f *edgeFleet) counters() map[string]float64 {
	m := recorderCounters(f.rec)
	m["library.size_bytes"] = float64(f.lib.SizeBytes())
	records := 0
	for _, e := range f.edges {
		records += e.Records()
	}
	m["cluster.edge_records"] = float64(records)
	m["cluster.origin_records"] = float64(f.origin.Records())
	return m
}

func (f *edgeFleet) close() {
	for i := len(f.stops) - 1; i >= 0; i-- {
		f.stops[i]()
	}
	f.stops = nil
	if t, ok := http.DefaultTransport.(*http.Transport); ok {
		t.CloseIdleConnections()
	}
}

func (f *edgeFleet) corpus() *replayCorpus {
	return docCorpus(f.pk, f.rng, f.catalog)
}
