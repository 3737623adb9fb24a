package main

import (
	"bytes"
	"context"
	"fmt"
	"sync"
	"time"

	"discsec/internal/core"
	"discsec/internal/library"
	"discsec/internal/obs"
)

// library-zipf: a content server (or multi-disc player) sharing one
// verdict cache. Two closed-loop clients open signed cluster documents
// drawn Zipf(1) from a catalog four times larger than the library's
// byte budget, so evictions keep a steady stream of misses.
const (
	zipfCatalog = 2048
	zipfBudget  = 3 << 20
	zipfClients = 2
	zipfWarmups = 2048
)

type libraryZipf struct {
	lib     *library.Library
	catalog []*doc
	dist    *zipf
	rng     uint64
	rec     *obs.Recorder
	pk      *pki
}

func setupLibraryZipf(seed uint64, traced bool, _ time.Duration) (system, error) {
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
	catalog, err := buildCatalog(zipfCatalog, signers, rng)
	if err != nil {
		return nil, err
	}
	z := &libraryZipf{catalog: catalog, dist: newZipf(zipfCatalog), rng: rng.Uint64(), pk: p}
	opts := []library.Option{
		library.WithOpener(core.Opener{RequireSignature: true}),
		library.WithTrustService(p.svc),
		library.WithByteBudget(zipfBudget),
	}
	if traced {
		z.rec = obs.NewRecorder()
		opts = append(opts, library.WithRecorder(z.rec))
	}
	z.lib = library.New(opts...)

	// Warm-up: both clients draw from streams the timed phase never
	// uses, so the cache starts the phase filled.
	ph, err := z.drive(100, false, func(n int) bool { return n < zipfWarmups/zipfClients })
	if err != nil {
		return nil, err
	}
	if ph.ops.failed > 0 {
		return nil, fmt.Errorf("warm-up: %d of %d opens failed", ph.ops.failed, ph.ops.attempted)
	}
	return z, nil
}

// open is one op: OpenReader over the document bytes, classified by
// the library's status and checked against the precomputed key and
// signer.
func (z *libraryZipf) open(c *client, d *doc) error {
	start := time.Now()
	c.tr.begin(rootOp)
	c.tr.begin(spanLibraryOpen)
	v, st, err := z.lib.OpenReader(context.Background(), bytes.NewReader(d.raw))
	c.tr.end()
	c.tr.end()
	class := classMiss
	if err == nil && st == library.StatusHit {
		class = classHit
	}
	c.attempts[class].record(err == nil)
	c.done(class, true, start, err)
	if err != nil {
		return nil
	}
	if v.Key != d.key || v.Fingerprint != d.signer {
		return wrong("library-zipf: verdict key %.12s signer %.12s, want %.12s and %.12s", v.Key, v.Fingerprint, d.key, d.signer)
	}
	return nil
}

func (z *libraryZipf) run(deadline time.Time, traced bool) (*phase, error) {
	return z.drive(0, traced, func(int) bool { return time.Now().Before(deadline) })
}

// drive runs zipfClients closed-loop clients, client i drawing from
// stream base+i+1, each while more(ops it has done) holds.
func (z *libraryZipf) drive(base uint64, traced bool, more func(n int) bool) (*phase, error) {
	start := time.Now()
	clients := make([]*client, zipfClients)
	errs := make([]error, zipfClients)
	var wg sync.WaitGroup
	for i := range clients {
		c := newClient(traced, start)
		clients[i] = c
		rng := newRNG(z.rng, base+uint64(i+1))
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for n := 0; more(n); n++ {
				speed.enter()
				err := z.open(c, z.catalog[z.dist.draw(rng)])
				speed.leave()
				if err != nil {
					errs[i] = err
					return
				}
			}
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return mergeClients(start, clients), nil
}

func (z *libraryZipf) setRecording(on bool) { z.rec.SetEnabled(on) }

func (z *libraryZipf) counters() map[string]float64 {
	m := recorderCounters(z.rec)
	m["library.size_bytes"] = float64(z.lib.SizeBytes())
	return m
}

func (z *libraryZipf) close() {}

func (z *libraryZipf) corpus() *replayCorpus {
	return docCorpus(z.pk, z.rng, z.catalog)
}

// docCorpus picks the replay documents from a catalog: its first small
// and first large document, and the small one's signer for the chain.
func docCorpus(p *pki, seed uint64, catalog []*doc) *replayCorpus {
	rc := &replayCorpus{pk: p, seed: seed}
	for _, d := range catalog {
		switch {
		case d.big && rc.big == nil:
			rc.big = d
		case !d.big && rc.small == nil:
			rc.small = d
			rc.signer = d.by
		}
	}
	return rc
}
