package cluster

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"sort"
	"sync"
	"time"

	"discsec/internal/keymgmt"
	"discsec/internal/library"
	"discsec/internal/obs"
	"discsec/internal/resilience"
)

// Origin is the cluster's cold-verification node: it runs every cold
// fill through the shared library, stamps the verdict with the trust
// epoch read before the open began (so a fill racing a revocation of
// its signer self-invalidates at every edge), and fans records and the
// library's trust changes out to the registered edges. It keeps no
// verdicts of its own: bootstrap pulls read the library's. It is the
// http.Handler for the /cluster/* routes (server.WithClusterOrigin).
type Origin struct {
	lib    *library.Library
	rec    *obs.Recorder
	client *http.Client

	mu      sync.Mutex
	members map[string]member
}

// member is one registered edge and the breaker its pushes ride, so one
// unreachable edge fails its pushes fast instead of stalling every
// fan-out on a full client timeout.
type member struct {
	Member
	breaker *resilience.Breaker
}

// OriginOption configures an Origin.
type OriginOption func(*Origin)

// WithOriginRecorder wires counters and audit events.
func WithOriginRecorder(rec *obs.Recorder) OriginOption {
	return func(o *Origin) { o.rec = rec }
}

// WithOriginTrust subscribes the origin's library to svc
// (library.Library.WatchTrust, which WithTrustService(svc) may already
// have done): every revocation or reissue becomes a trust change the
// origin fans out, and the epoch seeds from svc's change count, so a
// restarted origin never announces an epoch below its edges'.
func WithOriginTrust(svc *keymgmt.Service) OriginOption {
	return func(o *Origin) { o.lib.WatchTrust(svc) }
}

// WithOriginClient sets the HTTP client for push fan-out. It must
// carry a Timeout so a partitioned edge stalls one push, not the
// origin.
func WithOriginClient(c *http.Client) OriginOption {
	return func(o *Origin) {
		if c != nil {
			o.client = c
		}
	}
}

// NewOrigin builds the origin over a shared verification library.
func NewOrigin(lib *library.Library, opts ...OriginOption) *Origin {
	o := &Origin{
		lib:     lib,
		client:  &http.Client{Timeout: 5 * time.Second},
		members: make(map[string]member),
	}
	lib.OnTrustChange(o.announce)
	for _, opt := range opts {
		opt(o)
	}
	return o
}

// Epoch reports the library's trust epoch, the one edges converge on.
func (o *Origin) Epoch() uint64 { return o.lib.GlobalEpoch() }

// Records reports the library's resident verdict count, the set a
// bootstrap pull serves from (diagnostics and tests).
func (o *Origin) Records() int { return o.lib.Len() }

// announce fans one library trust change out to every registered edge
// inside the change's caller (typically keymgmt.Service.Revoke), so the
// fleet has heard it before that call returns; a partitioned edge
// catches up at its next successful heartbeat.
func (o *Origin) announce(c library.TrustChange) {
	reason := "every signer"
	if len(c.Signers) > 0 {
		reason = fmt.Sprintf("signers %.12q", c.Signers)
	}
	o.rec.Inc("cluster.epoch_advance")
	o.rec.Audit(obs.AuditClusterEpoch, "origin: trust epoch %d -> %d (%s)", c.From, c.To, reason)
	ann, err := EncodeFrame(EpochAnnounce{Epoch: c.To, Changes: o.lib.TrustChanges(), Reason: reason})
	if err != nil {
		return
	}
	o.fanOut(context.Background(), "", PathEpoch, ann, "cluster.epoch_push")
}

// fanOut pushes one frame to every registered edge but skip, one
// goroutine per edge, and returns once every push has finished: the
// slowest edge, not the sum of them, bounds the wait. ctx carries the
// caller's deadline into every push.
func (o *Origin) fanOut(ctx context.Context, skip, path string, frame []byte, okCounter string) {
	o.mu.Lock()
	var targets []member
	for _, m := range o.members {
		if m.Name != skip {
			targets = append(targets, m)
		}
	}
	o.mu.Unlock()
	var wg sync.WaitGroup
	for _, m := range targets {
		wg.Add(1)
		go func() {
			defer wg.Done()
			o.push(ctx, m, path, frame, okCounter)
		}()
	}
	wg.Wait()
}

// push delivers one framed message to an edge route, best-effort: the
// result feeds the edge's breaker and the counters, never the caller.
func (o *Origin) push(ctx context.Context, m member, path string, frame []byte, okCounter string) {
	err := m.breaker.Do(ctx, func(ctx context.Context) error {
		req, rerr := http.NewRequestWithContext(ctx, http.MethodPost, m.URL+path, bytes.NewReader(frame))
		if rerr != nil {
			return resilience.Terminal(rerr)
		}
		resp, derr := o.client.Do(req)
		if derr != nil {
			return resilience.Classify(derr)
		}
		defer resp.Body.Close()
		if resp.StatusCode >= 300 {
			return classifyExchange(m.URL+path, resp)
		}
		return nil
	})
	if err != nil {
		o.rec.Inc("cluster.push_fail")
		return
	}
	o.rec.Inc(okCounter)
}

// ServeHTTP routes the origin half of the wire protocol.
func (o *Origin) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	switch {
	case r.URL.Path == PathVerify && r.Method == http.MethodPost:
		o.serveVerify(w, r)
	case r.URL.Path == PathEpoch && r.Method == http.MethodGet:
		o.rec.Inc("cluster.heartbeat_serve")
		// The epoch is read first: changes past it only help.
		writeFrameResponse(w, EpochAnnounce{Epoch: o.Epoch(), Changes: o.lib.TrustChanges()})
	case r.URL.Path == PathVerdicts && r.Method == http.MethodGet:
		o.serveVerdicts(w)
	case r.URL.Path == PathJoin && r.Method == http.MethodPost:
		o.serveJoin(w, r)
	default:
		http.NotFound(w, r)
	}
}

// serveVerify is the fleet's single cold-verification entry: the body
// streams straight into the library (single pass, reader-first), and
// the verdict ships back as a Record stamped with the trust epoch read
// before the open. Reading the epoch first is load-bearing: a
// revocation of the signer that lands mid-verification marks the
// signer past it, so every edge rejects the record instead of caching
// a pre-revocation verdict.
func (o *Origin) serveVerify(w http.ResponseWriter, r *http.Request) {
	ctx, rec := obs.Attach(r.Context(), o.rec)
	defer rec.Start(obs.StageCluster).End()
	e := o.Epoch()
	v, status, err := o.lib.OpenReader(ctx, http.MaxBytesReader(w, r.Body, maxDocument))
	if err != nil {
		rec.Inc("cluster.origin_verify_err")
		writeError(w, err)
		return
	}
	rec.Inc("cluster.origin_verify")
	rd := record(v, e)
	// Replicate to every edge except the requester (which gets the
	// record in its response) before answering: once the requester
	// holds its verdict, fleet-wide replication has already happened.
	if frame, ferr := EncodeFrame(rd); ferr == nil {
		o.fanOut(ctx, r.Header.Get(HeaderEdge), PathVerdicts, frame, "cluster.push")
	}
	w.Header().Set(HeaderStatus, string(status))
	writeFrameResponse(w, rd)
}

// record is the wire form of a library verdict; epoch is the trust
// epoch read before the verdict was looked up or filled.
func record(v *library.Verdict, epoch uint64) Record {
	return Record{
		Key:        v.Key,
		Signer:     v.Fingerprint,
		Epoch:      epoch,
		Degraded:   v.Degraded,
		Signatures: len(v.Result.Signatures),
	}
}

// serveVerdicts streams the library's still-valid resident verdicts as
// frames (edge bootstrap pull), stamped with the epoch read before
// they were collected.
func (o *Origin) serveVerdicts(w http.ResponseWriter) {
	e := o.Epoch()
	verdicts := o.lib.Verdicts()
	sort.Slice(verdicts, func(i, j int) bool { return verdicts[i].Key < verdicts[j].Key })
	w.Header().Set("Content-Type", "application/octet-stream")
	for _, v := range verdicts {
		if err := WriteFrame(w, record(v, e)); err != nil {
			return
		}
	}
	o.rec.Inc("cluster.pull_serve")
}

// serveJoin registers an edge and hands it the fleet epoch, the recent
// trust changes and the full membership; standing edges learn the
// newcomer through a membership broadcast.
func (o *Origin) serveJoin(w http.ResponseWriter, r *http.Request) {
	var jr JoinRequest
	if err := NewFrameReader(http.MaxBytesReader(w, r.Body, MaxFrame)).Next(&jr); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if jr.Name == "" || jr.URL == "" {
		http.Error(w, "cluster: join requires a name and URL", http.StatusBadRequest)
		return
	}
	jresp := JoinResponse{Epoch: o.Epoch(), Changes: o.lib.TrustChanges()}
	o.mu.Lock()
	o.members[jr.Name] = member{Member{Name: jr.Name, URL: jr.URL}, &resilience.Breaker{Name: "cluster-push-" + jr.Name}}
	for _, m := range o.members {
		jresp.Members = append(jresp.Members, m.Member)
	}
	o.mu.Unlock()
	sort.Slice(jresp.Members, func(i, j int) bool { return jresp.Members[i].Name < jresp.Members[j].Name })
	o.rec.Inc("cluster.join")
	writeFrameResponse(w, jresp)
	if update, err := EncodeFrame(jresp); err == nil {
		o.fanOut(r.Context(), jr.Name, PathMembers, update, "cluster.member_push")
	}
}

func writeFrameResponse(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/octet-stream")
	_ = WriteFrame(w, v) // headers are gone: nothing recoverable mid-body
}
