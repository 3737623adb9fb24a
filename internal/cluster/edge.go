package cluster

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"net/http"
	"sync/atomic"
	"time"

	"discsec/internal/c14n"
	"discsec/internal/health"
	"discsec/internal/library"
	"discsec/internal/obs"
	"discsec/internal/resilience"
	"discsec/internal/xmlstream"
)

// Edge is a thin verification node: it recomputes the canonical digest
// of presented content in one streaming pass (no DOM, no crypto) and
// serves the matching replicated verdict from its local record cache,
// a byte-budgeted library.Cache.
// Misses route through the consistent-hash ring to the key's owner —
// so concurrent cold misses across the whole fleet collapse into one
// origin verification — and fills ride a circuit breaker bound to the
// cluster health component. It implements http.Handler for the edge
// half of the wire protocol; mount it with server.WithClusterEdge.
type Edge struct {
	name    string
	selfURL string
	origin  string
	rec     *obs.Recorder
	monitor *health.Monitor
	client  *http.Client
	fill    *resilience.Breaker
	ring    *Ring

	// epochs holds the trust changes heard: a record stamped before a
	// change naming its signer (or every signer) is dead.
	epochs  library.Epochs
	records *library.Cache[Record]
	flights library.Flight[Record]
	peers   atomic.Pointer[map[string]string] // ring peers' URLs by name
}

// The record cache's budget (about 1,600 records) bounds edge memory
// whatever the catalog size. A record is accounted at its two digests
// plus recordOverhead: its cache entry, LRU element and map slot.
const (
	edgeCacheShards = 16
	edgeCacheBudget = 512 << 10
	recordOverhead  = 192
)

// EdgeOption configures an Edge.
type EdgeOption func(*Edge)

// WithEdgeRecorder wires counters and audit events.
func WithEdgeRecorder(rec *obs.Recorder) EdgeOption {
	return func(e *Edge) { e.rec = rec }
}

// WithEdgeHealth supplies the health monitor deriving the cluster
// component's Degraded/Down state from heartbeat probes and the fill
// breaker. Without it the edge builds a private monitor with the
// default probe threshold.
func WithEdgeHealth(m *health.Monitor) EdgeOption {
	return func(e *Edge) { e.monitor = m }
}

// WithEdgeClient sets the inter-node HTTP client. It must carry a
// Timeout so a dead peer hits the retry path instead of hanging.
func WithEdgeClient(c *http.Client) EdgeOption {
	return func(e *Edge) {
		if c != nil {
			e.client = c
		}
	}
}

// NewEdge builds an edge named name, advertising selfURL to peers and
// filling from the origin base URL.
func NewEdge(name, selfURL, origin string, opts ...EdgeOption) *Edge {
	e := &Edge{
		name:    name,
		selfURL: selfURL,
		origin:  origin,
		client:  &http.Client{Timeout: 5 * time.Second},
		fill:    &resilience.Breaker{Name: name + "-fill"},
		ring:    NewRing(DefaultVirtualNodes),
	}
	e.records = library.NewCache(edgeCacheShards, edgeCacheBudget, e.recordValid)
	for _, opt := range opts {
		opt(e)
	}
	if e.monitor == nil {
		e.monitor = health.New(health.WithRecorder(e.rec))
	}
	e.setMembers(nil)
	e.monitor.Register(health.ComponentCluster)
	e.monitor.BindBreaker(health.ComponentCluster, e.fill)
	return e
}

// Name returns the edge's ring name.
func (e *Edge) Name() string { return e.name }

// Epoch reports the highest trust epoch the edge has heard.
func (e *Edge) Epoch() uint64 { return e.epochs.Epoch() }

// Records reports the resident replicated-verdict count.
func (e *Edge) Records() int {
	n, _ := e.records.Stats()
	return n
}

// Health exposes the edge's monitor (the server's /healthz snapshot).
func (e *Edge) Health() *health.Monitor { return e.monitor }

// Ring exposes the routing ring (tests pin ownership through it).
func (e *Edge) Ring() *Ring { return e.ring }

// catchUp merges the origin's epoch and recent changes: they replay
// per signer from this edge's epoch, and a gap left to epoch (From ==
// To) applies to every signer. Epochs only move forward, so a replayed,
// delayed or reordered report is counted and dropped.
func (e *Edge) catchUp(epoch uint64, changes []library.TrustChange, cause string) {
	prev, moved := e.epochs.Apply(append(changes, library.TrustChange{From: epoch, To: epoch})...)
	switch {
	case moved:
		e.rec.Inc("cluster.epoch_advance")
		e.rec.Audit(obs.AuditClusterEpoch, "edge %s: trust epoch %d -> %d (%s)", e.name, prev, e.epochs.Epoch(), cause)
	case epoch < prev:
		e.rec.Inc("cluster.epoch_stale")
	}
}

// recordValid is the record cache's validity check.
func (e *Edge) recordValid(rd Record) bool {
	return e.epochs.Valid(rd.Epoch, rd.Signer)
}

// setMembers replaces the edge's fleet view: the ring carries every
// member (self included), the peer table everyone else.
func (e *Edge) setMembers(members []Member) {
	names := []string{e.name}
	peers := make(map[string]string, len(members))
	for _, m := range members {
		if m.Name == "" || m.Name == e.name {
			continue
		}
		peers[m.Name] = m.URL
		names = append(names, m.Name)
	}
	e.ring.SetNodes(names)
	e.peers.Store(&peers)
}

func (e *Edge) peerURL(name string) (string, bool) {
	url, ok := (*e.peers.Load())[name]
	return url, ok
}

// Join registers the edge with the origin and adopts the fleet epoch
// and membership from the response.
func (e *Edge) Join(ctx context.Context) error {
	ctx, rec := obs.Attach(ctx, e.rec)
	frame, err := EncodeFrame(JoinRequest{Name: e.name, URL: e.selfURL})
	if err != nil {
		return err
	}
	var jr JoinResponse
	if err := e.callFrame(ctx, e.origin+PathJoin, frame, "", &jr); err != nil {
		return fmt.Errorf("cluster: join: %w", err)
	}
	e.catchUp(jr.Epoch, jr.Changes, "join")
	e.setMembers(jr.Members)
	rec.Inc("cluster.joined")
	return nil
}

// Pull replicates the origin's resident verdict set into the edge's
// cache (bootstrap for a cold or rejoining edge), returning how many
// records were adopted.
func (e *Edge) Pull(ctx context.Context) (int, error) {
	ctx, rec := obs.Attach(ctx, e.rec)
	resp, err := e.call(ctx, e.origin+PathVerdicts, nil, "")
	if err != nil {
		return 0, fmt.Errorf("cluster: pull: %w", err)
	}
	defer resp.Body.Close()
	n, err := e.storeFrames(rec, resp.Body)
	if err == nil {
		rec.Inc("cluster.pull")
	}
	return n, err
}

// Heartbeat performs one origin liveness probe for the health monitor:
// consecutive failures walk the cluster component Degraded then Down
// (fail closed); one success resets the streak and catches the edge up
// on the trust changes it missed, as after a healed partition.
func (e *Edge) Heartbeat(ctx context.Context) error {
	ctx, rec := obs.Attach(ctx, e.rec)
	var ann EpochAnnounce
	if err := e.callFrame(ctx, e.origin+PathEpoch, nil, "", &ann); err != nil {
		e.monitor.ReportProbe(health.ComponentCluster, err)
		rec.Inc("cluster.heartbeat_fail")
		return fmt.Errorf("cluster: heartbeat: %w", err)
	}
	e.monitor.ReportProbe(health.ComponentCluster, nil)
	rec.Inc("cluster.heartbeat_ok")
	e.catchUp(ann.Epoch, ann.Changes, "heartbeat")
	return nil
}

// OpenReader serves one content open at the edge: a single streaming
// pass recomputes the exclusive-C14N digest (the library cache key)
// while retaining the raw bytes for a possible fill, then the
// replicated cache answers warm opens locally and misses route via
// the ring to exactly one origin verification fleet-wide.
func (e *Edge) OpenReader(ctx context.Context, r io.Reader) (Record, Status, error) {
	ctx, rec := obs.Attach(ctx, e.rec)
	defer rec.Start(obs.StageCluster).End()
	if err := ctx.Err(); err != nil {
		return Record{}, StatusMiss, err
	}
	key, body, err := e.digest(rec, r)
	if err != nil {
		return Record{}, StatusMiss, err
	}
	return e.open(ctx, rec, key, body, false)
}

// digest streams the document once: the canonicalizer computes the
// cache key while a tee retains the raw bytes — no DOM is built and no
// signature math runs on the edge.
func (e *Edge) digest(rec *obs.Recorder, r io.Reader) (string, []byte, error) {
	var buf bytes.Buffer
	h := sha256.New()
	st, err := c14n.NewStream(h, c14n.Options{Exclusive: true, Recorder: rec})
	if err != nil {
		return "", nil, err
	}
	if err := xmlstream.Parse(io.TeeReader(io.LimitReader(r, maxDocument+1), &buf), xmlstream.Options{}, st); err != nil {
		return "", nil, fmt.Errorf("%w: %w", library.ErrBadDocument, err)
	}
	if err := st.Close(); err != nil {
		return "", nil, fmt.Errorf("%w: %w", library.ErrBadDocument, err)
	}
	if buf.Len() > maxDocument {
		return "", nil, resilience.Terminal(fmt.Errorf("cluster: document exceeds the %d-byte limit", maxDocument))
	}
	return hex.EncodeToString(h.Sum(nil)), buf.Bytes(), nil
}

// open is the keyed serve path shared by OpenReader and forwarded
// peer requests (forwarded=true fills from the origin directly, never
// re-forwards).
func (e *Edge) open(ctx context.Context, rec *obs.Recorder, key string, body []byte, forwarded bool) (Record, Status, error) {
	rd, ok, err := e.lookup(rec, key)
	if err != nil {
		return Record{}, StatusMiss, err
	}
	if ok {
		return rd, StatusHit, nil
	}
	if e.monitor.State(health.ComponentCluster) == health.Down {
		return Record{}, StatusMiss, e.failPartitioned(rec, key, "cold fill")
	}
	status := StatusMiss
	rd, err, shared := e.flights.Do(key, func() (Record, error) {
		// Double-check under flight leadership: a push or a racing
		// fill may have landed since the first lookup.
		if rd, ok, lerr := e.lookup(rec, key); lerr != nil {
			return Record{}, lerr
		} else if ok {
			status = StatusHit
			return rd, nil
		}
		return e.fillMiss(ctx, rec, key, body, forwarded, &status)
	})
	if shared {
		rec.Inc("cluster.singleflight_wait")
		status = StatusWait
	}
	return rd, status, err // rd is zero beside an error
}

// lookup serves the warm path: one record fetch plus the epoch and
// partition gates. A record stamped before a trust change naming its
// signer dies here (library.ErrTrustChanged); a warm hit on a Down
// edge fails closed; a warm hit on a Degraded edge serves, audited.
func (e *Edge) lookup(rec *obs.Recorder, key string) (Record, bool, error) {
	rd, ok, stale := e.records.Get(key)
	if stale {
		rec.Inc("cluster.lagging_drop")
		return Record{}, false, e.laggingDrop(key, rd)
	}
	if !ok {
		return Record{}, false, nil
	}
	switch e.monitor.State(health.ComponentCluster) {
	case health.Down:
		return Record{}, false, e.failPartitioned(rec, key, "warm serve")
	case health.Degraded:
		rec.Inc("cluster.degraded_serve")
		rec.Audit(obs.AuditDegradedServe, "edge %s: verdict %.12s served while cluster link degraded (signer %.12s)", e.name, key, rd.Signer)
	}
	rec.Inc("cluster.hit")
	return rd, true, nil
}

// failPartitioned is the fail-closed exit for a Down cluster link.
func (e *Edge) failPartitioned(rec *obs.Recorder, key, what string) error {
	rec.Inc("cluster.partition_fail_closed")
	rec.Audit(obs.AuditClusterPartition, "edge %s: %s for %.12s refused; origin unreachable past the heartbeat budget", e.name, what, key)
	return fmt.Errorf("cluster: edge %s: %s for %.12s: %w", e.name, what, key, ErrPartitioned)
}

// fillMiss resolves a cold miss: forward to the ring owner when that
// is another edge (fleet-wide dedup), falling back to — or going
// straight to — the breaker-guarded origin fill.
func (e *Edge) fillMiss(ctx context.Context, rec *obs.Recorder, key string, body []byte, forwarded bool, status *Status) (Record, error) {
	if !forwarded {
		if owner := e.ring.Owner(key); owner != "" && owner != e.name {
			if url, ok := e.peerURL(owner); ok {
				var rd Record
				err := e.callFrame(ctx, url+PathVerify, body, key, &rd)
				if err == nil {
					if aerr := e.adopt(rec, key, rd); aerr != nil {
						return Record{}, aerr
					}
					rec.Inc("cluster.forward")
					*status = StatusForward
					return rd, nil
				}
				// The owner is unreachable or refusing; the origin can
				// still serve this miss (at worst one duplicate
				// verification fleet-wide).
				rec.Inc("cluster.forward_fallback")
			}
		}
	}
	var rd Record
	err := e.fill.Do(ctx, func(ctx context.Context) error {
		return e.callFrame(ctx, e.origin+PathVerify, body, "", &rd)
	})
	if err != nil {
		rec.Inc("cluster.fill_err")
		return Record{}, err
	}
	if aerr := e.adopt(rec, key, rd); aerr != nil {
		return Record{}, aerr
	}
	rec.Inc("cluster.fill")
	return rd, nil
}

// laggingDrop is the fail-closed error for a record that predates a
// trust change naming its signer; callers count the drop.
func (e *Edge) laggingDrop(key string, rd Record) error {
	return fmt.Errorf("cluster: edge %s: verdict %.12s of signer %.12s at epoch %d predates a trust change (epoch now %d): %w",
		e.name, key, rd.Signer, rd.Epoch, e.epochs.Epoch(), library.ErrTrustChanged)
}

// adopt admits a filled record: it must re-address the locally
// computed key exactly (the wrapping-proofness of the whole tier rides
// on this check) and must still be valid (a fill that raced a
// revocation of its signer self-invalidates here).
func (e *Edge) adopt(rec *obs.Recorder, key string, rd Record) error {
	if rd.Key != key {
		rec.Inc("cluster.key_mismatch")
		return resilience.Terminal(fmt.Errorf("cluster: edge %s: verdict keyed %.12s for content keyed %.12s: %w",
			e.name, rd.Key, key, ErrKeyMismatch))
	}
	if !e.storeRecord(rec, rd) {
		return e.laggingDrop(key, rd)
	}
	return nil
}

// storeRecord admits a pushed, pulled or adopted record that is still
// valid. No key check is needed here: a stored record only ever serves
// content whose digest the edge recomputes to exactly that key.
func (e *Edge) storeRecord(rec *obs.Recorder, rd Record) bool {
	if rd.Key == "" {
		return false
	}
	if !e.recordValid(rd) {
		rec.Inc("cluster.lagging_drop")
		return false
	}
	if n := e.records.Put(rd.Key, rd, int64(len(rd.Key)+len(rd.Signer)+recordOverhead)); n > 0 {
		rec.Add("cluster.evict", int64(n))
	}
	return true
}

// storeFrames admits every record framed on r, returning how many it
// stored.
func (e *Edge) storeFrames(rec *obs.Recorder, r io.Reader) (int, error) {
	fr := NewFrameReader(r)
	for n := 0; ; {
		var rd Record
		if err := fr.Next(&rd); err != nil {
			if err == io.EOF {
				err = nil
			}
			return n, err
		}
		if e.storeRecord(rec, rd) {
			n++
		}
	}
}

// call sends one request to url, a POST of body or a GET when body is
// nil, and returns the response once it is 200 OK; the caller closes
// its body. A non-empty forwardKey forwards an open to a ring peer
// under the key this edge computed. Transport and 5xx failures come
// back transient so the fill breaker counts them toward opening.
func (e *Edge) call(ctx context.Context, url string, body []byte, forwardKey string) (*http.Response, error) {
	method, rd := http.MethodGet, io.Reader(nil)
	if body != nil {
		method, rd = http.MethodPost, bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, url, rd)
	if err != nil {
		return nil, resilience.Terminal(err)
	}
	req.Header.Set(HeaderEdge, e.name)
	if forwardKey != "" {
		req.Header.Set(HeaderForwarded, forwardKey)
	}
	resp, err := e.client.Do(req)
	if err != nil {
		return nil, resilience.Classify(fmt.Errorf("cluster: %s %s: %w", method, url, err))
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		return nil, classifyExchange(url, resp)
	}
	return resp, nil
}

// callFrame is call plus decoding the response's one frame into v.
func (e *Edge) callFrame(ctx context.Context, url string, body []byte, forwardKey string, v any) error {
	resp, err := e.call(ctx, url, body, forwardKey)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if err := NewFrameReader(resp.Body).Next(v); err != nil {
		return resilience.Transient(err)
	}
	return nil
}

// ServeHTTP routes the edge half of the wire protocol.
func (e *Edge) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	switch {
	case r.URL.Path == PathVerify && r.Method == http.MethodPost:
		e.serveVerify(w, r)
	case r.URL.Path == PathVerdicts && r.Method == http.MethodPost:
		e.serveVerdicts(w, r)
	case r.URL.Path == PathEpoch && r.Method == http.MethodPost:
		e.serveEpoch(w, r)
	case r.URL.Path == PathEpoch && r.Method == http.MethodGet:
		writeFrameResponse(w, EpochAnnounce{Epoch: e.Epoch()})
	case r.URL.Path == PathMembers && r.Method == http.MethodPost:
		e.serveMembers(w, r)
	default:
		http.NotFound(w, r)
	}
}

// serveVerify handles a miss forwarded by a ring peer: same open path,
// but never re-forwarded, under the key the forwarder computed. Both
// edges re-address what they are sent (adopt), so the key is not
// recomputed here.
func (e *Edge) serveVerify(w http.ResponseWriter, r *http.Request) {
	ctx, rec := obs.Attach(r.Context(), e.rec)
	defer rec.Start(obs.StageCluster).End()
	key := r.Header.Get(HeaderForwarded)
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxDocument))
	if err != nil || key == "" {
		http.Error(w, "cluster: a forwarded open needs its key and document", http.StatusBadRequest)
		return
	}
	rec.Inc("cluster.forward_serve")
	rd, status, err := e.open(ctx, rec, key, body, true)
	if err != nil {
		writeError(w, err)
		return
	}
	w.Header().Set(HeaderStatus, string(status))
	writeFrameResponse(w, rd)
}

// serveVerdicts stores records pushed by the origin.
func (e *Edge) serveVerdicts(w http.ResponseWriter, r *http.Request) {
	_, rec := obs.Attach(r.Context(), e.rec)
	n, err := e.storeFrames(rec, http.MaxBytesReader(w, r.Body, MaxFrame+16))
	rec.Add("cluster.push_recv", int64(n))
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// serveEpoch applies an epoch announcement pushed by the origin.
func (e *Edge) serveEpoch(w http.ResponseWriter, r *http.Request) {
	var ann EpochAnnounce
	if err := NewFrameReader(http.MaxBytesReader(w, r.Body, MaxFrame)).Next(&ann); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if len(ann.Changes) == 0 {
		ann.Changes = []library.TrustChange{{To: ann.Epoch}} // every signer
	}
	e.catchUp(ann.Epoch, ann.Changes, "announce "+ann.Reason)
	w.WriteHeader(http.StatusNoContent)
}

// serveMembers applies a membership broadcast.
func (e *Edge) serveMembers(w http.ResponseWriter, r *http.Request) {
	var mu JoinResponse
	if err := NewFrameReader(http.MaxBytesReader(w, r.Body, MaxFrame)).Next(&mu); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if mu.Epoch > 0 {
		e.catchUp(mu.Epoch, mu.Changes, "membership update")
	}
	e.setMembers(mu.Members)
	w.WriteHeader(http.StatusNoContent)
}
