// Package library implements the shared verification library: one pool
// of fully verified content verdicts shared by many player sessions
// across many mounted discs.
//
// The paper's player re-runs the whole Fig. 9 pipeline (decryption
// transform, reference digests, signature validation, chain building)
// on every Application Manifest load — the dominant cost once XML
// security overhead (2.5–5.1x over binary per reference [37]) meets the
// ROADMAP's millions-of-concurrent-users target. The library
// amortizes that cost safely: a sharded, byte-budgeted LRU cache whose
// entries are complete core.OpenResult verdicts, keyed by the triple
//
//	(exclusive-C14N digest, signer-key fingerprint, trust epoch)
//
// so a cache hit can never stand in for content the verifier did not
// actually validate. Keying on the canonical digest (not raw bytes or
// file identity) means any wrapping-style substitution — moving the
// signed subtree, injecting a sibling the application engine would read
// — changes the canonical form and therefore misses the cache; keying
// on the fingerprint of the key that validated SignatureValue (not the
// mutable KeyName/CN hints) binds the verdict to the actual signer; and
// the trust epoch (Epochs: one sequence, global and per-signer marks)
// lets a revocation flush every dependent verdict without a global lock
// or a cache walk. The cache (Cache), singleflight (Flight) and epoch
// model are generic and shared with the cluster tier's edges.
//
// Concurrency: lookups are lock-free per shard beyond one short mutex;
// concurrent misses for the same digest collapse into a single
// verification via singleflight; Mount prewarms a disc's manifest tree
// through a bounded worker pool shared by all mounts.
package library

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"

	"discsec/internal/c14n"
	"discsec/internal/core"
	"discsec/internal/disc"
	"discsec/internal/keymgmt"
	"discsec/internal/obs"
	"discsec/internal/resilience"
	"discsec/internal/xmldom"
	"discsec/internal/xmlstream"
)

// Status classifies how one open was served.
type Status string

// Open statuses (also surfaced in the server's X-Library-Cache header).
const (
	// StatusHit: the verdict came straight from the cache.
	StatusHit Status = "hit"
	// StatusMiss: this call ran the full verification and filled the
	// cache.
	StatusMiss Status = "miss"
	// StatusWait: another in-flight call was already verifying the same
	// canonical digest; this call waited for its verdict.
	StatusWait Status = "singleflight-wait"
	// StatusBypass: the document is unsigned; it was processed but not
	// cached (only verified verdicts are worth sharing).
	StatusBypass Status = "bypass"
)

// Library errors.
var (
	// ErrBadDocument wraps tokenizer/parser rejections of the input
	// itself (malformed XML, DOCTYPE, depth/token limits) — a client
	// error, distinct from verification failures.
	ErrBadDocument = errors.New("library: malformed document")
	// ErrNotMounted indicates OpenTrack named an unknown disc.
	ErrNotMounted = errors.New("library: disc not mounted")
	// ErrAlreadyMounted indicates a duplicate Mount name.
	ErrAlreadyMounted = errors.New("library: disc already mounted")
	// ErrTrustChanged indicates trust invalidations kept racing a fill;
	// the library fails closed rather than cache a possibly stale
	// verdict.
	ErrTrustChanged = errors.New("library: trust changed during verification; verdict discarded")
	// ErrNoTrack indicates the mounted disc has no such track.
	ErrNoTrack = errors.New("library: no such track")
	// ErrDependencyDown indicates a cold fill was refused outright
	// because a dependency the verification needs (the trust service)
	// is down — its circuit breaker is open. Warm hits keep serving
	// (degraded, audited); only uncached verification fails closed,
	// immediately instead of timing out. See the SECURITY.md decision
	// table.
	ErrDependencyDown = errors.New("library: dependency down; cold fill refused")
)

// Verdict is one fully verified, immutable cache entry: the decrypted
// document, its decoded content hierarchy, and the security report.
// Verdicts are shared read-only across sessions — callers must not
// mutate Doc or Cluster (clone first).
type Verdict struct {
	// Doc is the verified, decrypted document.
	Doc *xmldom.Document
	// Cluster is the decoded content hierarchy.
	Cluster *disc.InteractiveCluster
	// Result is the full security report of the fill verification.
	Result *core.OpenResult
	// Key is the canonical (exclusive C14N) digest the entry is stored
	// under.
	Key string
	// Fingerprint identifies the signing key (core.KeyFingerprint).
	Fingerprint string
	// Degraded reports the verdict was filled while the trust service
	// was degraded (revocation data possibly stale); such verdicts are
	// re-verified as soon as trust recovers.
	Degraded bool

	// epoch is the trust epoch read before the fill verified.
	epoch uint64
}

// Library is a shared pool of verified verdicts. Construct with New;
// the zero value is not usable.
type Library struct {
	opener   core.Opener
	rec      *obs.Recorder
	degraded func() bool

	budget  int64
	nshards int
	cache   *Cache[*Verdict]
	flights flightGroup

	// epochs versions trust: a revocation marks only its signer, so it
	// flushes only that signer's verdicts. Every change advances the
	// epoch, and fills retry when it moved while they verified, so a
	// revocation racing a fill can never be cached around.
	epochs Epochs
	// onChange is the trust-change hook (OnTrustChange).
	onChange atomic.Pointer[func(TrustChange)]
	// shared holds one copy of each name and short attribute value
	// seen in filled verdicts (share).
	sharedMu sync.Mutex
	shared   map[string]string

	// signerIndex maps trust-service binding names to the key
	// fingerprints seen for them, for name-keyed revocation fan-out.
	// signerMu also orders a fill's last epoch check against a
	// name-keyed revocation (indexSigner, InvalidateSignerName).
	signerMu    sync.Mutex
	signerIndex map[string]map[string]struct{}
	watched     atomic.Pointer[keymgmt.Service] // WatchTrust's last subscription

	prewarmSem chan struct{}
	mounts     sync.Map // name -> *mounted

	// fillGate, when set, caps concurrent cold fills (WithFillLimit).
	fillGate *resilience.Bulkhead
}

// Option configures a Library built by New.
type Option func(*Library)

// WithOpener sets the verification configuration (trust roots, decrypt
// material, signature policy). The library owns it: every fill — no
// matter which engine or route triggered it — verifies under this one
// configuration, which is what makes sharing the verdicts sound.
func WithOpener(op core.Opener) Option {
	return func(l *Library) { l.opener = op }
}

// WithRecorder sets the observability recorder for hit/miss/evict/
// singleflight counters, library spans, and degraded-serve audits.
func WithRecorder(rec *obs.Recorder) Option {
	return func(l *Library) { l.rec = rec }
}

// WithByteBudget bounds resident verdict bytes (approximated by source
// document size). The budget is split evenly across shards. Zero or
// negative keeps the default (64 MiB).
func WithByteBudget(n int64) Option {
	return func(l *Library) {
		if n > 0 {
			l.budget = n
		}
	}
}

// WithShards sets the shard count (power-of-two recommended; default
// 16). More shards reduce lock contention at high engine counts.
func WithShards(n int) Option {
	return func(l *Library) {
		if n > 0 {
			l.nshards = n
		}
	}
}

// WithDegradedFunc supplies the degraded-trust probe (typically
// keymgmt.Client.Degraded). While it reports true, cache hits are
// served but audited (obs.AuditDegradedServe), and verdicts filled
// during the outage are re-verified as soon as it reports false.
func WithDegradedFunc(fn func() bool) Option {
	return func(l *Library) { l.degraded = fn }
}

// WithTrustService wires revocation fan-out (WatchTrust). If the opener
// has no KeyByName resolver yet, the service's is installed.
func WithTrustService(svc *keymgmt.Service) Option {
	return func(l *Library) {
		if svc == nil {
			return
		}
		l.WatchTrust(svc)
		if l.opener.KeyByName == nil {
			l.opener.KeyByName = svc.PublicKeyByName
		}
	}
}

// WithPrewarmWorkers bounds the worker pool Mount uses to prewarm a
// disc's manifest tree (default 4, shared across concurrent mounts).
func WithPrewarmWorkers(n int) Option {
	return func(l *Library) {
		if n > 0 {
			l.prewarmSem = make(chan struct{}, n)
		}
	}
}

// WithFillLimit caps concurrent cold-fill verifications with a
// bulkhead. Fills are the expensive path (full Fig. 9 pipeline plus
// trust-service round trips); the cap keeps a burst of distinct misses
// from saturating the verifier while warm hits stay unaffected. 0
// leaves fills uncapped.
func WithFillLimit(n int) Option {
	return func(l *Library) {
		if n > 0 {
			l.fillGate = resilience.NewBulkhead("library-fill", n)
		}
	}
}

const (
	defaultBudget  = 64 << 20
	defaultShards  = 16
	defaultWorkers = 4
	// maxFillAttempts bounds re-verification when trust invalidations
	// race a fill; after that the library fails closed.
	maxFillAttempts = 3
	// maxShared bounds the shared-string table, which content feeds.
	maxShared = 4096
)

// New builds a shared verification library.
func New(opts ...Option) *Library {
	l := &Library{
		budget:      defaultBudget,
		nshards:     defaultShards,
		signerIndex: make(map[string]map[string]struct{}),
		prewarmSem:  make(chan struct{}, defaultWorkers),
		shared:      make(map[string]string),
	}
	for _, o := range opts {
		o(l)
	}
	l.cache = NewCache(l.nshards, l.budget, l.entryValid)
	return l
}

// OpenReader verifies a cluster document streamed from r through the
// shared cache, in a single cold-path pass: one tokenization drives
// both the private DOM build (verification mutates it on a miss) and
// the incremental exclusive-C14N digest that is the cache key — the
// reader is consumed exactly once and never buffered whole.
//
// Because the input cannot be re-read, a fill that races a trust
// invalidation fails closed with ErrTrustChanged instead of silently
// re-verifying stale state; the caller retries with a fresh reader.
// The byte-slice form, OpenDocument, re-parses and retries internally.
func (l *Library) OpenReader(ctx context.Context, r io.Reader) (*Verdict, Status, error) {
	ctx, rec := obs.Attach(ctx, l.rec)
	defer rec.Start(obs.StageLibrary).End()
	if err := ctx.Err(); err != nil {
		return nil, StatusMiss, err
	}
	doc, key, size, err := parseAndKey(rec, r)
	if err != nil {
		return nil, StatusMiss, fmt.Errorf("%w: %w", ErrBadDocument, err)
	}
	return l.open(ctx, rec, key, doc, nil, size, nil)
}

// OpenDocument verifies a raw cluster document through the shared
// cache: one streaming parse+canonical-digest pass, cache lookup, and
// on a miss one singleflight-deduplicated core verification whose
// verdict is cached for every later caller. Unsigned documents are
// processed but never cached (StatusBypass).
func (l *Library) OpenDocument(ctx context.Context, raw []byte) (*Verdict, Status, error) {
	ctx, rec := obs.Attach(ctx, l.rec)
	defer rec.Start(obs.StageLibrary).End()
	if err := ctx.Err(); err != nil {
		return nil, StatusMiss, err
	}
	doc, key, size, err := parseAndKey(rec, bytes.NewReader(raw))
	if err != nil {
		return nil, StatusMiss, fmt.Errorf("%w: %w", ErrBadDocument, err)
	}
	reparse := func() (*xmldom.Document, error) { return reparseBytes(rec, raw) }
	return l.open(ctx, rec, key, doc, reparse, size, nil)
}

// parseAndKey is the single-pass cold front shared by every library
// entry point: one hardened tokenization builds the private DOM while
// the incremental canonicalizer digests the exclusive-C14N cache key,
// collapsing the old parse-then-walk double pass. The key is
// byte-identical to CanonicalKey over the same document.
func parseAndKey(rec *obs.Recorder, r io.Reader) (*xmldom.Document, string, int64, error) {
	sp := rec.Start(obs.StageParse)
	defer sp.End()
	cr := &countReader{r: r}
	b := xmldom.NewStreamBuilder()
	h := sha256.New()
	st, err := c14n.NewStream(h, c14n.Options{Exclusive: true, Recorder: rec})
	if err != nil {
		return nil, "", 0, err
	}
	if err := xmlstream.Parse(cr, xmlstream.Options{}, b, st); err != nil {
		return nil, "", 0, err
	}
	if err := st.Close(); err != nil {
		return nil, "", 0, err
	}
	return b.Document(), hex.EncodeToString(h.Sum(nil)), cr.n, nil
}

// reparseBytes is the fill-retry parse for byte-backed opens.
func reparseBytes(rec *obs.Recorder, raw []byte) (*xmldom.Document, error) {
	sp := rec.Start(obs.StageParse)
	defer sp.End()
	return xmldom.ParseBytes(raw)
}

// countReader counts consumed bytes for verdict size accounting.
type countReader struct {
	r io.Reader
	n int64
}

func (c *countReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

// open serves one keyed request: lookup, then singleflight fill. The
// parsed doc (when non-nil) is consumed by the fill — it must be a
// private parse, since verification mutates it. reparse, when non-nil,
// produces a fresh private parse for fill retries after a trust
// invalidation; a nil reparse (one-shot reader input) makes such races
// fail closed. resolver, when non-nil, dereferences detached URIs (the
// mounted image).
func (l *Library) open(ctx context.Context, rec *obs.Recorder, key string, doc *xmldom.Document, reparse func() (*xmldom.Document, error), size int64, resolver *disc.Image) (*Verdict, Status, error) {
	if v, ok := l.lookup(rec, key); ok {
		rec.Inc("library.hit")
		return v, StatusHit, nil
	}
	var status Status
	v, err, shared := l.flights.do(key, func() (*Verdict, error) {
		// Double-check under flight leadership: a racing fill may have
		// landed between our lookup and taking the flight.
		if v, ok := l.lookup(rec, key); ok {
			status = StatusHit
			rec.Inc("library.hit")
			return v, nil
		}
		status = StatusMiss
		return l.fill(ctx, rec, key, doc, reparse, size, resolver)
	})
	if shared {
		rec.Inc("library.singleflight_wait")
		status = StatusWait
	}
	if err != nil {
		return nil, status, err
	}
	if status == StatusMiss && v.Fingerprint == "" && len(v.Result.Signatures) == 0 {
		status = StatusBypass
	}
	return v, status, nil
}

// lookup returns a valid cached verdict, lazily evicting entries whose
// trust epochs moved. Serving a hit while trust is degraded is allowed
// (the verdict was filled from live trust) but audited.
//
//discvet:hotpath the warm-open path: millions of opens resolve here
func (l *Library) lookup(rec *obs.Recorder, key string) (*Verdict, bool) {
	v, ok, stale := l.cache.Get(key)
	if stale {
		rec.Inc("library.invalidated")
	}
	if !ok {
		return nil, false
	}
	if l.degraded != nil && l.degraded() {
		rec.Inc("library.degraded_serve")
		rec.Audit(obs.AuditDegradedServe, "cached verdict %.12s served under degraded trust (signer %.12s)", key, v.Fingerprint)
	}
	return v, true
}

// entryValid checks a verdict against current trust: no trust change
// naming its signer (or every signer) since its fill, and — for
// verdicts filled during a trust outage — that the outage is still in
// effect (once trust recovers such verdicts must be re-verified
// against live revocation data).
//
//discvet:hotpath runs on every cache hit
func (l *Library) entryValid(v *Verdict) bool {
	if !l.epochs.Valid(v.epoch, v.Fingerprint) {
		return false
	}
	if v.Degraded && (l.degraded == nil || !l.degraded()) {
		return false
	}
	return true
}

// fill runs the real verification and caches the verdict. It captures
// the invalidation generation first and retries (bounded) whenever an
// invalidation landed while verifying, so a revocation can never race a
// fill into caching a stale verdict: the retry re-parses via reparse
// and re-resolves keys, and a now-revoked signer fails verification.
// Without a reparse (one-shot reader input) a raced fill fails closed
// with ErrTrustChanged immediately.
//
//discvet:coldpath a miss runs the full Fig. 9 verification; allocation is inherent
func (l *Library) fill(ctx context.Context, rec *obs.Recorder, key string, doc *xmldom.Document, reparse func() (*xmldom.Document, error), size int64, resolver *disc.Image) (*Verdict, error) {
	release, err := l.fillGate.Acquire(ctx)
	if err != nil {
		rec.Inc("library.fill_rejected")
		return nil, fmt.Errorf("library: fill: %w", err)
	}
	defer release()
	op := l.opener
	if resolver != nil {
		op.Resolver = resolver
	}
	for attempt := 0; attempt < maxFillAttempts; attempt++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		gen := l.epochs.Epoch()

		if doc == nil {
			if reparse == nil {
				// One-shot reader input raced a trust invalidation:
				// the stream cannot be replayed, so fail closed like
				// an exhausted retry. The caller may retry with a
				// fresh reader.
				return nil, ErrTrustChanged
			}
			d, err := reparse()
			if err != nil {
				return nil, fmt.Errorf("library: parse: %w", err)
			}
			doc = d
		}
		res, err := op.OpenDocument(ctx, doc)
		doc = nil // consumed (verification mutates it); retries re-parse
		if err != nil {
			if errors.Is(err, resilience.ErrCircuitOpen) {
				// The trust service's breaker is open: nothing can be
				// verified fresh right now, so the fill fails closed with
				// a typed error instead of letting callers time out.
				rec.Inc("library.fill_failclosed")
				rec.Audit(obs.AuditFailClosed, "cold fill %.12s refused: trust dependency down: %v", key, err)
				return nil, fmt.Errorf("library: verification: %w: %w", ErrDependencyDown, err)
			}
			return nil, fmt.Errorf("library: verification: %w", err)
		}
		l.share(res.Doc)
		cluster, err := decodeCluster(res.Doc)
		if err != nil {
			return nil, fmt.Errorf("library: decode cluster: %w", err)
		}
		// Probe degradation after verification: that is when the trust
		// client knows whether it answered from live service or stale
		// cache. A verdict filled on stale revocation data is tainted
		// until trust recovers (entryValid re-verifies it then).
		degradedFill := l.degraded != nil && l.degraded()

		v := &Verdict{
			Doc:         res.Doc,
			Cluster:     cluster,
			Result:      res,
			Key:         key,
			Fingerprint: primaryFingerprint(res),
			Degraded:    degradedFill,
			epoch:       gen,
		}
		if v.Fingerprint == "" && len(res.Signatures) == 0 {
			// Unsigned: nothing worth sharing; hand back uncached.
			rec.Inc("library.bypass")
			return v, nil
		}

		if !l.indexSigner(res, v.Fingerprint, gen) {
			// Trust moved while we verified: the verdict may predate a
			// revocation. Verify again under the new trust state.
			rec.Inc("library.fill_retry")
			continue
		}
		if evicted := l.cache.Put(key, v, size); evicted > 0 {
			rec.Add("library.evict", int64(evicted))
		}
		rec.Inc("library.miss")
		return v, nil
	}
	return nil, ErrTrustChanged
}

// share points the verified document's names and short attribute
// values at one shared copy each, so resident verdicts do not each hold
// the same vocabulary (element names, namespace and algorithm URIs).
func (l *Library) share(doc *xmldom.Document) {
	l.sharedMu.Lock()
	defer l.sharedMu.Unlock()
	one := func(s string) string {
		if v, ok := l.shared[s]; ok {
			return v
		}
		if len(s) <= 128 && len(l.shared) < maxShared {
			l.shared[s] = s
		}
		return s
	}
	doc.Root().Walk(func(n xmldom.Node) bool {
		if el, ok := n.(*xmldom.Element); ok {
			el.Prefix, el.Local = one(el.Prefix), one(el.Local)
			for i := range el.Attrs {
				a := &el.Attrs[i]
				a.Prefix, a.Local, a.Value = one(a.Prefix), one(a.Local), one(a.Value)
			}
		}
		return true
	})
}

// indexSigner records the binding names seen for a fingerprint, for
// name-keyed revocation, unless the epoch moved off gen (then the fill
// retries). Under InvalidateSignerName's lock, a revocation either
// lands before this check or finds the fingerprint indexed.
func (l *Library) indexSigner(res *core.OpenResult, fp string, gen uint64) bool {
	l.signerMu.Lock()
	defer l.signerMu.Unlock()
	if l.epochs.Epoch() != gen {
		return false
	}
	if fp == "" {
		return true
	}
	for _, rep := range res.Signatures {
		for _, name := range []string{rep.SignerName, rep.SignerCN} {
			if name == "" {
				continue
			}
			set, ok := l.signerIndex[name]
			if !ok {
				set = make(map[string]struct{})
				l.signerIndex[name] = set
			}
			set[fp] = struct{}{}
		}
	}
	return true
}

func primaryFingerprint(res *core.OpenResult) string {
	for _, rep := range res.Signatures {
		if rep.SignerKeyFingerprint != "" {
			return rep.SignerKeyFingerprint
		}
	}
	return ""
}

// decodeCluster strips security markup from a clone and decodes the
// content hierarchy (the same shape player sessions consume).
func decodeCluster(doc *xmldom.Document) (*disc.InteractiveCluster, error) {
	clean := doc.Clone()
	stripSecurityElements(clean)
	return disc.ParseCluster(clean)
}

func stripSecurityElements(doc *xmldom.Document) {
	root := doc.Root()
	if root == nil {
		return
	}
	var remove []*xmldom.Element
	root.Walk(func(n xmldom.Node) bool {
		el, ok := n.(*xmldom.Element)
		if !ok {
			return true
		}
		if el.Local == "Signature" || el.Local == "EncryptedData" {
			remove = append(remove, el)
			return false
		}
		return true
	})
	for _, el := range remove {
		el.Detach()
	}
}

// InvalidateAll bumps the global trust mark: every resident verdict
// becomes unreachable immediately and is evicted lazily on next touch.
func (l *Library) InvalidateAll() {
	l.notify(l.epochs.Bump())
	l.rec.Inc("library.invalidate_all")
}

// GlobalEpoch reports the library's trust epoch, which advances on
// every trust change; a cluster origin stamps its records with it.
func (l *Library) GlobalEpoch() uint64 { return l.epochs.Epoch() }

// AdvanceGlobalEpoch applies a change of every signer at epoch `to`
// and reports whether anything moved: the wire-facing counterpart of
// InvalidateAll. Forward-only, a stale or replayed `to` (at or below
// the global mark) is a no-op and cannot revive a killed verdict.
func (l *Library) AdvanceGlobalEpoch(to uint64) bool {
	prev, moved := l.epochs.Apply(TrustChange{To: to})
	if !moved {
		l.rec.Inc("library.epoch_stale")
		return false
	}
	l.rec.Inc("library.epoch_advance")
	l.notify(TrustChange{From: prev, To: to})
	return true
}

// InvalidateSignerName flushes every verdict whose signature named the
// binding (ds:KeyName or certificate CN); see WatchTrust. A name no
// fill has indexed marks only itself (no fingerprint equals it): the
// epoch moves, so fills in flight retry, but no verdict dies.
func (l *Library) InvalidateSignerName(name string) {
	l.signerMu.Lock()
	fps := make([]string, 0, len(l.signerIndex[name]))
	for fp := range l.signerIndex[name] {
		fps = append(fps, fp)
	}
	if len(fps) == 0 {
		fps = append(fps, name)
	}
	c := l.epochs.Bump(fps...)
	l.signerMu.Unlock()
	l.notify(c)
	l.rec.Inc("library.invalidate_signer")
}

// WatchTrust makes every Revoke or Reissue on svc invalidate the
// signer's verdicts before the call returns (watching svc again adds
// nothing), and moves the epoch up to svc's change count, invalidating
// nothing, so a restarted node never reports an epoch it reported before.
func (l *Library) WatchTrust(svc *keymgmt.Service) {
	if l.watched.Swap(svc) != svc {
		svc.OnRevoke(l.InvalidateSignerName)
	}
	l.epochs.Seed(svc.Epoch())
}

// TrustChanges returns the library's last trust changes (Epochs.Recent).
func (l *Library) TrustChanges() []TrustChange { return l.epochs.Recent() }

// OnTrustChange sets fn (replacing any earlier hook) to run after each
// trust change, synchronously and outside every library lock: a cluster
// origin fans the change out to its edges from here.
func (l *Library) OnTrustChange(fn func(TrustChange)) { l.onChange.Store(&fn) }

func (l *Library) notify(c TrustChange) {
	if fn := l.onChange.Load(); fn != nil {
		(*fn)(c)
	}
}

// Verdicts returns the resident verdicts that are still valid, in no
// particular order (a cluster origin's bootstrap pull).
func (l *Library) Verdicts() []*Verdict {
	return l.cache.Values()
}

// Len reports resident entries (diagnostics and tests).
func (l *Library) Len() int {
	n, _ := l.cache.Stats()
	return n
}

// SizeBytes reports resident verdict bytes (diagnostics and tests).
func (l *Library) SizeBytes() int64 {
	_, b := l.cache.Stats()
	return b
}
