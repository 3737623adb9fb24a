// Package cluster implements the distributed verification tier: one
// origin node performs full cold verification through the shared
// library (parse, canonicalize, signature and chain validation), and a
// fleet of thin edge nodes serves warm opens from replicated verdict
// caches — two map lookups and a streaming digest, no DOM build, no
// crypto.
//
// Replication preserves the library's content-addressed key: every
// wire verdict (Record) carries the exclusive-C14N digest it was
// verified under, the fingerprint of the signing key, and the origin's
// trust epoch at fill time. An edge only ever serves a record whose
// digest it has recomputed from the presented bytes, so a verdict that
// cannot be re-addressed — a wrapped, substituted, or reshuffled
// document — can never ride a replicated cache entry. Edges keep their
// records in the library's byte-budgeted cache and collapse concurrent
// fills with its singleflight, so edge memory is bounded.
//
// The origin and every edge share one trust-epoch model
// (library.Epochs). Every announcement, heartbeat answer and join
// carries the origin's recent trust changes, each naming its signers;
// edges replay them, so revoking signer A kills A's records fleet-wide
// (they fail closed with library.ErrTrustChanged at the next touch) and
// leaves every other signer's warm. A change naming no signer, or a gap
// the log does not cover, applies to every signer; marks only move
// forward, so a delayed or replayed announcement never revives a killed
// verdict. An edge
// partitioned from its origin degrades per the health state machine —
// warm serves continue audited while Degraded, then fail closed
// (ErrPartitioned) once missed heartbeats cross the budget.
package cluster

import (
	"context"
	"errors"
	"fmt"
	"net/http"

	"discsec/internal/library"
	"discsec/internal/resilience"
)

// Node roles, surfaced in /healthz so fleet orchestration can tell the
// tiers apart.
const (
	// RoleOrigin marks the node performing cold verification.
	RoleOrigin = "origin"
	// RoleEdge marks a node serving warm opens from a replicated cache.
	RoleEdge = "edge"
)

// Cluster errors.
var (
	// ErrPartitioned indicates the edge has missed enough origin
	// heartbeats to be considered cut off; it fails both warm serves
	// and cold fills closed rather than serve verdicts it can no
	// longer invalidate.
	ErrPartitioned = errors.New("cluster: edge partitioned from origin; failing closed")
	// ErrKeyMismatch indicates a replicated verdict did not re-address
	// the presented content: its canonical digest differs from the one
	// computed locally. Fail-closed by construction — the record is
	// discarded, never served.
	ErrKeyMismatch = errors.New("cluster: replicated verdict does not re-address the presented content")
)

// Status classifies how an edge open was served (also surfaced in the
// X-Cluster-Status header): StatusHit from the edge's replicated cache
// with no wire, StatusMiss filled from the origin, StatusWait shared
// another in-flight open's fill, or StatusForward.
type Status = library.Status

// Edge open statuses, the library's plus StatusForward.
const (
	StatusHit  = library.StatusHit
	StatusMiss = library.StatusMiss
	StatusWait = library.StatusWait
	// StatusForward: the miss was routed to the ring owner of the key,
	// which filled (or already held) the verdict.
	StatusForward Status = "forward"
)

// Record is one replicated verdict: the full library cache key
// (canonical digest, signer fingerprint, trust epoch) plus the verdict
// summary an edge serves. It deliberately carries no document bytes —
// the content is what the client presents; the record only vouches
// that content with exactly this canonical digest was verified.
type Record struct {
	// Key is the exclusive-C14N digest (hex) the verdict is addressed
	// by.
	Key string `json:"key"`
	// Signer is the fingerprint of the key that validated
	// SignatureValue (empty for unsigned content, which is never
	// replicated).
	Signer string `json:"signer"`
	// Epoch is the origin's trust epoch read before the open began; the
	// record dies once an edge hears of a later trust change naming
	// Signer or every signer.
	Epoch uint64 `json:"epoch"`
	// Degraded marks a verdict filled while the origin's trust service
	// was degraded (revocation data possibly stale).
	Degraded bool `json:"degraded,omitempty"`
	// Signatures is the number of validated signatures.
	Signatures int `json:"signatures"`
}

// maxDocument bounds one document an origin verifies or an edge
// digests.
const maxDocument = 16 << 20

// Member identifies one edge node: its ring name and base URL.
type Member struct {
	Name string `json:"name"`
	URL  string `json:"url"`
}

// writeError maps cluster/library failures onto wire status codes the
// peer's classifier understands: 4xx terminal, 5xx (+Retry-After)
// transient.
func writeError(w http.ResponseWriter, err error) {
	msg := err.Error()
	switch {
	case errors.Is(err, library.ErrBadDocument):
		http.Error(w, msg, http.StatusBadRequest)
	case errors.Is(err, library.ErrTrustChanged),
		errors.Is(err, library.ErrDependencyDown),
		errors.Is(err, resilience.ErrCircuitOpen),
		errors.Is(err, ErrPartitioned),
		errors.Is(err, context.Canceled),
		errors.Is(err, context.DeadlineExceeded):
		w.Header().Set("Retry-After", "1")
		http.Error(w, msg, http.StatusServiceUnavailable)
	case errors.Is(err, resilience.ErrTransient):
		http.Error(w, msg, http.StatusBadGateway)
	default:
		// The content itself was refused (it failed verification): an
		// answer, not a link failure, so no fill breaker counts it.
		http.Error(w, msg, http.StatusUnprocessableEntity)
	}
}

// classifyExchange folds an inter-node HTTP status into the resilience
// taxonomy: 5xx and 429 are transient (the breaker counts them toward
// opening), everything else terminal.
func classifyExchange(url string, resp *http.Response) error {
	if resp.StatusCode >= 500 || resp.StatusCode == http.StatusTooManyRequests {
		return resilience.Transient(fmt.Errorf("cluster: POST %s: %s", url, resp.Status))
	}
	return resilience.Terminal(fmt.Errorf("cluster: POST %s: %s", url, resp.Status))
}
