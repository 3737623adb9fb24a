package library_test

import (
	"context"
	"testing"

	"discsec/internal/library"
	"discsec/internal/obs"
)

// TestAdvanceGlobalEpochMonotonic pins the wire-facing epoch guard:
// announcements arriving from a cluster origin can be delayed,
// duplicated, or reordered, and none of that may roll the trust epoch
// back onto verdicts a newer revocation already killed.
func TestAdvanceGlobalEpochMonotonic(t *testing.T) {
	rec := obs.NewRecorder()
	lib := newLib(rec)
	raw := indexBytes(t, buildImage(t, 60))

	if _, st, err := lib.OpenDocument(context.Background(), raw); err != nil || st != library.StatusMiss {
		t.Fatalf("fill: status=%q err=%v", st, err)
	}

	if !lib.AdvanceGlobalEpoch(5) {
		t.Fatal("AdvanceGlobalEpoch(5) from 0 = false, want an advance")
	}
	if got := lib.GlobalEpoch(); got != 5 {
		t.Fatalf("GlobalEpoch = %d, want 5", got)
	}
	// The advance invalidated the resident verdict.
	if _, st, err := lib.OpenDocument(context.Background(), raw); err != nil || st != library.StatusMiss {
		t.Fatalf("post-advance open: status=%q err=%v, want a fresh miss", st, err)
	}

	// A delayed announcement from before the bump: dropped, counted,
	// and the epoch stands.
	if lib.AdvanceGlobalEpoch(3) {
		t.Fatal("AdvanceGlobalEpoch(3) after 5 = true, want a rejected rollback")
	}
	// A duplicate of the current epoch advances nothing either.
	if lib.AdvanceGlobalEpoch(5) {
		t.Fatal("AdvanceGlobalEpoch(5) at 5 = true, want a rejected duplicate")
	}
	if got := lib.GlobalEpoch(); got != 5 {
		t.Fatalf("GlobalEpoch = %d after stale deliveries, want 5", got)
	}
	// Neither stale delivery invalidated the fresh verdict.
	if _, st, err := lib.OpenDocument(context.Background(), raw); err != nil || st != library.StatusHit {
		t.Fatalf("open after stale deliveries: status=%q err=%v, want hit", st, err)
	}

	if got := rec.Counter("library.epoch_advance"); got != 1 {
		t.Errorf("epoch_advance = %d, want 1", got)
	}
	if got := rec.Counter("library.epoch_stale"); got != 2 {
		t.Errorf("epoch_stale = %d, want 2 (rollback and duplicate)", got)
	}
}

// TestEpochsMarkOnlyNamedSigners pins the epoch model: a change naming
// signer A kills A's verdicts only, a change naming no signer kills
// all, and a change heard by a node that missed the ones before it
// applies to every signer.
func TestEpochsMarkOnlyNamedSigners(t *testing.T) {
	var e library.Epochs
	c := e.Bump("A")
	if c.From != 0 || c.To != 1 || e.Epoch() != 1 {
		t.Fatalf("Bump = %+v at epoch %d, want 0 -> 1", c, e.Epoch())
	}
	if e.Valid(0, "A") || !e.Valid(1, "A") || !e.Valid(0, "B") {
		t.Fatal("a change naming A must kill A's earlier verdicts and no one else's")
	}

	var edge library.Epochs
	if _, moved := edge.Apply(c); !moved || edge.Valid(0, "A") || !edge.Valid(0, "B") {
		t.Fatal("an edge caught up to the change must apply it to A only")
	}
	// A change from epoch 3: the edge (at 1) missed 2 and 3, so it
	// applies this one to every signer.
	if _, moved := edge.Apply(library.TrustChange{From: 3, To: 4, Signers: []string{"C"}}); !moved || edge.Valid(3, "B") {
		t.Fatal("a change after a gap must apply to every signer")
	}
	// A report of the epoch the edge already holds names no change.
	if _, moved := edge.Apply(library.TrustChange{From: 4, To: 4}); moved || !edge.Valid(4, "B") {
		t.Fatal("a report of the current epoch must move nothing")
	}
	// A delayed change below the epoch still marks its signer.
	if _, moved := edge.Apply(library.TrustChange{From: 4, To: 5, Signers: []string{"D"}}); !moved {
		t.Fatal("change 4 -> 5 did not move")
	}
	if _, moved := edge.Apply(library.TrustChange{From: 3, To: 5, Signers: []string{"E"}}); !moved || edge.Valid(4, "E") || !edge.Valid(4, "B") {
		t.Fatal("a reordered change must still mark its own signer, and only it")
	}
	if _, moved := edge.Apply(library.TrustChange{To: 6}); !moved || edge.Valid(5, "B") {
		t.Fatal("a change naming no signer must kill every earlier verdict")
	}
}

// TestEpochsReplayRecentChanges: a node replaying another's recent
// changes, whatever order it heard of them in, marks only the signers
// they name; once the log no longer reaches back to its epoch, it
// applies the gap to every signer.
func TestEpochsReplayRecentChanges(t *testing.T) {
	var origin, edge library.Epochs
	origin.Bump("A")
	origin.Bump("B")
	if _, moved := edge.Apply(origin.Recent()...); !moved || edge.Epoch() != 2 {
		t.Fatalf("replay moved=%v to epoch %d, want 2", moved, edge.Epoch())
	}
	if edge.Valid(0, "A") || !edge.Valid(1, "A") || edge.Valid(1, "B") || !edge.Valid(0, "C") {
		t.Fatal("a replay must mark A and B and leave C alone")
	}
	origin.Seed(100)
	origin.Bump("D")
	edge.Apply(origin.Recent()...)
	if edge.Epoch() != 101 || edge.Valid(100, "C") {
		t.Fatal("a replay across a gap in the log must apply to every signer")
	}
}
