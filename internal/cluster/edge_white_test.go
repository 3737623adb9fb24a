package cluster

import (
	"crypto/sha256"
	"fmt"
	"strings"
	"testing"

	"discsec/internal/library"
	"discsec/internal/obs"
)

// TestEdgeCacheStaysWithinBudget pins bounded edge memory: pushing a
// catalog 100 times the record budget never takes the cache past it,
// and the LRU keeps the most recent records.
func TestEdgeCacheStaysWithinBudget(t *testing.T) {
	const budget = 64 << 10
	rec := obs.NewRecorder()
	e := NewEdge("edge-0", "http://self.invalid", "http://origin.invalid", WithEdgeRecorder(rec))
	e.records = library.NewCache(edgeCacheShards, budget, e.recordValid)

	signer := strings.Repeat("f", 64)
	perRecord := int64(64 + len(signer) + recordOverhead)
	catalog := int(100 * budget / perRecord)
	var last string
	for i := 0; i < catalog; i++ {
		last = fmt.Sprintf("%x", sha256.Sum256([]byte(fmt.Sprint(i))))
		if !e.storeRecord(rec, Record{Key: last, Signer: signer, Signatures: 1}) {
			t.Fatalf("record %d refused", i)
		}
		if _, got := e.records.Stats(); got > budget {
			t.Fatalf("after %d records the cache holds %d bytes, over its %d-byte budget", i+1, got, budget)
		}
	}
	if got, most := e.Records(), int(budget/perRecord); got == 0 || got > most {
		t.Errorf("%d records resident, want between 1 and %d", got, most)
	}
	if got := rec.Counter("cluster.evict"); got < int64(catalog-e.Records()) {
		t.Errorf("evict = %d, want at least %d", got, catalog-e.Records())
	}
	if _, ok, err := e.lookup(rec, last); err != nil || !ok {
		t.Errorf("most recent record: ok=%v err=%v, want resident", ok, err)
	}
}
