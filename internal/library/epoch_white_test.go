package library

import (
	"fmt"
	"testing"
)

// TestEpochsSignerTableIsBounded: marks arriving from the network
// cannot grow the per-signer table past its cap; past it the table
// collapses into the global mark, which still kills every verdict a
// mark killed.
func TestEpochsSignerTableIsBounded(t *testing.T) {
	var e Epochs
	for i := 0; i <= maxSignerMarks+10; i++ {
		c := TrustChange{From: uint64(i), To: uint64(i + 1), Signers: []string{fmt.Sprintf("signer-%d", i)}}
		if _, moved := e.Apply(c); !moved {
			t.Fatalf("change %d did not move", i)
		}
		if n := len(*e.marks.Load()); n > maxSignerMarks {
			t.Fatalf("after %d changes the table holds %d signers, over the %d cap", i+1, n, maxSignerMarks)
		}
	}
	for i := 0; i <= maxSignerMarks+10; i++ {
		if e.Valid(uint64(i), fmt.Sprintf("signer-%d", i)) {
			t.Fatalf("a verdict of signer-%d stamped before its mark is valid again", i)
		}
	}
	if !e.Valid(e.Epoch(), "signer-0") {
		t.Error("a verdict stamped at the current epoch must be valid")
	}
}
