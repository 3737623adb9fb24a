package library

import (
	"slices"
	"sync"
	"sync/atomic"
)

// Epochs is the one trust-epoch model, used by the library for its
// verdicts and by every cluster edge for its replicated records.
//
// Every trust change (a revocation, a key rollover, a global flush)
// takes the next value of one sequence, the trust epoch, and marks the
// signers it names with it (none: the global mark). A verdict stamped
// with the epoch read before it was verified stays valid while its
// stamp is at or after both its signer's mark and the global mark.
// Marks are published before the epoch that covers them; past
// maxSignerMarks signers the table collapses into the global mark,
// which over-invalidates and never under-. The zero value is ready to
// use; readers never lock.
type Epochs struct {
	seq    atomic.Uint64
	global atomic.Uint64
	marks  atomic.Pointer[map[string]uint64] // copy-on-write
	mu     sync.Mutex                        // serializes writers
	recent []TrustChange                     // the last maxRecent changes, oldest first
}

// TrustChange is one move of the trust epoch from From to To, naming
// the signer fingerprints it affects (none: every signer). A node that
// has not reached From missed changes, so it applies this one to every
// signer; so does a node behind To given a From == To report.
type TrustChange struct {
	From    uint64   `json:"from"`
	To      uint64   `json:"to"`
	Signers []string `json:"signers,omitempty"`
}

const (
	// maxSignerMarks bounds the per-signer table. Marks arrive over the
	// wire on edges, so the table must not grow with what peers send.
	maxSignerMarks = 4096
	// maxRecent bounds the change log a node hands to peers catching
	// up (Recent); a peer further behind applies the gap globally.
	maxRecent = 16
)

// Epoch reports the trust epoch: it advances on every trust change,
// global or per-signer.
func (e *Epochs) Epoch() uint64 { return e.seq.Load() }

// Valid reports whether a verdict of signer stamped at epoch stamp is
// still trusted.
//
//discvet:hotpath runs on every warm open
func (e *Epochs) Valid(stamp uint64, signer string) bool {
	// The table before the global mark: a collapse raises the global
	// mark before it clears the table.
	if p := e.marks.Load(); p != nil && stamp < (*p)[signer] {
		return false
	}
	return stamp >= e.global.Load()
}

// Bump makes a local trust change naming signers (none: all) at the
// next epoch and returns it.
func (e *Epochs) Bump(signers ...string) TrustChange {
	e.mu.Lock()
	defer e.mu.Unlock()
	c := TrustChange{From: e.seq.Load(), To: e.seq.Load() + 1, Signers: signers}
	e.applyLocked(c)
	return c
}

// Apply merges changes heard from elsewhere, in order, forward-only:
// neither the epoch nor a mark ever falls, so a delayed, duplicated or
// reordered change cannot revive a verdict a newer one killed. It
// returns the epoch before the call and whether anything moved.
func (e *Epochs) Apply(cs ...TrustChange) (prev uint64, moved bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	prev = e.seq.Load()
	for _, c := range cs {
		moved = e.applyLocked(c) || moved
	}
	return prev, moved
}

// Seed moves the epoch up to to without marking anything.
func (e *Epochs) Seed(to uint64) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.seq.Store(max(to, e.seq.Load()))
}

// Recent returns the last changes this node made or applied, oldest
// first: a peer can replay them per signer from its own epoch.
func (e *Epochs) Recent() []TrustChange {
	e.mu.Lock()
	defer e.mu.Unlock()
	return append([]TrustChange(nil), e.recent...)
}

func (e *Epochs) applyLocked(c TrustChange) (moved bool) {
	prev := e.seq.Load()
	switch {
	case prev < c.From:
		c.Signers = nil
		moved = e.markLocked(c.To, nil)
	case c.From < c.To:
		moved = e.markLocked(c.To, c.Signers)
	}
	if c.To > prev {
		e.seq.Store(c.To)
		c.From = prev
		e.recent = append(e.recent[max(0, len(e.recent)+1-maxRecent):], c)
		moved = true
	}
	return moved
}

// markLocked raises the marks of signers (none: the global mark) to
// at and reports whether any moved. Callers hold e.mu.
func (e *Epochs) markLocked(at uint64, signers []string) bool {
	global := e.global.Load()
	var old map[string]uint64
	if p := e.marks.Load(); p != nil {
		old = *p
	}
	raises := func(s string) bool { return at > old[s] }
	if at <= global || (len(signers) > 0 && !slices.ContainsFunc(signers, raises)) {
		return false // a replayed change: nothing to copy
	}
	if len(signers) == 0 {
		global = at
	}
	// Copy the live marks, dropping those the global mark covers.
	next := make(map[string]uint64)
	for s, m := range old {
		if m > global {
			next[s] = m
		}
	}
	for _, s := range signers {
		next[s] = max(next[s], at)
	}
	if len(next) > maxSignerMarks {
		for _, m := range next {
			global = max(global, m)
		}
		next = nil
	}
	e.global.Store(global)
	e.marks.Store(&next)
	return true
}
