package library

import (
	"sync"
	"sync/atomic"
)

// Flight is a minimal singleflight over values of type V: concurrent
// calls for the same key share one execution of fn. The library
// collapses concurrent verifications of one canonical digest with it,
// and a cluster edge its concurrent fills. The zero value is ready to
// use.
type Flight[V any] struct {
	mu sync.Mutex
	m  map[string]*flightCall[V]
}

type flightCall[V any] struct {
	wg  sync.WaitGroup
	v   V
	err error
	// waiters counts callers that joined this call (observability and
	// deterministic tests).
	waiters atomic.Int32
}

// Do runs fn once per key among concurrent callers. shared reports
// whether this caller joined an execution another caller led (waiters
// block until the leader finishes; the leader's context governs the
// work).
func (g *Flight[V]) Do(key string, fn func() (V, error)) (v V, err error, shared bool) {
	g.mu.Lock()
	if c, ok := g.m[key]; ok {
		c.waiters.Add(1)
		g.mu.Unlock()
		c.wg.Wait()
		return c.v, c.err, true
	}
	if g.m == nil {
		g.m = make(map[string]*flightCall[V])
	}
	c := &flightCall[V]{}
	c.wg.Add(1)
	g.m[key] = c
	g.mu.Unlock()

	c.v, c.err = fn()

	g.mu.Lock()
	delete(g.m, key)
	g.mu.Unlock()
	c.wg.Done()
	return c.v, c.err, false
}

// flightGroup is the library's verdict singleflight.
type flightGroup struct{ Flight[*Verdict] }

func (g *flightGroup) do(key string, fn func() (*Verdict, error)) (*Verdict, error, bool) {
	return g.Do(key, fn)
}
