package library

import (
	"container/list"
	"sync"
)

// Cache is a sharded, byte-budgeted LRU over values of type V, keyed
// by canonical digest: the library's verdicts and every cluster edge's
// records. Every lookup judges validity by the check the cache was
// built with; a value that fails it is dropped, never served.
type Cache[V any] struct {
	shards []*shard[V]
	valid  func(V) bool
}

// entry is one cached value plus its accounted size. Entries are
// immutable after insertion.
type entry[V any] struct {
	key  string
	val  V
	size int64
}

// shard is one byte-budgeted LRU segment of the cache. Each shard has
// its own mutex so lookups from many engines contend only within a
// digest's shard, never globally.
type shard[V any] struct {
	budget int64

	mu    sync.Mutex
	bytes int64
	items map[string]*list.Element // value is *entry[V]
	lru   *list.List               // front = most recent
}

// NewCache builds a cache of n shards sharing totalBudget bytes evenly;
// valid decides on every lookup whether a resident value may still be
// served.
func NewCache[V any](n int, totalBudget int64, valid func(V) bool) *Cache[V] {
	per := totalBudget / int64(n)
	if per < 1 {
		per = 1
	}
	c := &Cache[V]{shards: make([]*shard[V], n), valid: valid}
	for i := range c.shards {
		c.shards[i] = &shard[V]{
			budget: per,
			items:  make(map[string]*list.Element),
			lru:    list.New(),
		}
	}
	return c
}

//discvet:hotpath shard routing runs on every open
func (c *Cache[V]) shardFor(key string) *shard[V] {
	// Keys are hex digests: fold the first bytes for spread.
	var h uint32
	for i := 0; i < len(key) && i < 8; i++ {
		h = h*31 + uint32(key[i])
	}
	return c.shards[int(h)%len(c.shards)]
}

// Get returns the value under key when it is resident and valid. A
// resident value that fails the validity check is evicted and
// returned with stale set, so the caller can say what it refused.
func (c *Cache[V]) Get(key string) (v V, ok, stale bool) {
	sh := c.shardFor(key)
	e := sh.get(key)
	if e == nil {
		return v, false, false
	}
	if !c.valid(e.val) {
		sh.removeEntry(e)
		return e.val, false, true
	}
	return e.val, true, false
}

// Put stores v under key, accounted at size bytes, and reports how many
// entries the LRU evicted to stay within budget.
func (c *Cache[V]) Put(key string, v V, size int64) (evicted int) {
	return c.shardFor(key).put(&entry[V]{key: key, val: v, size: size})
}

// Values snapshots the resident values that are still valid.
func (c *Cache[V]) Values() []V {
	var all []V
	for _, s := range c.shards {
		s.mu.Lock()
		for el := s.lru.Front(); el != nil; el = el.Next() {
			all = append(all, el.Value.(*entry[V]).val)
		}
		s.mu.Unlock()
	}
	out := all[:0]
	for _, v := range all {
		if c.valid(v) {
			out = append(out, v)
		}
	}
	return out
}

// Stats reports resident entries and their accounted bytes.
func (c *Cache[V]) Stats() (entries int, bytes int64) {
	for _, s := range c.shards {
		s.mu.Lock()
		entries += s.lru.Len()
		bytes += s.bytes
		s.mu.Unlock()
	}
	return entries, bytes
}

// get returns the entry under key (touching it most-recent) or nil.
//
//discvet:hotpath one map probe and an LRU splice per open
func (s *shard[V]) get(key string) *entry[V] {
	s.mu.Lock()
	defer s.mu.Unlock()
	el, ok := s.items[key]
	if !ok {
		return nil
	}
	s.lru.MoveToFront(el)
	return el.Value.(*entry[V])
}

// put inserts (or replaces) an entry and evicts from the LRU tail until
// the shard is back under budget, returning how many entries were
// evicted. A single entry larger than the whole budget is still
// admitted alone — the cache must not refuse the content it exists for.
func (s *shard[V]) put(e *entry[V]) (evicted int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if el, ok := s.items[e.key]; ok {
		s.bytes -= el.Value.(*entry[V]).size
		el.Value = e
		s.lru.MoveToFront(el)
	} else {
		s.items[e.key] = s.lru.PushFront(e)
	}
	s.bytes += e.size
	for s.bytes > s.budget && s.lru.Len() > 1 {
		tail := s.lru.Back()
		victim := tail.Value.(*entry[V])
		s.lru.Remove(tail)
		delete(s.items, victim.key)
		s.bytes -= victim.size
		evicted++
	}
	return evicted
}

// removeEntry drops the entry if it is still the resident one for its
// key (identity-checked so a concurrent refill is never clobbered).
func (s *shard[V]) removeEntry(e *entry[V]) {
	s.mu.Lock()
	defer s.mu.Unlock()
	el, ok := s.items[e.key]
	if !ok || el.Value.(*entry[V]) != e {
		return
	}
	s.lru.Remove(el)
	delete(s.items, e.key)
	s.bytes -= e.size
}
