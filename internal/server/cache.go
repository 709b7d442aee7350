// Package server implements blitzd, the batched, cached sweep-serving
// daemon: an HTTP front end over the unified blitzcoin.Request API with a
// bounded worker pool, request coalescing, a content-addressed result
// cache, and Prometheus-style observability.
package server

import (
	"container/list"
	"sync"
)

// cacheEntry is one cached result: the marshaled blitzcoin.Result bytes
// under the request's canonical hash. The bytes are immutable once stored;
// every hit serves the same slice, which is what makes cached responses
// byte-identical to the first computation.
type cacheEntry struct {
	key   string
	kind  string
	bytes []byte
}

// cache is an LRU over canonical request hashes, bounded both by entry
// count and by total result bytes. All methods are safe for concurrent
// use.
type cache struct {
	mu         sync.Mutex
	maxEntries int
	maxBytes   int64

	ll    *list.List // front = most recently used
	items map[string]*list.Element
	bytes int64

	hits      uint64
	misses    uint64
	evictions uint64
}

// newCache builds a cache bounded to maxEntries results and maxBytes total
// result bytes; either bound <= 0 disables that dimension (but not both:
// zero entries with zero bytes means unbounded entries, bounded only by
// what fits).
func newCache(maxEntries int, maxBytes int64) *cache {
	return &cache{
		maxEntries: maxEntries,
		maxBytes:   maxBytes,
		ll:         list.New(),
		items:      make(map[string]*list.Element),
	}
}

// get returns the cached bytes for key, if present, and promotes the entry.
func (c *cache) get(key string) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		c.misses++
		return nil, false
	}
	c.hits++
	c.ll.MoveToFront(el)
	return el.Value.(*cacheEntry).bytes, true
}

// has reports whether key is cached without counting a hit or a miss or
// promoting the entry: a probe, not a read of the result.
func (c *cache) has(key string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, ok := c.items[key]
	return ok
}

// put stores the bytes under key and evicts from the LRU tail until both
// bounds hold again. Re-putting an existing key refreshes it.
func (c *cache) put(key, kind string, b []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		e := el.Value.(*cacheEntry)
		c.bytes += int64(len(b)) - int64(len(e.bytes))
		e.bytes = b
		e.kind = kind
		c.ll.MoveToFront(el)
	} else {
		el := c.ll.PushFront(&cacheEntry{key: key, kind: kind, bytes: b})
		c.items[key] = el
		c.bytes += int64(len(b))
	}
	for c.over() {
		tail := c.ll.Back()
		if tail == nil || tail == c.ll.Front() {
			break // never evict the entry just stored
		}
		e := tail.Value.(*cacheEntry)
		c.ll.Remove(tail)
		delete(c.items, e.key)
		c.bytes -= int64(len(e.bytes))
		c.evictions++
	}
}

// over reports whether either bound is exceeded.
func (c *cache) over() bool {
	if c.maxEntries > 0 && c.ll.Len() > c.maxEntries {
		return true
	}
	if c.maxBytes > 0 && c.bytes > c.maxBytes {
		return true
	}
	return false
}

// stats returns the counters and gauges for /metrics.
func (c *cache) stats() (hits, misses, evictions uint64, entries int, bytes int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses, c.evictions, c.ll.Len(), c.bytes
}
