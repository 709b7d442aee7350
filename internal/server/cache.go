// Package server implements blitzd, the batched, cached sweep-serving
// daemon: an HTTP front end over the unified blitzcoin.Request API with a
// bounded worker pool, request coalescing, a content-addressed result
// cache, and Prometheus-style observability.
package server

import (
	"container/list"
	"log/slog"
	"sync"

	"blitzcoin/internal/store"
)

// cacheEntry is one cached result under the request's canonical hash, in
// the rendered form every hit writes. The bytes are immutable once stored;
// every hit serves the same slice, which is what makes cached responses
// byte-identical to the first computation.
type cacheEntry struct {
	key string
	res rendered
}

// cache is the tiered result cache: an LRU of rendered results, bounded
// both by entry count and by total rendered bytes, over an optional disk
// store of the marshaled ones. mu guards the memory tier only and is never
// held across a store call. All methods are safe for concurrent use.
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

	// disk is the tier beneath memory; nil when blitzd runs without one.
	disk *store.Store
	log  *slog.Logger
}

// newCache builds a cache bounded to maxEntries results and maxBytes total
// rendered bytes in memory, over disk when it is non-nil; either bound
// <= 0 disables that dimension (but not both: zero entries with zero bytes
// means unbounded entries, bounded only by what fits).
func newCache(maxEntries int, maxBytes int64, disk *store.Store, log *slog.Logger) *cache {
	return &cache{
		maxEntries: maxEntries,
		maxBytes:   maxBytes,
		ll:         list.New(),
		items:      make(map[string]*list.Element),
		disk:       disk,
		log:        log,
	}
}

// get returns the result cached under key and the tier that held it,
// "memory" or "disk"; an empty tier is a miss in every tier. A disk hit is
// rendered and promoted into memory, so the next asker skips the read; a
// stored blob that fails to render is an error.
func (c *cache) get(key string) (rendered, string, error) {
	c.mu.Lock()
	if el, ok := c.items[key]; ok {
		c.hits++
		c.ll.MoveToFront(el)
		res := el.Value.(*cacheEntry).res
		c.mu.Unlock()
		return res, "memory", nil
	}
	c.misses++
	c.mu.Unlock()
	if c.disk != nil {
		if b, ok := c.disk.Get(key); ok {
			res, err := c.insert(key, b)
			return res, "disk", err
		}
	}
	return rendered{}, "", nil
}

// peek returns the memory tier's result under key without counting a hit
// or a miss or promoting the entry.
func (c *cache) peek(key string) (rendered, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		return el.Value.(*cacheEntry).res, true
	}
	return rendered{}, false
}

// has reports whether either tier holds key without counting a hit or a
// miss or promoting the entry: a probe, not a read of the result.
func (c *cache) has(key string) bool {
	c.mu.Lock()
	_, ok := c.items[key]
	c.mu.Unlock()
	return ok || (c.disk != nil && c.disk.Has(key))
}

// put renders a computed result into memory and writes it through to disk
// under kind. A payload that fails to render is stored in neither tier; a
// failed disk write is logged, never failing the computation.
func (c *cache) put(key, kind string, marshaled []byte) (rendered, error) {
	res, err := c.insert(key, marshaled)
	if err != nil {
		return rendered{}, err
	}
	if c.disk != nil {
		if err := c.disk.Put(key, kind, marshaled); err != nil {
			c.log.Warn("store put failed", "key", short(key), "error", err)
		}
	}
	return res, nil
}

// insert renders the marshaled result into the memory tier under key and
// evicts from the LRU tail until both bounds hold again. Re-inserting an
// existing key refreshes it.
func (c *cache) insert(key string, marshaled []byte) (rendered, error) {
	res, err := render(marshaled)
	if err != nil {
		return rendered{}, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		e := el.Value.(*cacheEntry)
		c.bytes += int64(len(res.body)) - int64(len(e.res.body))
		e.res = res
		c.ll.MoveToFront(el)
	} else {
		el := c.ll.PushFront(&cacheEntry{key: key, res: res})
		c.items[key] = el
		c.bytes += int64(len(res.body))
	}
	for c.over() {
		tail := c.ll.Back()
		if tail == nil || tail == c.ll.Front() {
			break // never evict the entry just stored
		}
		e := tail.Value.(*cacheEntry)
		c.ll.Remove(tail)
		delete(c.items, e.key)
		c.bytes -= int64(len(e.res.body))
		c.evictions++
	}
	return res, nil
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

// stats returns the memory tier's counters and gauges for /metrics.
func (c *cache) stats() (hits, misses, evictions uint64, entries int, bytes int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses, c.evictions, c.ll.Len(), c.bytes
}

// diskStats returns the disk tier's counters and gauges for /metrics;
// false when there is no disk tier.
func (c *cache) diskStats() (store.Stats, bool) {
	if c.disk == nil {
		return store.Stats{}, false
	}
	return c.disk.Stats(), true
}
