package service

import (
	"container/list"
	"sync"
)

// resultCache maps canonical job hashes to completed result bytes
// with LRU eviction under a byte budget. Because simulations are
// deterministic and results are canonically serialized, a hit is
// byte-identical to a fresh run — every tenant asking the same
// question gets the same bit-stable answer without a simulation
// running twice.
type resultCache struct {
	mu    sync.Mutex
	max   int // budget in result bytes
	bytes int // result bytes held
	byKey map[string]*list.Element
	order *list.List // front = most recently used
}

type cacheSlot struct {
	key    string
	result []byte
}

// newResultCache returns a cache holding at most max result bytes;
// max <= 0 disables caching entirely (every get misses).
func newResultCache(max int) *resultCache {
	return &resultCache{max: max, byKey: map[string]*list.Element{}, order: list.New()}
}

// get returns the cached result bytes for a hash, refreshing its
// recency. The returned slice is shared and must not be mutated.
func (c *resultCache) get(key string) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.byKey[key]
	if !ok {
		return nil, false
	}
	c.order.MoveToFront(el)
	return el.Value.(*cacheSlot).result, true
}

// put stores a completed result, evicting the least recently used
// entries until the cache is back within its budget. A result larger
// than the whole budget is not stored.
func (c *resultCache) put(key string, result []byte) {
	if c.max <= 0 || len(result) > c.max {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.byKey[key]; ok {
		slot := el.Value.(*cacheSlot)
		c.bytes += len(result) - len(slot.result)
		slot.result = result
		c.order.MoveToFront(el)
	} else {
		c.byKey[key] = c.order.PushFront(&cacheSlot{key: key, result: result})
		c.bytes += len(result)
	}
	for c.bytes > c.max {
		last := c.order.Back()
		c.order.Remove(last)
		slot := last.Value.(*cacheSlot)
		delete(c.byKey, slot.key)
		c.bytes -= len(slot.result)
	}
}

// len reports the number of cached results.
func (c *resultCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}

// size reports the result bytes the cache holds.
func (c *resultCache) size() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.bytes
}
