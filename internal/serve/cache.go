package serve

import (
	"container/list"
	"sync"
)

// Cache is a small LRU over rendered response bodies, keyed by
// (epoch, canonical request URI — see CacheKey). Epoch is part of the key *and* the whole
// cache is purged on commit: the purge bounds memory to live entries, the
// epoch key makes a stale hit impossible even in the window between a swap
// and the purge.
type Cache struct {
	mu    sync.Mutex
	max   int
	order *list.List // front = most recent; values are *cacheEntry
	byKey map[cacheKey]*list.Element

	hits, misses int64
}

type cacheKey struct {
	epoch int64
	uri   string
}

type cacheEntry struct {
	key  cacheKey
	body []byte
}

func NewCache(max int) *Cache {
	if max < 1 {
		max = 1
	}
	return &Cache{max: max, order: list.New(), byKey: map[cacheKey]*list.Element{}}
}

// Get returns the cached body for (epoch, uri), bumping recency.
func (c *Cache) Get(epoch int64, uri string) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.byKey[cacheKey{epoch, uri}]
	if !ok {
		c.misses++
		return nil, false
	}
	c.hits++
	c.order.MoveToFront(el)
	return el.Value.(*cacheEntry).body, true
}

// Put stores a rendered body, evicting the least-recently-used entry past
// capacity.
func (c *Cache) Put(epoch int64, uri string, body []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	key := cacheKey{epoch, uri}
	if el, ok := c.byKey[key]; ok {
		c.order.MoveToFront(el)
		el.Value.(*cacheEntry).body = body
		return
	}
	el := c.order.PushFront(&cacheEntry{key: key, body: body})
	c.byKey[key] = el
	for c.order.Len() > c.max {
		last := c.order.Back()
		c.order.Remove(last)
		delete(c.byKey, last.Value.(*cacheEntry).key)
	}
}

// Purge drops every entry — called on ECO commit, when the previous
// epoch's answers stop being current. Returns the number of entries
// dropped (the commit audit record's cache_purged field).
func (c *Cache) Purge() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := c.order.Len()
	c.order.Init()
	clear(c.byKey)
	return n
}

// Stats reports cumulative hit/miss counts.
func (c *Cache) Stats() (hits, misses int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses
}
