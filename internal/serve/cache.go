package serve

import (
	"container/list"
	"sync"

	"repro/internal/datalog/eval"
	"repro/internal/obs"
)

// cache is the point-query result cache: one mutex-guarded LRU of at
// most max entries. An entry is keyed on the canonical goal
// (core.AppendCanonicalGoal) and stamped with the goal predicate's
// publish counter (Session.ver) as read when the answer was probed.
// It is a hit exactly while the counter has not moved: the counter
// moves whenever a publish changes the predicate's tuples, so a hit is
// what a fresh probe of the published view would return, and a write
// that changes only other predicates evicts nothing. A stale entry goes
// (and is counted as an eviction) when a lookup finds it.
//
// get and put run holding the session's mu shared: no publish runs, so
// the counter a reader holds belongs to the answer it stores, and two
// concurrent puts for one goal store equal answers. The mutex orders
// the readers.
//
// The nil cache (caching disabled) is a valid no-op receiver.
type cache struct {
	mu        sync.Mutex
	max       int
	entries   map[string]*cacheEntry
	lru       *list.List // front = most recently used; values are *cacheEntry
	evictions *obs.Counter
}

// cacheEntry is one cached point-query answer.
type cacheEntry struct {
	key     string
	pred    string       // the goal's predicate key: ver is its publish counter
	answers []eval.Tuple // immutable once stored; callers copy
	ver     uint64       // the goal predicate's publish counter at the probe
	elem    *list.Element

	// wire is the answers' wire encoding (appendAnswer, nil for none),
	// rendered once, by the entry's first wire read.
	wire     []byte
	wireOnce sync.Once
}

// encoded returns the answers' wire encoding: after the first call on
// an entry, a hit on the wire renders nothing.
func (e *cacheEntry) encoded() []byte {
	e.wireOnce.Do(func() {
		if len(e.answers) > 0 {
			e.wire = appendAnswer(nil, e.answers)
		}
	})
	return e.wire
}

// newCache builds a cache of at most max entries.
func newCache(max int, evictions *obs.Counter) *cache {
	return &cache{max: max, entries: make(map[string]*cacheEntry), lru: list.New(), evictions: evictions}
}

// get returns the entry for key if its predicate's counter in ver
// still equals the entry's (and marks it recently used), or
// nil; an entry from an earlier counter value is evicted. The returned
// entry's fields are immutable; callers copy answers before handing
// them out. A hit allocates nothing: key is looked up in place.
func (c *cache) get(key []byte, ver map[string]uint64) *cacheEntry {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	e := c.entries[string(key)]
	if e == nil {
		return nil
	}
	if e.ver != ver[e.pred] {
		c.remove(e, true)
		return nil
	}
	c.lru.MoveToFront(e.elem)
	return e
}

// put stores an entry, evicting the least recently used entry past
// capacity.
func (c *cache) put(e *cacheEntry) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if old := c.entries[e.key]; old != nil {
		c.remove(old, false)
	}
	e.elem = c.lru.PushFront(e)
	c.entries[e.key] = e
	for len(c.entries) > c.max {
		c.remove(c.lru.Back().Value.(*cacheEntry), true)
	}
}

// remove drops an entry; caller holds the lock.
func (c *cache) remove(e *cacheEntry, count bool) {
	delete(c.entries, e.key)
	c.lru.Remove(e.elem)
	if count {
		c.evictions.Inc()
	}
}
