package serve

import (
	"container/list"
	"sync"

	"repro/internal/datalog/eval"
	"repro/internal/obs"
)

// shardedCache is the point-query result cache, partitioned N ways by
// canonical-goal hash so concurrent readers contend only on their own
// shard's lock. An entry is keyed on the canonical goal
// (core.AppendCanonicalGoal) and stamped with the goal predicate's change
// counter (Engine.DerivedVersion) as read when the answer was probed.
// It is a hit exactly while the counter has not moved: the counter
// moves whenever the predicate's derived set does, so a hit is what a
// fresh probe would return, and a write that changes only other
// predicates evicts nothing. A stale entry goes (and is counted as an
// eviction) when a lookup finds it.
//
// get and put run in the session's read phase: the deployment is
// quiescent, so the counter a reader holds belongs to the answer it
// stores, and two concurrent puts for one goal store equal answers.
// The per-shard mutex orders same-shard readers; entries never move
// between shards.
//
// Capacity is per shard: ceil(total/shards), min 1, evicted LRU
// within the shard. A single-shard cache degenerates to a global LRU.
//
// The nil cache (caching disabled) is a valid no-op receiver.
type shardedCache struct {
	shards []*cacheShard
	mask   uint32
}

// cacheShard is one independently locked slice of the cache.
type cacheShard struct {
	mu        sync.Mutex
	max       int
	entries   map[string]*cacheEntry
	lru       *list.List // front = most recently used; values are *cacheEntry
	evictions *obs.Counter
}

// cacheEntry is one cached point-query answer.
type cacheEntry struct {
	key     string
	pred    string       // the goal's predicate key: ver is its change counter
	answers []eval.Tuple // immutable once stored; callers copy
	ver     uint64       // the goal predicate's change counter at the probe
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

// newShardedCache builds a cache totalling max entries across n shards;
// n must be a power of two (the shard is picked by masking the hash).
func newShardedCache(max, n int, evictions *obs.Counter) *shardedCache {
	perShard := (max + n - 1) / n
	if perShard < 1 {
		perShard = 1
	}
	c := &shardedCache{shards: make([]*cacheShard, n), mask: uint32(n - 1)}
	for i := range c.shards {
		c.shards[i] = &cacheShard{
			max:       perShard,
			entries:   make(map[string]*cacheEntry),
			lru:       list.New(),
			evictions: evictions,
		}
	}
	return c
}

// shard picks the shard owning key: FNV-32a of the canonical goal,
// inline, so a key rendered into a stack buffer hashes in place.
func shard[K string | []byte](c *shardedCache, key K) *cacheShard {
	h := uint32(2166136261)
	for i := 0; i < len(key); i++ {
		h ^= uint32(key[i])
		h *= 16777619
	}
	return c.shards[h&c.mask]
}

// get returns the entry for key if its predicate's counter, as version
// reads it, still equals the entry's (and marks it recently used), or
// nil; an entry from an earlier counter value is evicted. The returned
// entry's fields are immutable; callers copy answers before handing
// them out. A hit allocates nothing: key is looked up in place.
func (c *shardedCache) get(key []byte, version func(pred string) uint64) *cacheEntry {
	if c == nil {
		return nil
	}
	sh := shard(c, key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	e := sh.entries[string(key)]
	if e == nil {
		return nil
	}
	if e.ver != version(e.pred) {
		sh.remove(e, true)
		return nil
	}
	sh.lru.MoveToFront(e.elem)
	return e
}

// put stores an entry in its shard, evicting the shard's least
// recently used entry past capacity.
func (c *shardedCache) put(e *cacheEntry) {
	if c == nil {
		return
	}
	sh := shard(c, e.key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if old := sh.entries[e.key]; old != nil {
		sh.remove(old, false)
	}
	e.elem = sh.lru.PushFront(e)
	sh.entries[e.key] = e
	for len(sh.entries) > sh.max {
		back := sh.lru.Back()
		sh.remove(back.Value.(*cacheEntry), true)
	}
}

// remove drops an entry; caller holds the shard lock.
func (sh *cacheShard) remove(e *cacheEntry, count bool) {
	delete(sh.entries, e.key)
	sh.lru.Remove(e.elem)
	if count {
		sh.evictions.Inc()
	}
}
