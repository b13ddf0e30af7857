package serve

import (
	"container/list"
	"hash/fnv"
	"sync"

	"repro/internal/datalog/eval"
	"repro/internal/obs"
)

// shardedCache is the provenance-keyed point-query cache, partitioned
// N ways by canonical-goal hash so concurrent readers contend only on
// their own shard's lock. An entry is keyed on the canonical goal
// (core.CanonicalGoal) and guarded by the goal's provenance subtree;
// invalidation is lock-stepped with the session's base-fact ledger so
// a served answer is always the answer a fresh evaluation would
// produce.
//
// Soundness argument (DESIGN.md §14 carries the full version). Each
// shard independently maintains the PR-8 invariant — the argument is
// per-entry, and every entry lives in exactly one shard, so sharding
// changes where an entry is stored but not when it is evicted:
//
//   - Base INSERT of predicate p: in the goal's positive cone a new
//     fact can create answers that no recorded provenance mentions, so
//     every entry with p in its cone is evicted — support sets cannot
//     help here. In the negation-tainted cone an insert can also
//     destroy answers. Either way: predicate-level eviction, applied
//     to every shard (each shard scans its own entries).
//
//   - Base DELETE of tuple t of predicate p: derivations are monotone
//     in the positive cone, so deleting t can only remove answers, and
//     only answers whose every proof uses t. Each entry records one
//     complete proof per answer (the evaluator's proof tree); if t is
//     in none of them, every recorded proof survives the deletion and
//     the cached answer set is still exact — the entry is kept. If t
//     appears in a recorded proof (or the entry has no support set),
//     the entry is evicted. If p is negation-tainted, a deletion can
//     CREATE answers the cache never saw, so the entry is evicted
//     regardless of support.
//
//   - Replay: rebuilds the set-of-derivations store wholesale; every
//     shard flushes.
//
// Phase discipline (serve.go): get/put run in the session's read
// phase — the deployment is quiescent and the answer being stored was
// computed against the same quiescent snapshot the entry will serve,
// so two concurrent puts for the same goal store equal answer sets.
// baseInserted/baseDeleted/flush run only in the write phase (session
// lock held exclusively), so an invalidation can never interleave
// with a put of a stale answer. The per-shard mutex orders same-shard
// readers; cross-shard operations need no ordering because entries
// never move between shards.
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

// cacheEntry is one cached point-query answer plus its guard sets.
type cacheEntry struct {
	key     string
	answers []eval.Tuple // immutable once stored; callers copy
	// pos/neg are the goal's extensional cone (shared with the
	// session's precomputed cone; read-only).
	pos map[string]bool
	neg map[string]bool
	// support holds the base-fact keys of one recorded proof per
	// answer; nil means predicate-level precision (proof trees
	// unavailable or oversized).
	support map[string]bool
	elem    *list.Element
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

// shard picks the shard owning key (FNV-32a of the canonical goal).
func (c *shardedCache) shard(key string) *cacheShard {
	h := fnv.New32a()
	h.Write([]byte(key))
	return c.shards[h.Sum32()&c.mask]
}

// get returns a live entry for key (and marks it recently used), or
// nil. The returned entry's fields are immutable; callers copy
// answers before handing them out.
func (c *shardedCache) get(key string) *cacheEntry {
	if c == nil {
		return nil
	}
	sh := c.shard(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	e := sh.entries[key]
	if e == nil {
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
	sh := c.shard(e.key)
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

// baseInserted evicts every entry whose cone contains pred, in every
// shard. Write phase only.
func (c *shardedCache) baseInserted(pred string) {
	if c == nil {
		return
	}
	for _, sh := range c.shards {
		sh.mu.Lock()
		for _, e := range sh.entries {
			if e.pos[pred] || e.neg[pred] {
				sh.remove(e, true)
			}
		}
		sh.mu.Unlock()
	}
}

// baseDeleted evicts the entries the deleted tuple can affect: any
// entry with pred in its negation-tainted cone, and positive-cone
// entries whose recorded support contains the tuple (or that track no
// support). Write phase only.
func (c *shardedCache) baseDeleted(pred, tupleKey string) {
	if c == nil {
		return
	}
	for _, sh := range c.shards {
		sh.mu.Lock()
		for _, e := range sh.entries {
			switch {
			case e.neg[pred]:
				sh.remove(e, true)
			case e.pos[pred] && (e.support == nil || e.support[tupleKey]):
				sh.remove(e, true)
			}
		}
		sh.mu.Unlock()
	}
}

// flush drops everything (Replay). Write phase only.
func (c *shardedCache) flush() {
	if c == nil {
		return
	}
	for _, sh := range c.shards {
		sh.mu.Lock()
		for _, e := range sh.entries {
			sh.remove(e, true)
		}
		sh.mu.Unlock()
	}
}

// len reports the live entry count across all shards.
func (c *shardedCache) len() int {
	if c == nil {
		return 0
	}
	n := 0
	for _, sh := range c.shards {
		sh.mu.Lock()
		n += len(sh.entries)
		sh.mu.Unlock()
	}
	return n
}

// remove drops an entry; caller holds the shard lock.
func (sh *cacheShard) remove(e *cacheEntry, count bool) {
	delete(sh.entries, e.key)
	sh.lru.Remove(e.elem)
	if count {
		sh.evictions.Inc()
	}
}
