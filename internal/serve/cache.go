package serve

import (
	"slices"
	"sync"

	"repro/internal/datalog/eval"
)

// The point-query result cache is Session.cache: answers probed from
// the published view, keyed on the canonical goal
// (core.AppendCanonicalGoal), under Session.mu; the view itself is
// under Session.viewMu. A query looks its goal up holding mu. A miss
// probes the view under viewMu's read side and stores the answer holding
// mu before it lets viewMu go; a publish applies its net transitions
// under viewMu's write side and then, holding mu, drops every entry of
// a predicate they touched (dropCached). So a hit is what a fresh probe of the published view
// would return, and a write that changes only other predicates drops
// nothing. There is no recency order: storing into a full cache
// (Options.CacheSize entries) empties it first. Every dropped entry
// counts in serve.cache.evictions.

// cacheEntry is one point-query answer: the cached one on a hit, a
// miss's fresh one otherwise (stored unless the cache is off).
type cacheEntry struct {
	pred    string       // the goal's predicate key
	answers []eval.Tuple // immutable once probed; callers copy

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

// store caches e under key, emptying the cache first if it is full.
// Caller holds mu.
func (s *Session) store(key string, e *cacheEntry) {
	if len(s.cache) >= s.opts.CacheSize {
		s.evictions.Add(int64(len(s.cache)))
		clear(s.cache)
	}
	s.cache[key] = e
}

// dropCached drops the entries of every predicate in touched: one
// sweep of the cache, allocating nothing. Caller holds mu.
func (s *Session) dropCached(touched []string) {
	dropped := 0
	for k, e := range s.cache {
		if slices.Contains(touched, e.pred) {
			delete(s.cache, k)
			dropped++
		}
	}
	s.evictions.Add(int64(dropped))
}
