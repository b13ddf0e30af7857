// Engine-side support for the simulator's sharded scheduler (see
// internal/nsim/shard.go and DESIGN.md §13). Per-node runtime state is
// already shard-safe — each node lives in exactly one shard and its
// store, window, and derivation maps are only touched by that shard's
// goroutine — but a handful of engine-global structures are not: the
// nearest-node routing cache, the ResultLog, the engine trace, and the
// aggregation results map. This file gives each shard its own routing
// cache, routes engine trace events through the simulator's per-shard
// trace buffers (so radio and engine events fold in one canonical
// (At, shard, generation) order), and buffers ResultLog appends per
// shard, folding everything below the barrier's safety bound at real
// barriers — so sharded runs stay deterministic for a fixed (seed,
// shard count) pair however many windows a coalesced fold spans.
package core

import (
	"sort"

	"repro/internal/nsim"
	"repro/internal/obs"
	"repro/internal/routing"
)

// engineShard is the engine's per-shard state.
type engineShard struct {
	// router is this shard's private nearest-node cache. The cache is a
	// plain map, so shards cannot share one; each shard warms its own
	// from the same immutable geometry.
	router *routing.Engine
	// results buffers ResultLog appends produced inside parallel
	// windows, drained below the safety bound by flushShards. Entries
	// are At-monotone: every append is stamped with the node's shard
	// clock, which never decreases.
	results []ResultEvent
	// scratch is this shard's join working memory (joinScratch).
	scratch joinScratch
}

// attachShards wires the engine to a sharded network: one routing cache
// per shard, every node runtime bound to its shard's state, the
// simulator-side sink for buffered engine trace events, and the barrier
// hook that folds the result buffers. No-op (leaving every rt.es nil,
// which routes appends straight to the engine) when the network is
// single-threaded.
func (e *Engine) attachShards() {
	k := e.nw.ShardCount()
	if k < 2 || len(e.shards) > 0 {
		return
	}
	e.shards = make([]engineShard, k)
	for i := range e.shards {
		e.shards[i].router = routing.NewEngine(e.nw)
		e.shards[i].scratch = newJoinScratch(e.maxVars)
	}
	for _, rt := range e.rts {
		rt.es = &e.shards[rt.node.Shard()]
		rt.js = &rt.es.scratch
	}
	e.nw.SetShardTraceSink(func(ev obs.Event) {
		if e.trace != nil {
			e.trace.Record(ev)
		}
	})
	e.nw.OnBarrier(e.flushShards)
}

// flushShards folds the per-shard result buffers into the engine-global
// ResultLog. It runs at every fold the scheduler performs (forced folds
// mid-run, plus once when Run returns), on the scheduler goroutine with
// no shard in flight.
// Only entries with At < safe drain — no shard can still produce an
// event below the safety bound, so the drained prefix is final — and
// they drain concatenated in shard-ID order, stable-sorted by finalize
// time: the canonical (At, shard, generation) order, independent of
// where the barriers fall, which is what keeps a coalesced run's
// ResultLog byte-identical to a fold-every-window run's. A tuple's
// insert/delete transitions all originate at its home node — one shard
// — so the stable sort never swaps the transitions of one tuple.
func (e *Engine) flushShards(safe nsim.Time) {
	at := len(e.ResultLog)
	for i := range e.shards {
		sh := &e.shards[i]
		if len(sh.results) == 0 {
			continue
		}
		// At-monotone per shard, so the safe prefix is a binary search.
		cut := sort.Search(len(sh.results), func(j int) bool { return sh.results[j].At >= safe })
		if cut == 0 {
			continue
		}
		e.ResultLog = append(e.ResultLog, sh.results[:cut]...)
		rem := copy(sh.results, sh.results[cut:])
		sh.results = sh.results[:rem]
	}
	if batch := e.ResultLog[at:]; len(batch) > 1 {
		sort.SliceStable(batch, func(a, b int) bool { return batch[a].At < batch[b].At })
	}
}

// The walker messages implement nsim.PayloadCloner: their receivers
// mutate them in place (Visited sets, leg indexes, partial/pending
// lists), so the sharded transmit hands every recipient — broadcast
// neighbor or fault duplicate — its own snapshot instead of a shared
// pointer. Clones are shallow except for the receiver-mutated
// parts: the Visited map and the Partials/Pending slice headers.
// Elements stay shared — a partial is immutable once built (extension
// works on the shard's scratch registers and allocates a successor), a
// candidate only reads its partial's registers — and so does candR.Prov, whose
// hop counter is atomic precisely because clones share it.

func cloneVisited(v map[nsim.NodeID]bool) map[nsim.NodeID]bool {
	if v == nil {
		return nil
	}
	nv := make(map[nsim.NodeID]bool, len(v))
	for k, b := range v {
		nv[k] = b
	}
	return nv
}

func (sm *storeMsg) ClonePayload() interface{} {
	c := *sm
	c.Visited = cloneVisited(sm.Visited)
	return &c
}

func (jm *joinMsg) ClonePayload() interface{} {
	c := *jm
	c.Visited = cloneVisited(jm.Visited)
	c.Partials = append([]*partialR(nil), jm.Partials...)
	c.Pending = append([]*candR(nil), jm.Pending...)
	return &c
}

func (rm *resultMsg) ClonePayload() interface{} {
	c := *rm
	c.Visited = cloneVisited(rm.Visited)
	return &c
}

// logResult appends a query-predicate transition: to the node's shard
// buffer under sharding, straight to the ResultLog otherwise.
func (rt *nodeRT) logResult(ev ResultEvent) {
	if rt.es != nil {
		rt.es.results = append(rt.es.results, ev)
		return
	}
	rt.e.ResultLog = append(rt.e.ResultLog, ev)
}

// recordTrace records an engine trace event (no-op without an attached
// trace): through the node's simulator-shard buffer whenever the
// network is sharded — serial phases included, so the fold interleaves
// engine and radio events in one canonical order no matter where the
// folds fall — direct only on unsharded networks.
func (rt *nodeRT) recordTrace(ev obs.Event) {
	if rt.e.trace == nil {
		return
	}
	if rt.es != nil && rt.node.BufferShardTrace(ev) {
		return
	}
	rt.e.trace.Record(ev)
}
