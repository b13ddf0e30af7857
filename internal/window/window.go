// Package window implements the replica store each node keeps per data
// stream: tuples carry generation timestamps (tuple IDs per Definition 2)
// and deletion timestamps, sliding windows are time-based, and visibility
// follows the simultaneous-update discipline of Theorem 3 — during the
// join-computation of an update with stamp τ, a replica is visible iff
// its generation stamp precedes τ, lies within the window range of τ, and
// it carries no deletion stamp preceding τ.
//
// Storage mirrors the centralized evaluator's indexed layer: entries are
// kept per predicate in insertion order (deterministic in the simulator)
// with lazily built hash indexes on argument-position sets, so rule
// firing probes the matching bucket instead of scanning every visible
// replica. An index bucket is an insertion-order subsequence of the full
// scan, so a probe and a scan see candidates in the same order.
package window

import (
	"strconv"

	"repro/internal/datalog/eval"
)

// Stamp totally orders updates across the network: local timestamp first,
// then source node, then a per-node sequence number. The paper assumes
// timestamps suffice; the node/seq components break exact ties so that
// "process updates in timestamp order" is well defined.
type Stamp struct {
	TS   int64 // local clock at the source when generated
	Node int   // source node ID
	Seq  int64 // per-node sequence number
}

// Less is the total order on stamps.
func (s Stamp) Less(o Stamp) bool {
	if s.TS != o.TS {
		return s.TS < o.TS
	}
	if s.Node != o.Node {
		return s.Node < o.Node
	}
	return s.Seq < o.Seq
}

// Key renders the stamp as a compact unique string (the tuple ID of
// Definition 2).
func (s Stamp) Key() string {
	var arr [32]byte
	return string(s.AppendKey(arr[:0]))
}

// AppendKey appends the stamp's Key rendering to b, for callers that
// compose stamp keys into larger identifiers without intermediate
// strings.
func (s Stamp) AppendKey(b []byte) []byte {
	b = strconv.AppendInt(b, int64(s.Node), 10)
	b = append(b, '.')
	b = strconv.AppendInt(b, s.TS, 10)
	b = append(b, '.')
	b = strconv.AppendInt(b, s.Seq, 10)
	return b
}

// Entry is one stored replica.
type Entry struct {
	Tuple eval.Tuple
	ID    Stamp
	// Del is the deletion stamp; Deleted reports whether it is set. Per
	// Section IV-B, deletion does not remove the replica — it records the
	// deletion stamp so in-flight joins of earlier updates still see the
	// tuple; the replica is reclaimed by expiry.
	Del     Stamp
	Deleted bool

	gone bool // expired; awaiting compaction
}

// VisibleAt reports whether the entry participates in the join
// computation of an update with stamp τ under window range w (w == 0
// means unbounded).
func (e *Entry) VisibleAt(tau Stamp, w int64) bool {
	if !e.ID.Less(tau) {
		return false
	}
	if w > 0 && tau.TS-e.ID.TS >= w {
		return false
	}
	if e.Deleted && e.Del.Less(tau) {
		return false
	}
	return true
}

// predTable stores one predicate's replicas in insertion order. byID
// also holds payload-less tombstones (deletions that arrived before
// their insertion), which never enter order or any index.
type predTable struct {
	byID    map[Stamp]*Entry // Stamp is comparable, so no key string is built
	order   []*Entry
	gone    int
	indexes map[string]*storeIndex
	// slab backs new entries in chunks so a table of k replicas costs
	// O(log k) allocations instead of k. Chunks grow geometrically from
	// small, since sensor-node tables often hold only a few replicas. A
	// chunk is retained while any of its entries is referenced, which is
	// bounded by the expiry horizon that already bounds the table itself.
	slab      []Entry
	slabChunk int
}

const maxSlabChunk = 64

func (tab *predTable) newEntry() *Entry {
	if len(tab.slab) == 0 {
		if tab.slabChunk == 0 {
			tab.slabChunk = 4
		} else if tab.slabChunk < maxSlabChunk {
			tab.slabChunk *= 2
		}
		tab.slab = make([]Entry, tab.slabChunk)
	}
	e := &tab.slab[0]
	tab.slab = tab.slab[1:]
	return e
}

// storeIndex hashes entries by the joint key of a set of argument
// positions; buckets preserve insertion order. Visibility and deletion
// stamps are re-checked at probe time, so buckets never need updating
// when an entry is marked deleted.
type storeIndex struct {
	cols    []int
	buckets map[string][]*Entry
}

func (tab *predTable) add(e *Entry) {
	tab.byID[e.ID] = e
	if e.Tuple.Args == nil {
		return // tombstone: identity only
	}
	tab.order = append(tab.order, e)
	for _, ix := range tab.indexes {
		bk := eval.ArgKey(e.Tuple.Args, ix.cols)
		ix.buckets[bk] = append(ix.buckets[bk], e)
	}
}

func (tab *predTable) index(cols []int) *storeIndex {
	sig := eval.ColSig(cols)
	ix := tab.indexes[sig]
	if ix == nil {
		ix = &storeIndex{cols: append([]int(nil), cols...), buckets: make(map[string][]*Entry)}
		for _, e := range tab.order {
			if e.gone {
				continue
			}
			bk := eval.ArgKey(e.Tuple.Args, ix.cols)
			ix.buckets[bk] = append(ix.buckets[bk], e)
		}
		if tab.indexes == nil {
			tab.indexes = make(map[string]*storeIndex)
		}
		tab.indexes[sig] = ix
	}
	return ix
}

// compact drops expired entries from order (preserving relative order)
// and discards indexes for lazy rebuild.
func (tab *predTable) compact() {
	if tab.gone <= len(tab.order)/2 || tab.gone < 32 {
		return
	}
	live := tab.order[:0]
	for _, e := range tab.order {
		if !e.gone {
			live = append(live, e)
		}
	}
	tab.order = live
	tab.gone = 0
	tab.indexes = nil
}

// Store holds the replicas of many predicates at one node.
type Store struct {
	preds map[string]*predTable
}

// NewStore returns an empty store.
func NewStore() *Store {
	return &Store{preds: make(map[string]*predTable)}
}

func (s *Store) table(predKey string) *predTable {
	tab := s.preds[predKey]
	if tab == nil {
		tab = &predTable{byID: make(map[Stamp]*Entry)}
		s.preds[predKey] = tab
	}
	return tab
}

// Insert stores a replica; duplicates (same stamp) are idempotent.
// Reports whether the entry was new.
func (s *Store) Insert(t eval.Tuple, id Stamp) bool {
	tab := s.table(t.Pred)
	if _, ok := tab.byID[id]; ok {
		return false
	}
	e := tab.newEntry()
	e.Tuple, e.ID = t.Keyed(), id
	tab.add(e)
	return true
}

// MarkDeleted records a deletion stamp on the replica with the given ID.
// Unknown IDs are remembered as tombstones so a deletion arriving before
// its insertion (message reordering) still wins.
func (s *Store) MarkDeleted(predKey string, id Stamp, del Stamp) {
	tab := s.table(predKey)
	e, ok := tab.byID[id]
	if !ok {
		e = tab.newEntry()
		e.ID, e.Tuple = id, eval.Tuple{Pred: predKey}
		tab.add(e)
	}
	if !e.Deleted || del.Less(e.Del) {
		e.Deleted = true
		e.Del = del
	}
}

// Visible returns the entries of predKey visible at τ under window w, in
// deterministic (insertion) order. Tombstone-only entries never match.
func (s *Store) Visible(predKey string, tau Stamp, w int64) []*Entry {
	return s.VisibleMatch(predKey, tau, w, nil, nil, nil)
}

// VisibleMatch appends to out the visible entries of predKey whose
// argument values at positions cols have joint key key (per eval.ArgKey,
// passed as raw bytes so the bucket probe does not materialize a
// string). It probes the (lazily built) position index unless no
// positions are bound or the table is below indexMinTable; the result is
// always an insertion-order subsequence of Visible, so callers behave
// identically either way. out is caller-owned scratch — reusing it
// across probes is what keeps the per-expansion lookup allocation-free.
func (s *Store) VisibleMatch(predKey string, tau Stamp, w int64, cols []int, key []byte, out []*Entry) []*Entry {
	tab := s.preds[predKey]
	if tab == nil {
		return out
	}
	if len(cols) == 0 || len(tab.order)-tab.gone < indexMinTable {
		for _, e := range tab.order {
			if !e.gone && e.VisibleAt(tau, w) {
				out = append(out, e)
			}
		}
		return out
	}
	for _, e := range tab.index(cols).buckets[string(key)] {
		if !e.gone && e.VisibleAt(tau, w) {
			out = append(out, e)
		}
	}
	return out
}

// indexMinTable is the live-entry count below which VisibleMatch scans
// instead of building an index: sensor-node replica tables are often a
// handful of entries, and there a linear scan beats the build cost of an
// index that may be discarded on the next compaction. Scanning and
// probing yield the same insertion-order candidates (callers re-match
// every entry), so the cutover is invisible to results.
const indexMinTable = 16

// SmallTable reports whether predKey's table is below the index
// threshold, so callers can skip computing the bound-position key for a
// probe that would scan anyway.
func (s *Store) SmallTable(predKey string) bool {
	tab := s.preds[predKey]
	return tab == nil || len(tab.order)-tab.gone < indexMinTable
}

// All returns every live (non-deleted, non-tombstone) entry of predKey
// in insertion order.
func (s *Store) All(predKey string) []*Entry {
	tab := s.preds[predKey]
	if tab == nil {
		return nil
	}
	var out []*Entry
	for _, e := range tab.order {
		if e.gone || e.Deleted {
			continue
		}
		out = append(out, e)
	}
	return out
}

// Expire removes entries whose retention ended: generation stamp older
// than nowLocal - retention, and for deleted entries, deletion stamp also
// past retention. retention == 0 disables expiry. Returns entries removed.
func (s *Store) Expire(nowLocal int64, retention int64) int {
	if retention <= 0 {
		return 0
	}
	n := 0
	for predKey := range s.preds {
		n += s.ExpirePred(predKey, nowLocal, retention)
	}
	return n
}

// ExpirePred removes entries of one predicate past their retention.
func (s *Store) ExpirePred(predKey string, nowLocal int64, retention int64) int {
	if retention <= 0 {
		return 0
	}
	tab := s.preds[predKey]
	if tab == nil {
		return 0
	}
	n := 0
	for k, e := range tab.byID {
		if nowLocal-e.ID.TS > retention {
			delete(tab.byID, k)
			if !e.gone && e.Tuple.Args != nil {
				e.gone = true
				tab.gone++
			}
			n++
		}
	}
	tab.compact()
	return n
}

// Count returns the number of stored entries for predKey (including
// deletion-marked replicas awaiting expiry).
func (s *Store) Count(predKey string) int {
	tab := s.preds[predKey]
	if tab == nil {
		return 0
	}
	return len(tab.byID)
}

// TotalCount returns all stored entries — the per-node memory metric of
// experiment E9.
func (s *Store) TotalCount() int {
	n := 0
	for _, tab := range s.preds {
		n += len(tab.byID)
	}
	return n
}
