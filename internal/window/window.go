// Package window implements the replica store each node keeps per data
// stream: tuples carry generation timestamps (tuple IDs per Definition 2)
// and deletion timestamps, sliding windows are time-based, and visibility
// follows the simultaneous-update discipline of Theorem 3 — during the
// join-computation of an update with stamp τ, a replica is visible iff
// its generation stamp precedes τ, lies within the window range of τ, and
// it carries no deletion stamp preceding τ.
//
// Storage mirrors the centralized evaluator's indexed layer and shares its
// index (eval.Index): entries are kept per predicate in insertion order
// (deterministic in the simulator) with hash indexes on argument-position
// sets, so rule firing probes the matching chain instead of scanning
// every visible replica. A table builds an index only once its keyed
// scans have paid for it (indexCredit): most replica tables are a grid
// row or a neighbourhood, probed a few times between compactions. A probe
// yields an insertion-order subsequence of the full scan, so a probe and
// a scan see candidates in the same order.
//
// Expiry costs what expires: every entry is also threaded on a list
// ordered by generation time, so reclaiming pops the due entries off the
// old end, and the store keeps the earliest instant at which anything in
// it can be due, so asking a store with nothing due is one comparison.
// Reclaimed slots return to the Arena the store draws from, which may be
// shared with other stores, so results handed out by VisibleMatch are
// valid only until the next mutating call on the same store: only
// that store can free them, and another store reuses only freed slots.
//
// The store is also the node's record of which replica floods it has
// seen. Insert reports whether its stamp is news: true for the first
// insertion of a stamp to arrive, false for every later copy. MarkDeleted
// reports whether its deletion stamp is news to the replica. A deletion
// may arrive before its insertion; it then leaves a payload-less
// tombstone, the insertion that follows reports true once and stores
// nothing, and the deletion still wins. A flooding node forwards a copy
// only when the store called it news.
package window

import (
	"math"
	"strconv"

	"repro/internal/datalog/ast"
	"repro/internal/datalog/eval"
	"repro/internal/obs"
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

// Latest orders after every generation stamp: an entry is visible at
// Latest under no window exactly while it is live, not marked deleted.
var Latest = Stamp{TS: math.MaxInt64, Node: math.MaxInt, Seq: math.MaxInt64}

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

// Entry is one stored replica. It carries the argument values only: the
// table it lives in knows the predicate.
type Entry struct {
	Args []ast.Term
	ID   Stamp
	// Del is the deletion stamp; Deleted reports whether it is set. Per
	// Section IV-B, deletion does not remove the replica — it records the
	// deletion stamp so in-flight joins of earlier updates still see the
	// tuple; the replica is reclaimed by expiry.
	Del Stamp

	// older and newer thread the entry on its table's generation-time
	// list; a reclaimed slot reuses newer as the free-list link.
	older, newer *Entry

	Deleted bool
	gone    bool // expired; awaiting compaction
	// tomb marks a payload-less deletion record (MarkDeleted of an unknown
	// ID). A flag and not Args == nil: a nullary fact has no arguments
	// either, and it must join.
	tomb     bool
	inserted bool // a tombstone whose insertion arrived (news once, stored nothing)
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
// their insertion), which never enter order or any index. Every byID
// entry, tombstones included, is on the oldest..newest list in ID.TS
// order, so the entries past a retention are a prefix of it.
type predTable struct {
	byID  stampTable
	order []*Entry
	gone  int
	// indexes file entries by their position in order, one index per
	// probed position set. Visibility and deletion stamps are re-checked
	// at probe time, so an index never needs updating when an entry is
	// marked deleted or expires; compaction renumbers order and drops them.
	indexes []*eval.Index
	// credit is the entries keyed scans have visited since the last index
	// build or compaction: what the table has paid for want of an index.
	credit int

	oldest, newest *Entry
	// retention is the declared replica lifetime (SetRetention); 0 when
	// undeclared, and then the table is not in Store.windowed.
	retention int64
}

// Arena hands out the Entry slots of every store built from it (the node
// runtime builds every node's store from one). Slots come in
// fixed chunks of arenaChunk and return to one free list when their
// table no longer holds them, so a slot expired at one node is the next
// insert's entry at any node, and a sliding window in steady state
// allocates nothing. An Arena is not safe for concurrent use; neither
// are the stores that share it.
type Arena struct {
	chunk []Entry // the unused tail of the newest chunk
	free  *Entry  // recycled slots, linked through newer

	// The access-path counters of every store built from the arena; nil
	// (no-op) until Observe.
	cBuilds, cIndexed, cScans *obs.Counter
}

const arenaChunk = 1024

// NewArena returns an empty arena; it allocates its first chunk on the
// first insert into one of its stores.
func NewArena() *Arena { return &Arena{} }

// NewStore returns an empty store whose entries come from a.
func (a *Arena) NewStore() *Store {
	return &Store{preds: make([]predSlot, 0, 4), nextDue: math.MaxInt64, arena: a}
}

// Observe counts, in reg, what keyed probes of the arena's stores cost:
// window.index_builds (indexes built), window.indexed_probes (probes
// answered by an index) and window.keyed_scans (keyed probes answered by
// a scan). A nil reg leaves them uncounted.
func (a *Arena) Observe(reg *obs.Registry) {
	a.cBuilds = reg.Counter("window.index_builds")
	a.cIndexed = reg.Counter("window.indexed_probes")
	a.cScans = reg.Counter("window.keyed_scans")
}

// Renew returns an empty arena that counts into a's counters, so a's
// stores and their slots can be dropped together.
func (a *Arena) Renew() *Arena {
	return &Arena{cBuilds: a.cBuilds, cIndexed: a.cIndexed, cScans: a.cScans}
}

func (a *Arena) get() *Entry {
	if e := a.free; e != nil {
		a.free, e.newer = e.newer, nil
		return e
	}
	if len(a.chunk) == 0 {
		a.chunk = make([]Entry, arenaChunk)
	}
	e := &a.chunk[0]
	a.chunk = a.chunk[1:]
	return e
}

// put zeroes the slot (dropping its hold on the argument values) and
// puts it on the free list.
func (a *Arena) put(e *Entry) {
	*e = Entry{newer: a.free}
	a.free = e
}

// stampTable is a table's entries by stamp: an open-addressed hash set
// of entry pointers (the key is the entry's own ID) with linear probing
// over a power-of-two slot array and backward-shift deletion, so no
// deleted marker ever occupies a slot. It doubles past 3/4 full and
// halves below 1/8 full: a Go map never shrinks, and a burst would
// leave every node's map at its peak size for good.
type stampTable struct {
	slots []*Entry
	n     int
}

const minStampSlots = 8

// stampHash mixes all three stamp components; its low bits pick the home
// slot.
func stampHash(s Stamp) uint64 {
	h := uint64(s.TS)*0x9e3779b97f4a7c15 ^ uint64(s.Node)<<32 ^ uint64(s.Seq)
	h *= 0xbf58476d1ce4e5b9
	return h ^ h>>31
}

// get returns the entry stamped id, or nil.
func (t *stampTable) get(id Stamp) *Entry {
	if t.n == 0 {
		return nil
	}
	mask := len(t.slots) - 1
	for i := int(stampHash(id)) & mask; ; i = (i + 1) & mask {
		if e := t.slots[i]; e == nil || e.ID == id {
			return e
		}
	}
}

// put files e, whose stamp must not be present.
func (t *stampTable) put(e *Entry) {
	if 4*(t.n+1) > 3*len(t.slots) {
		t.resize(max(minStampSlots, 2*len(t.slots)))
	}
	t.place(e)
	t.n++
}

func (t *stampTable) place(e *Entry) {
	mask := len(t.slots) - 1
	i := int(stampHash(e.ID)) & mask
	for t.slots[i] != nil {
		i = (i + 1) & mask
	}
	t.slots[i] = e
}

// del removes the entry stamped id, which must be present: each entry
// after the hole in the probe run moves back into it unless the hole
// lies before that entry's home slot.
func (t *stampTable) del(id Stamp) {
	mask := len(t.slots) - 1
	i := int(stampHash(id)) & mask
	for t.slots[i].ID != id {
		i = (i + 1) & mask
	}
	for j := (i + 1) & mask; t.slots[j] != nil; j = (j + 1) & mask {
		if home := int(stampHash(t.slots[j].ID)) & mask; (j-home)&mask >= (j-i)&mask {
			t.slots[i], i = t.slots[j], j
		}
	}
	t.slots[i] = nil
	t.n--
	if 8*t.n < len(t.slots) && len(t.slots) > minStampSlots {
		t.resize(len(t.slots) / 2)
	}
}

func (t *stampTable) resize(n int) {
	old := t.slots
	t.slots = make([]*Entry, n)
	for _, e := range old {
		if e != nil {
			t.place(e)
		}
	}
}

// add files a new entry under its stamp, on the generation-time list,
// and — unless it is a tombstone — in insertion order and every index.
func (tab *predTable) add(e *Entry) {
	tab.byID.put(e)
	// Arrivals are near-sorted (skew is bounded by τc), so walking in
	// from the new end is short.
	at := tab.newest
	for at != nil && at.ID.TS > e.ID.TS {
		at = at.older
	}
	e.older = at
	if at == nil {
		e.newer, tab.oldest = tab.oldest, e
	} else {
		e.newer, at.newer = at.newer, e
	}
	if e.newer == nil {
		tab.newest = e
	} else {
		e.newer.older = e
	}
	if e.tomb {
		return // identity only
	}
	tab.order = append(tab.order, e)
	for _, ix := range tab.indexes {
		ix.Add(e.Args, len(tab.order)-1)
	}
}

// live is the number of unexpired replicas in order.
func (tab *predTable) live() int { return len(tab.order) - tab.gone }

// unearned reports whether the table has not yet paid for a new index: it
// is below indexMinTable, or its keyed scans since the last build or
// compaction have visited fewer than indexCredit × live entries.
func (tab *predTable) unearned() bool {
	live := tab.live()
	return live < indexMinTable || tab.credit < indexCredit*live
}

// index returns the index over cols: the one the table holds, or a new
// one if the table has earned it (which spends the credit), or nil.
func (tab *predTable) index(a *Arena, cols []int) *eval.Index {
	for _, ix := range tab.indexes {
		if ix.On(cols) {
			return ix
		}
	}
	if tab.unearned() {
		return nil
	}
	ix := eval.NewIndex(cols, tab.live())
	for i, e := range tab.order {
		if !e.gone {
			ix.Add(e.Args, i)
		}
	}
	tab.indexes = append(tab.indexes, ix)
	tab.credit = 0
	a.cBuilds.Add(1)
	return ix
}

// scan appends the entries visible at τ under window w, in insertion
// order.
func (tab *predTable) scan(tau Stamp, w int64, out []*Entry) []*Entry {
	for _, e := range tab.order {
		if !e.gone && e.VisibleAt(tau, w) {
			out = append(out, e)
		}
	}
	return out
}

// keyedScan is scan for a keyed probe that no index answers: it charges
// the entries it visits to the table's credit.
func (tab *predTable) keyedScan(a *Arena, tau Stamp, w int64, out []*Entry) []*Entry {
	tab.credit += len(tab.order)
	a.cScans.Add(1)
	return tab.scan(tau, w, out)
}

// expire reclaims the entries with nowLocal - ID.TS > retention: a
// prefix of the generation-time list. Tombstones are recycled at once;
// replicas are flagged gone and wait in order, still numbered by the
// indexes, for the compaction that keeps the dead below the living.
func (tab *predTable) expire(a *Arena, nowLocal, retention int64) int {
	n := 0
	for e := tab.oldest; e != nil && nowLocal-e.ID.TS > retention; e = tab.oldest {
		tab.oldest = e.newer
		if e.newer == nil {
			tab.newest = nil
		} else {
			e.newer.older = nil
		}
		tab.byID.del(e.ID)
		if e.tomb {
			a.put(e)
		} else {
			e.gone = true
			tab.gone++
		}
		n++
	}
	if tab.gone > len(tab.order)/2 {
		tab.compact(a)
	}
	return n
}

// compact drops expired entries from order (preserving relative order)
// and recycles their slots; the indexes number into the old order, so
// they are discarded, and a new one must be earned from scratch. The
// vacated tail of order is cleared: its slots are recycled entries.
func (tab *predTable) compact(a *Arena) {
	live := tab.order[:0]
	for _, e := range tab.order {
		if e.gone {
			a.put(e)
		} else {
			live = append(live, e)
		}
	}
	clear(tab.order[len(live):])
	tab.order = live
	tab.gone = 0
	tab.indexes = nil
	tab.credit = 0
}

// dueAt is the first local time at which e is past the declared
// retention: the smallest now with now - ID.TS > retention.
func (tab *predTable) dueAt(e *Entry) int64 {
	return e.ID.TS + tab.retention + 1
}

// nextDue is the first local time at which anything in the table is
// past the declared retention.
func (tab *predTable) nextDue() int64 {
	if tab.retention == 0 || tab.oldest == nil {
		return math.MaxInt64
	}
	return tab.dueAt(tab.oldest)
}

// Store holds the replicas of many predicates at one node.
type Store struct {
	// preds is the store's tables in creation order, found by scanning
	// names with ==. A node stores a handful of predicates with short
	// names, so a few compares (each ending at once on equal pointers or
	// unequal lengths) cost less than hashing the name for a map probe
	// two or three times per message.
	preds []predSlot
	// windowed lists the tables with a declared retention, and nextDue is
	// the earliest local time at which one of their entries is past it:
	// lowered by every insert and tombstone, recomputed after a due pass.
	// A node's state is cache-cold when its event fires, so the common
	// "nothing to reclaim" answer must not touch a map, table or entry.
	windowed []*predTable
	nextDue  int64
	arena    *Arena
}

// NewStore returns an empty store with an arena of its own.
func NewStore() *Store { return NewArena().NewStore() }

// predSlot is one predicate's table in a Store.
type predSlot struct {
	name string
	tab  *predTable
}

// lookup returns predKey's table, or nil if the store has none.
func (s *Store) lookup(predKey string) *predTable {
	for i := range s.preds {
		if s.preds[i].name == predKey {
			return s.preds[i].tab
		}
	}
	return nil
}

// table returns predKey's table, creating it if the store has none.
func (s *Store) table(predKey string) *predTable {
	tab := s.lookup(predKey)
	if tab == nil {
		tab = &predTable{}
		s.preds = append(s.preds, predSlot{predKey, tab})
	}
	return tab
}

// add files e in its table and lowers nextDue to cover it (from e
// itself: the table's oldest entry is cold, e is not).
func (s *Store) add(tab *predTable, e *Entry) {
	tab.add(e)
	if tab.retention > 0 {
		s.nextDue = min(s.nextDue, tab.dueAt(e))
	}
}

// SetRetention declares predKey's replica lifetime for ExpireDue. Only a
// positive retention declares anything: undeclared replicas are never
// due.
func (s *Store) SetRetention(predKey string, retention int64) {
	if retention <= 0 {
		return
	}
	tab := s.table(predKey)
	if tab.retention == 0 {
		s.windowed = append(s.windowed, tab)
	}
	tab.retention = retention
	s.nextDue = min(s.nextDue, tab.nextDue())
}

// Insert stores a replica; duplicates (same stamp) are idempotent.
// Reports whether this is the first insertion of the stamp to arrive.
// Over a tombstone the first insertion reports true and stores nothing,
// so the deletion that arrived first still wins.
func (s *Store) Insert(t eval.Tuple, id Stamp) bool {
	tab := s.table(t.Pred)
	if e := tab.byID.get(id); e != nil {
		if !e.tomb || e.inserted {
			return false
		}
		e.inserted = true
		return true
	}
	e := s.arena.get()
	e.Args, e.ID = t.Args, id
	s.add(tab, e)
	return true
}

// MarkDeleted records a deletion stamp on the replica with the given ID
// and reports whether the stamp was news to it: the replica carried no
// deletion stamp, or a later one. Unknown IDs are remembered as
// tombstones so a deletion arriving before its insertion (message
// reordering) still wins.
func (s *Store) MarkDeleted(predKey string, id Stamp, del Stamp) bool {
	tab := s.table(predKey)
	e := tab.byID.get(id)
	if e == nil {
		e = s.arena.get()
		e.ID, e.tomb = id, true
		s.add(tab, e)
	}
	if e.Deleted && !del.Less(e.Del) {
		return false
	}
	e.Deleted, e.Del = true, del
	return true
}

// Replicas calls f with every unexpired replica, tombstones skipped: the
// tables in creation order, each in insertion order. f must not mutate s.
func (s *Store) Replicas(f func(predKey string, e *Entry)) {
	for _, p := range s.preds {
		for _, e := range p.tab.order {
			if !e.gone {
				f(p.name, e)
			}
		}
	}
}

// Visible returns the entries of predKey visible at τ under window w, in
// deterministic (insertion) order. Tombstone-only entries never match.
func (s *Store) Visible(predKey string, tau Stamp, w int64) []*Entry {
	return s.VisibleMatch(predKey, tau, w, nil, nil, nil)
}

// VisibleMatch appends to out the visible entries of predKey whose
// argument values at positions cols have joint key key (per eval.ArgKey,
// passed as raw bytes: the probe hashes them and materializes nothing).
// It probes the table's index over cols unless no positions are bound or
// the table holds no such index and has not earned one (indexCredit);
// the result is always an insertion-order subsequence of Visible, so
// callers behave identically either way. A probe compares 32-bit key
// hashes, not keys, so on a hash collision the result is a superset of
// the matching entries (and a scan returns every visible entry): callers
// re-match each entry against their literal. out is caller-owned scratch
// — reusing it across probes is what keeps the per-expansion lookup
// allocation-free. The entries are valid until the next mutating call on
// s (Insert, MarkDeleted, ExpirePred, ExpireDue): expired slots are
// recycled.
func (s *Store) VisibleMatch(predKey string, tau Stamp, w int64, cols []int, key []byte, out []*Entry) []*Entry {
	tab := s.lookup(predKey)
	if tab == nil {
		return out
	}
	if len(cols) == 0 {
		return tab.scan(tau, w, out)
	}
	ix := tab.index(s.arena, cols)
	if ix == nil {
		return tab.keyedScan(s.arena, tau, w, out)
	}
	s.arena.cIndexed.Add(1)
	it := ix.Probe(key)
	for i, ok := it.Next(); ok; i, ok = it.Next() {
		if e := tab.order[i]; !e.gone && e.VisibleAt(tau, w) {
			out = append(out, e)
		}
	}
	return out
}

// indexMinTable is the live-entry count below which a table builds no
// index: sensor-node replica tables are often a handful of entries, and
// there a linear scan beats the build cost of an index that may be
// discarded on the next compaction. Scanning and probing yield the same
// insertion-order candidates (callers re-match every entry), so the
// cutover is invisible to results.
const indexMinTable = 16

// indexCredit is k in the build rule: a table builds the index for a
// probed position set only once its keyed scans, since its last build or
// compaction, have visited indexCredit × live entries. k is the ratio of
// what building an index costs per entry it files to what a scan costs
// per entry it visits, measured by BenchmarkIndexBuild and
// BenchmarkKeyedScan: ≈ 9 at 20 and at 64 entries (EXPERIMENTS.md,
// "Replica indexes that pay for themselves"). So the scans a table makes
// while it earns an index cost about what building it would, and a table
// probed only a few times between compactions never builds one.
const indexCredit = 9

// KeyedScan answers a keyed probe of predKey by scanning when the probe
// would scan whatever its positions: the table is absent, or holds no
// index and has not earned one. It then appends the visible entries to
// out, charges the scan to the table's credit, and reports true, so the
// caller need not compute the bound-position key of a probe that would
// not read it. Otherwise it returns out unchanged and false, and the
// caller probes with VisibleMatch.
func (s *Store) KeyedScan(predKey string, tau Stamp, w int64, out []*Entry) ([]*Entry, bool) {
	tab := s.lookup(predKey)
	if tab == nil {
		return out, true
	}
	if len(tab.indexes) > 0 || !tab.unearned() {
		return out, false
	}
	return tab.keyedScan(s.arena, tau, w, out), true
}

// ExpirePred removes the entries of one predicate whose retention ended:
// generation stamp older than nowLocal - retention, tombstones included.
// A deletion stamp does not extend a replica's life: by Section IV-B
// every update that can still see a replica generated at ID.TS under
// window w has τ.TS < ID.TS + w, and the retention (τs+τc)+τj+(τw+τc)
// covers the last of those joins whether or not the replica has been
// marked deleted in the meantime. retention <= 0 disables expiry.
// Returns entries removed.
func (s *Store) ExpirePred(predKey string, nowLocal int64, retention int64) int {
	if retention <= 0 {
		return 0
	}
	tab := s.lookup(predKey)
	if tab == nil {
		return 0
	}
	return tab.expire(s.arena, nowLocal, retention)
}

// ExpireDue removes, from every predicate with a declared retention
// (SetRetention), what ExpirePred would remove at nowLocal under that
// retention, and returns the count. When nothing is due — the common
// case — it reads one field of the store and nothing else.
func (s *Store) ExpireDue(nowLocal int64) int {
	if nowLocal < s.nextDue {
		return 0
	}
	return s.expireDue(nowLocal)
}

// expireDue is the pass itself, split off so that the check above
// inlines into the node runtime's handlers.
func (s *Store) expireDue(nowLocal int64) int {
	n := 0
	s.nextDue = math.MaxInt64
	for _, tab := range s.windowed {
		n += tab.expire(s.arena, nowLocal, tab.retention)
		s.nextDue = min(s.nextDue, tab.nextDue())
	}
	return n
}

// Count returns the number of stored entries for predKey (including
// deletion-marked replicas awaiting expiry).
func (s *Store) Count(predKey string) int {
	tab := s.lookup(predKey)
	if tab == nil {
		return 0
	}
	return tab.byID.n
}

// TotalCount returns all stored entries — the per-node memory metric of
// experiment E9.
func (s *Store) TotalCount() int {
	n := 0
	for _, p := range s.preds {
		n += p.tab.byID.n
	}
	return n
}
