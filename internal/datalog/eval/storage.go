package eval

import (
	"slices"
	"strconv"

	"repro/internal/datalog/ast"
)

// This file implements the centralized evaluator's storage layer and the
// Index it shares with the distributed runtime's window store: both keep
// per-predicate tables in insertion order with lazily built hash indexes
// on argument-position sets. Insertion order is the determinism
// backbone: a probe of an index yields a subsequence of the full
// insertion-order scan, so the indexed join visits candidate tuples in
// exactly the order the naive scan would — results and derivation sets
// are byte-identical either way.

// slot is one stored tuple; dead slots are tombstones awaiting compaction
// so index bucket positions stay valid between rebuilds.
type slot struct {
	t    Tuple
	dead bool
}

// table stores one predicate's tuples in insertion order.
type table struct {
	pos     map[string]int // tuple key -> slot index
	slots   []slot
	dead    int
	indexes []*Index // one per probed position set; a handful at most
}

// Index is the hash index over a set of argument positions that both the
// centralized tables and the window store's replica tables probe. Instead
// of a map of materialized key strings it keeps chained entries: a probe
// hashes the joint length-prefixed key bytes of the bound values
// (AppendBoundCols, ArgKey) and walks the chain of that hash bucket,
// yielding candidate slots in ascending insertion order (entries append
// at the chain tail, so chains stay sorted). A slot is whatever position
// the owning table files the tuple under. The key hash, folded to 32
// bits, is stored per entry: its low bits pick the bucket, and the rest
// filter cross-key collisions within it. Two keys with the same folded
// hash share candidates, so callers re-verify every candidate by term
// matching and a surviving collision costs one extra match attempt, never
// a wrong result. The header holds the column set of an index over up to
// inlineCols positions, so an index is three allocations: the header, the
// bucket array and the 12-byte entries.
type Index struct {
	cols []int
	mask uint32 // bucket count - 1; buckets sized to a power of two
	// ht packs head and tail per hash bucket: ht[2b] is the first entry
	// of bucket b (-1 = empty), ht[2b+1] the last (for O(1) ordered
	// appends).
	ht  []int32
	ent []indexEntry
	// colArr backs cols when the index is over at most inlineCols
	// positions.
	colArr [inlineCols]int
}

// indexEntry is one filed slot: its table slot (ascending within each
// chain), the next entry in the same bucket (-1 ends the chain) and the
// folded hash of its key.
type indexEntry struct {
	slot, next int32
	hash       uint32
}

const inlineCols = 4

// NewIndex returns an empty index over the (ascending) positions cols,
// sized for live entries. cols may alias a caller's scratch buffer; it
// is copied.
func NewIndex(cols []int, live int) *Index {
	n := 16
	for n < live {
		n *= 2
	}
	ix := &Index{
		mask: uint32(n - 1),
		ht:   make([]int32, 2*n),
		ent:  make([]indexEntry, 0, live),
	}
	if len(cols) <= inlineCols {
		ix.cols = ix.colArr[:len(cols)]
	} else {
		ix.cols = make([]int, len(cols))
	}
	copy(ix.cols, cols)
	for i := range ix.ht {
		ix.ht[i] = -1
	}
	return ix
}

// On reports whether the index is over exactly the positions cols.
func (ix *Index) On(cols []int) bool { return slices.Equal(ix.cols, cols) }

// FNV-1a.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// hashKeyBytes is the FNV-1a hash of b folded to 32 bits.
func hashKeyBytes(b []byte) uint32 {
	h := uint64(fnvOffset64)
	for _, c := range b {
		h ^= uint64(c)
		h *= fnvPrime64
	}
	return uint32(h ^ h>>32)
}

// Add files slot (which must exceed every slot already present) under
// the joint key of args at the indexed positions.
func (ix *Index) Add(args []ast.Term, slot int) {
	var karr [64]byte // most keys fit; append spills to the heap if not
	var tarr [48]byte
	k, tmp := karr[:0], tarr[:0]
	for _, c := range ix.cols {
		k, tmp = appendArgKey(k, tmp, args[c])
	}
	h := hashKeyBytes(k)
	e := int32(len(ix.ent))
	ix.ent = append(ix.ent, indexEntry{slot: int32(slot), next: -1, hash: h})
	ix.link(e, h)
	if len(ix.ent) > len(ix.ht) {
		ix.rehash()
	}
}

// link appends entry e to the tail of its hash bucket's chain.
func (ix *Index) link(e int32, h uint32) {
	b := 2 * (h & ix.mask)
	if t := ix.ht[b+1]; t >= 0 {
		ix.ent[t].next = e
	} else {
		ix.ht[b] = e
	}
	ix.ht[b+1] = e
}

// rehash doubles the bucket count, rebuilding chains. Entries are
// re-linked in ascending entry order, which preserves the ascending
// slot order within every chain.
func (ix *Index) rehash() {
	n := len(ix.ht) // bucket count was n/2; double it
	for n < len(ix.ent) {
		n *= 2
	}
	ix.mask = uint32(n - 1)
	ix.ht = make([]int32, 2*n)
	for i := range ix.ht {
		ix.ht[i] = -1
	}
	for e := range ix.ent {
		ix.ent[e].next = -1
		ix.link(int32(e), ix.ent[e].hash)
	}
}

// IndexIter walks the candidate slots of one probe; value type, no
// allocation.
type IndexIter struct {
	ix *Index
	e  int32
	h  uint32
}

// Probe starts a walk over the slots filed under key (the encoding of
// ArgKey and AppendBoundCols), plus those of any other key with the same
// folded hash.
func (ix *Index) Probe(key []byte) IndexIter {
	h := hashKeyBytes(key)
	return IndexIter{ix: ix, e: ix.ht[2*(h&ix.mask)], h: h}
}

// Next returns the next candidate slot in insertion order.
func (it *IndexIter) Next() (int, bool) {
	for it.e >= 0 {
		e := &it.ix.ent[it.e]
		if it.e = e.next; e.hash == it.h {
			return int(e.slot), true
		}
	}
	return 0, false
}

func newTable() *table {
	return &table{pos: make(map[string]int)}
}

func (tab *table) live() int { return len(tab.pos) }

// insert appends t (which must carry its cached key); reports whether it
// was new. Existing indexes are maintained incrementally.
func (tab *table) insert(t Tuple) bool {
	if _, ok := tab.pos[t.Key()]; ok {
		return false
	}
	tab.insertNew(t)
	return true
}

// insertNew is insert for a tuple the caller knows is absent; it skips
// the membership probe (the map assignment re-proves it cheaply enough,
// but the extra hash+probe shows up in the fixpoint loop).
func (tab *table) insertNew(t Tuple) {
	tab.pos[t.Key()] = len(tab.slots)
	tab.slots = append(tab.slots, slot{t: t})
	for _, ix := range tab.indexes {
		ix.Add(t.Args, len(tab.slots)-1)
	}
}

// delete tombstones the slot holding key; reports whether it was present.
// Buckets keep the slot index (skipped via the dead flag) until
// compaction rewrites the table.
func (tab *table) delete(key string) bool {
	i, ok := tab.pos[key]
	if !ok {
		return false
	}
	delete(tab.pos, key)
	tab.slots[i].dead = true
	tab.dead++
	if tab.dead > len(tab.slots)/2 && tab.dead >= 32 {
		tab.compact()
	}
	return true
}

// compact drops dead slots, preserving the relative order of the live
// ones, and discards indexes (they are rebuilt lazily on next probe).
// The vacated tail is cleared, or it would keep the dropped tuples alive.
func (tab *table) compact() {
	live := tab.slots[:0]
	for _, sl := range tab.slots {
		if !sl.dead {
			live = append(live, sl)
		}
	}
	clear(tab.slots[len(live):])
	tab.slots = live
	tab.dead = 0
	for i, sl := range tab.slots {
		tab.pos[sl.t.Key()] = i
	}
	tab.indexes = nil
}

// builtIndex returns the index over cols, or nil if it is not built.
func (tab *table) builtIndex(cols []int) *Index {
	for _, ix := range tab.indexes {
		if ix.On(cols) {
			return ix
		}
	}
	return nil
}

// index returns the (lazily built) index over cols.
func (tab *table) index(cols []int) *Index {
	if ix := tab.builtIndex(cols); ix != nil {
		return ix
	}
	ix := NewIndex(cols, tab.live())
	for i, sl := range tab.slots {
		if !sl.dead {
			ix.Add(sl.t.Args, i)
		}
	}
	tab.indexes = append(tab.indexes, ix)
	return ix
}

// appendArgKey appends one length-prefixed term key to b, using tmp as
// scratch; returns both (grown) buffers.
func appendArgKey(b, tmp []byte, t ast.Term) ([]byte, []byte) {
	tmp = t.AppendKey(tmp[:0])
	b = strconv.AppendInt(b, int64(len(tmp)), 10)
	b = append(b, ':')
	b = append(b, tmp...)
	return b, tmp
}

// ArgKey builds the joint hash key of the argument values at the given
// positions. Each component is length-prefixed so distinct value
// sequences cannot collide regardless of the characters they contain.
func ArgKey(args []ast.Term, cols []int) string {
	var barr [64]byte // most keys fit; append spills to the heap if not
	var tarr [48]byte
	b, tmp := barr[:0], tarr[:0]
	for _, c := range cols {
		b, tmp = appendArgKey(b, tmp, args[c])
	}
	return string(b)
}

// TupleSet is an ordered, deduplicating tuple collection — the semi-naive
// deltas and per-round emission buffers use it so flush order is the
// (deterministic) insertion order rather than Go map order.
type TupleSet struct {
	pos   map[string]int
	items []Tuple
}

// NewTupleSet returns an empty set.
func NewTupleSet() *TupleSet {
	return &TupleSet{pos: make(map[string]int)}
}

// Add inserts t (key cached on the way in); reports whether it was new.
func (s *TupleSet) Add(t Tuple) bool {
	t = t.Keyed()
	if _, ok := s.pos[t.Key()]; ok {
		return false
	}
	s.pos[t.Key()] = len(s.items)
	s.items = append(s.items, t)
	return true
}

// AddUnchecked appends t without the dedup probe, for callers that
// guarantee uniqueness (the per-round delta sets receive only tuples
// that were just proven new to the database). The dedup map is left
// untouched, so Add and AddUnchecked must not be mixed on one set.
func (s *TupleSet) AddUnchecked(t Tuple) {
	s.items = append(s.items, t.Keyed())
}

// Reset empties the set in place, keeping allocated capacity.
func (s *TupleSet) Reset() {
	clear(s.pos)
	s.items = s.items[:0]
}

// Len returns the number of tuples.
func (s *TupleSet) Len() int {
	if s == nil {
		return 0
	}
	return len(s.items)
}

// Items returns the tuples in insertion order (do not mutate).
func (s *TupleSet) Items() []Tuple {
	if s == nil {
		return nil
	}
	return s.items
}
