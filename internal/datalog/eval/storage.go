package eval

import (
	"strconv"

	"repro/internal/datalog/ast"
)

// This file implements the indexed storage layer shared (in structure) by
// the centralized evaluator and the distributed runtime's window store:
// per-predicate tables kept in insertion order with lazily built hash
// indexes on argument-position sets. Insertion order is the determinism
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
	indexes map[string]*argIndex // colSig -> index
	kb, tb  []byte               // scratch for index-key maintenance
	kbArr   [48]byte             // initial backing for kb
	tbArr   [48]byte             // initial backing for tb
}

// argKeyInto builds the bucket key of args at cols in the table's scratch
// buffers and returns it (valid until the next call).
func (tab *table) argKeyInto(args []ast.Term, cols []int) []byte {
	if tab.kb == nil {
		tab.kb = tab.kbArr[:0]
		tab.tb = tab.tbArr[:0]
	}
	b := tab.kb[:0]
	for _, c := range cols {
		b, tab.tb = appendArgKey(b, tab.tb, args[c])
	}
	tab.kb = b
	return b
}

// argIndex is a hash index over a set of argument positions. Instead of
// a map of materialized key strings it keeps chained parallel arrays: a
// probe hashes the joint length-prefixed key bytes of the bound values
// and walks the chain of that hash bucket, yielding candidate slots in
// ascending insertion order (entries append at the chain tail, so chains
// stay sorted). The full 64-bit key hash stored per entry filters
// cross-key collisions; the join re-verifies every candidate by term
// matching anyway, so a surviving collision costs one extra match
// attempt, never a wrong result.
type argIndex struct {
	cols []int
	mask uint32 // bucket count - 1; buckets sized to a power of two
	// ht packs head and tail per hash bucket: ht[2b] is the first entry
	// of bucket b (-1 = empty), ht[2b+1] the last (for O(1) ordered
	// appends).
	ht []int32
	// ent packs the entries: ent[2e] is the table slot (ascending within
	// each chain), ent[2e+1] the next entry in the same bucket (-1 end).
	ent  []int32
	hash []uint64 // entry -> full key hash
}

// FNV-1a.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

func hashKeyBytes(b []byte) uint64 {
	h := uint64(fnvOffset64)
	for _, c := range b {
		h ^= uint64(c)
		h *= fnvPrime64
	}
	return h
}

// add appends table slot si (which must exceed every slot already
// present) under key hash h.
func (ix *argIndex) add(h uint64, si int) {
	e := int32(len(ix.hash))
	ix.ent = append(ix.ent, int32(si), -1)
	ix.hash = append(ix.hash, h)
	ix.link(e, h)
	if len(ix.hash) > len(ix.ht) {
		ix.rehash()
	}
}

// link appends entry e to the tail of its hash bucket's chain.
func (ix *argIndex) link(e int32, h uint64) {
	b := 2 * (uint32(h) & ix.mask)
	if t := ix.ht[b+1]; t >= 0 {
		ix.ent[2*t+1] = e
	} else {
		ix.ht[b] = e
	}
	ix.ht[b+1] = e
}

// rehash doubles the bucket count, rebuilding chains. Entries are
// re-linked in ascending entry order, which preserves the ascending
// slot order within every chain.
func (ix *argIndex) rehash() {
	n := len(ix.ht) // bucket count was n/2; double it
	for n < len(ix.hash) {
		n *= 2
	}
	ix.mask = uint32(n - 1)
	ix.ht = make([]int32, 2*n)
	for i := range ix.ht {
		ix.ht[i] = -1
	}
	for e := range ix.hash {
		ix.ent[2*e+1] = -1
		ix.link(int32(e), ix.hash[e])
	}
}

// ixIter walks the candidate slots of one probe; value type, no
// allocation.
type ixIter struct {
	ix *argIndex
	e  int32
	h  uint64
}

// probe starts a walk over the slots whose indexed values have key k.
func (ix *argIndex) probe(k []byte) ixIter {
	h := hashKeyBytes(k)
	return ixIter{ix: ix, e: ix.ht[2*(uint32(h)&ix.mask)], h: h}
}

// nextSlot returns the next candidate table slot in insertion order.
func (it *ixIter) nextSlot() (int, bool) {
	for it.e >= 0 {
		e := it.e
		it.e = it.ix.ent[2*e+1]
		if it.ix.hash[e] == it.h {
			return int(it.ix.ent[2*e]), true
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
		bk := tab.argKeyInto(t.Args, ix.cols)
		ix.add(hashKeyBytes(bk), len(tab.slots)-1)
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
func (tab *table) compact() {
	live := tab.slots[:0]
	for _, sl := range tab.slots {
		if !sl.dead {
			live = append(live, sl)
		}
	}
	tab.slots = live
	tab.dead = 0
	for i, sl := range tab.slots {
		tab.pos[sl.t.Key()] = i
	}
	tab.indexes = nil
}

// index returns the (lazily built) index over cols.
func (tab *table) index(cols []int) *argIndex {
	sig := colSig(cols)
	ix := tab.indexes[sig]
	if ix == nil {
		live := tab.live()
		n := 16
		for n < 2*live {
			n *= 2
		}
		ix = &argIndex{
			// cols may alias a caller's scratch buffer; copy to retain.
			cols: append([]int(nil), cols...),
			mask: uint32(n - 1),
			ht:   make([]int32, 2*n),
			ent:  make([]int32, 0, 2*live),
			hash: make([]uint64, 0, live),
		}
		for i := range ix.ht {
			ix.ht[i] = -1
		}
		for i, sl := range tab.slots {
			if sl.dead {
				continue
			}
			bk := tab.argKeyInto(sl.t.Args, ix.cols)
			ix.add(hashKeyBytes(bk), i)
		}
		if tab.indexes == nil {
			tab.indexes = make(map[string]*argIndex)
		}
		tab.indexes[sig] = ix
	}
	return ix
}

// smallColSigs interns the signatures of the common single-position
// indexes so a probe does not allocate just to find its index.
var smallColSigs = [...]string{
	"0", "1", "2", "3", "4", "5", "6", "7",
	"8", "9", "10", "11", "12", "13", "14", "15",
}

// ColSig returns the interned index-map signature of a position set; the
// window store uses it so its per-predicate index maps share the eval
// layer's (allocation-free for single-position sets) naming scheme.
func ColSig(cols []int) string { return colSig(cols) }

// colSig is the index-map key for a (sorted) position set.
func colSig(cols []int) string {
	if len(cols) == 1 && cols[0] >= 0 && cols[0] < len(smallColSigs) {
		return smallColSigs[cols[0]]
	}
	b := make([]byte, 0, 4*len(cols))
	for i, c := range cols {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, int64(c), 10)
	}
	return string(b)
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

// ArgKeyVals is ArgKey over an already-projected value slice.
func ArgKeyVals(vals []ast.Term) string {
	var barr [64]byte
	var tarr [48]byte
	b, tmp := barr[:0], tarr[:0]
	for _, v := range vals {
		b, tmp = appendArgKey(b, tmp, v)
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
