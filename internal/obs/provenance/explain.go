package provenance

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// Tree is one node of a derivation DAG rendered as a tree: a tuple key
// plus every live derivation supporting it, each expanding into the
// trees of its body tuples. Exactly one of Base/Cycle/Missing is set
// on a leaf; an interior node has Derivs.
type Tree struct {
	Key     string // tuple key ("pred/arity|args")
	Base    bool   // base (EDB) fact — expansion stops here
	Cycle   bool   // key already on the path above — recursion cut off
	Missing bool   // no live derivation (never derived, or deleted)
	Derivs  []*TreeDeriv
}

// TreeDeriv is one rule instantiation inside a Tree: the captured
// transport facts plus the subtrees of its body tuples, in the deriv
// key's stamp order.
type TreeDeriv struct {
	Rule      int32
	Producer  int32
	Settler   int32
	Hops      int32
	SentAt    int64
	SettledAt int64
	Body      []*Tree
}

// Explain expands key's live derivations, as src reports them, down to
// base facts. isBase classifies a tuple key as EDB (expansion stops
// with a Base leaf); recursive programs are handled by cutting any key
// already on the current path with a Cycle leaf, so the result is
// finite even when the derivation graph is cyclic. A derived key with
// no live derivation yields a Missing leaf.
func Explain(key string, src Source, isBase func(string) bool) *Tree {
	return explain(key, src, isBase, make(map[string]bool))
}

func explain(key string, src Source, isBase func(string) bool, path map[string]bool) *Tree {
	if isBase != nil && isBase(key) {
		return &Tree{Key: key, Base: true}
	}
	if path[key] {
		return &Tree{Key: key, Cycle: true}
	}
	ds := src(key)
	if len(ds) == 0 {
		return &Tree{Key: key, Missing: true}
	}
	path[key] = true
	t := &Tree{Key: key, Derivs: make([]*TreeDeriv, 0, len(ds))}
	for _, d := range ds {
		td := &TreeDeriv{
			Rule: d.Rule, Producer: d.Producer, Settler: d.Settler,
			Hops: d.Hops, SentAt: d.SentAt, SettledAt: d.SettledAt,
		}
		for _, bk := range d.Body {
			td.Body = append(td.Body, explain(bk, src, isBase, path))
		}
		t.Derivs = append(t.Derivs, td)
	}
	delete(path, key)
	return t
}

// String renders the tree in the indented form used by snbench
// -explain and the differential harness dumps.
func (t *Tree) String() string {
	var b strings.Builder
	t.render(&b, "")
	return b.String()
}

func (t *Tree) render(b *strings.Builder, indent string) {
	if t == nil {
		return
	}
	b.WriteString(indent)
	b.WriteString(t.Key)
	switch {
	case t.Base:
		b.WriteString("  [base]")
	case t.Cycle:
		b.WriteString("  [cycle]")
	case t.Missing:
		b.WriteString("  [no live derivation]")
	}
	b.WriteByte('\n')
	for _, d := range t.Derivs {
		fmt.Fprintf(b, "%s  <- rule %d  (producer n%d -> settler n%d, sent t=%d, settled t=%d, %d hops)\n",
			indent, d.Rule, d.Producer, d.Settler, d.SentAt, d.SettledAt, d.Hops)
		for _, c := range d.Body {
			c.render(b, indent+"     ")
		}
	}
}

// BlameStep is one edge of the critical path: the derivation chosen at
// Key, with Route (candidate in-flight time producer→settler) and Wait
// (settle-to-settle gap to the prerequisite this step waited on; 0 on
// the last step).
type BlameStep struct {
	Key       string
	Rule      int32
	Producer  int32
	Settler   int32
	Hops      int32
	SentAt    int64
	SettledAt int64
	Route     int64 // SettledAt - SentAt
	Wait      int64 // SettledAt - next step's SettledAt
}

// CriticalPath is what Blame returns for a derived tuple: the chain of
// derivations that settled last, root first, ending at the last
// derived tuple whose body is all base facts. Total is the root's
// settle time — the end-to-end settle latency when virtual time starts
// at the base injection.
type CriticalPath struct {
	Steps []BlameStep
	Total int64
}

// Blame walks the latest-settling chain below key: at each derived
// tuple it takes the earliest-settling live derivation (the one that
// made the tuple true), then descends into the body tuple whose own
// settle time is largest — the prerequisite the derivation actually
// waited on. Cycles are cut by refusing to revisit a key. Returns nil
// when key has no live derivation in src.
func Blame(key string, src Source, isBase func(string) bool) *CriticalPath {
	seen := map[string]bool{}
	bl := &CriticalPath{}
	for key != "" && !seen[key] && (isBase == nil || !isBase(key)) {
		seen[key] = true
		ds := src(key)
		if len(ds) == 0 {
			break
		}
		d := ds[0]
		for _, c := range ds[1:] {
			if c.SettledAt < d.SettledAt {
				d = c
			}
		}
		bl.Steps = append(bl.Steps, BlameStep{
			Key: key, Rule: d.Rule, Producer: d.Producer, Settler: d.Settler,
			Hops: d.Hops, SentAt: d.SentAt, SettledAt: d.SettledAt,
			Route: d.SettledAt - d.SentAt,
		})
		// Descend into the body tuple that settled last — the one this
		// derivation was actually gated on.
		next, nextAt := "", int64(-1)
		for _, bk := range d.Body {
			if seen[bk] || (isBase != nil && isBase(bk)) {
				continue
			}
			bds := src(bk)
			if len(bds) == 0 {
				continue
			}
			at := bds[0].SettledAt
			for _, c := range bds[1:] {
				if c.SettledAt < at {
					at = c.SettledAt
				}
			}
			if at > nextAt {
				next, nextAt = bk, at
			}
		}
		key = next
	}
	if len(bl.Steps) == 0 {
		return nil
	}
	for i := 0; i+1 < len(bl.Steps); i++ {
		bl.Steps[i].Wait = bl.Steps[i].SettledAt - bl.Steps[i+1].SettledAt
	}
	bl.Total = bl.Steps[0].SettledAt
	return bl
}

// String renders the critical path, root first.
func (b *CriticalPath) String() string {
	if b == nil {
		return "(no live derivation)\n"
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "critical path (settled t=%d):\n", b.Total)
	for i, s := range b.Steps {
		fmt.Fprintf(&sb, "  %2d. %s  rule %d  n%d->n%d  settled t=%d  (route %d ticks / %d hops, waited %d on prerequisite)\n",
			i+1, s.Key, s.Rule, s.Producer, s.Settler, s.SettledAt, s.Route, s.Hops, s.Wait)
	}
	return sb.String()
}

// WriteDOT writes t as a Graphviz digraph: box nodes for tuples,
// point nodes for derivations, edges head→derivation→body.
func WriteDOT(w io.Writer, t *Tree) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, "digraph explain {")
	fmt.Fprintln(bw, "  rankdir=TB; node [fontsize=10];")
	id := 0
	var walk func(t *Tree) int
	walk = func(t *Tree) int {
		me := id
		id++
		attr := "shape=box"
		switch {
		case t.Base:
			attr = "shape=box, style=filled, fillcolor=lightgrey"
		case t.Cycle:
			attr = "shape=box, style=dashed"
		case t.Missing:
			attr = "shape=box, style=dotted"
		}
		fmt.Fprintf(bw, "  n%d [label=%s, %s];\n", me, strconv.Quote(t.Key), attr)
		for _, d := range t.Derivs {
			dn := id
			id++
			fmt.Fprintf(bw, "  n%d [label=%s, shape=ellipse];\n", dn,
				strconv.Quote(fmt.Sprintf("rule %d\\nt=%d, %d hops", d.Rule, d.SettledAt, d.Hops)))
			fmt.Fprintf(bw, "  n%d -> n%d;\n", me, dn)
			for _, c := range d.Body {
				fmt.Fprintf(bw, "  n%d -> n%d;\n", dn, walk(c))
			}
		}
		return me
	}
	walk(t)
	fmt.Fprintln(bw, "}")
	return bw.Flush()
}

// WriteJSONL writes t as one JSON object per tree node (pre-order),
// each carrying its id and parent id so the DAG is reconstructable:
//
//	{"id":0,"parent":-1,"kind":"tuple","key":"j/2|n3,2"}
//	{"id":1,"parent":0,"kind":"deriv","rule":2,"producer":4,"settler":3,"sent":110,"settled":140,"hops":2}
func WriteJSONL(w io.Writer, t *Tree) error {
	bw := bufio.NewWriter(w)
	id := 0
	var walk func(t *Tree, parent int) error
	walk = func(t *Tree, parent int) error {
		me := id
		id++
		leaf := ""
		switch {
		case t.Base:
			leaf = `,"base":true`
		case t.Cycle:
			leaf = `,"cycle":true`
		case t.Missing:
			leaf = `,"missing":true`
		}
		if _, err := fmt.Fprintf(bw, `{"id":%d,"parent":%d,"kind":"tuple","key":%s%s}`+"\n",
			me, parent, strconv.Quote(t.Key), leaf); err != nil {
			return err
		}
		for _, d := range t.Derivs {
			dn := id
			id++
			if _, err := fmt.Fprintf(bw,
				`{"id":%d,"parent":%d,"kind":"deriv","rule":%d,"producer":%d,"settler":%d,"sent":%d,"settled":%d,"hops":%d}`+"\n",
				dn, me, d.Rule, d.Producer, d.Settler, d.SentAt, d.SettledAt, d.Hops); err != nil {
				return err
			}
			for _, c := range d.Body {
				if err := walk(c, dn); err != nil {
					return err
				}
			}
		}
		return nil
	}
	if err := walk(t, -1); err != nil {
		return err
	}
	return bw.Flush()
}
