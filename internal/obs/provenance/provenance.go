// Package provenance turns the engine's set-of-derivations store into a
// queryable lineage layer. The core runtime already knows, for every
// live derived tuple, exactly which rule instantiations support it —
// that knowledge drives deletion propagation (Theorem 3) but is
// otherwise write-only. This package captures one compact Record per
// derivation at the existing finalize hook and answers "why does this
// tuple exist" (Explain: the derivation DAG down to base facts) and
// "why did it take this long" (Blame: the latest-settling chain with
// per-edge hop and latency attribution).
//
// Capture-path discipline matches the obs counter registry: the nil
// *Graph is a valid disabled graph whose methods are single-branch
// no-ops, so an engine that never attached provenance pays one nil
// check per settle. When enabled, the graph holds exactly the live
// derivations: Remove forgets a record as the engine's own store does.
package provenance

import (
	"slices"
	"sort"
	"sync"
)

// Record is one captured derivation: rule instantiation identity plus
// the transport facts needed for latency attribution.
type Record struct {
	Rule      int32  // rule ID that fired (engine rule numbering)
	Producer  int32  // node that evaluated the join and emitted the candidate
	Settler   int32  // home node where the derivation settled
	Hops      int32  // radio transmissions the candidate took producer→settler
	SentAt    int64  // virtual time the candidate was emitted at the producer
	SettledAt int64  // virtual time the derivation was applied at the settler
	Head      string // head tuple key ("pred/arity|args")
	DerivKey  string // set-of-derivations key (rule id + body stamps)
}

// Derivation is a Record plus its body tuple keys.
type Derivation struct {
	Record
	Body []string
}

// Graph is a per-engine provenance store of the live derivations,
// mirroring the engine's set-of-derivations maps (head key → deriv key
// → derivation). Remove deletes the entry, so the graph holds what
// Explain can reach and nothing else; Captured counts every Add.
//
// The nil Graph is a valid disabled graph: every method no-ops.
type Graph struct {
	mu sync.Mutex
	// head → derivKey → derivation. Values are pointers: most heads
	// hold one or two derivations, and a small map's slots are
	// allocated eight at a time, so inline 88-byte values would cost
	// several times the records they hold.
	live     map[string]map[string]*Derivation
	liveN    int64
	captured int64
}

// NewGraph returns an empty provenance graph.
func NewGraph() *Graph {
	return &Graph{live: make(map[string]map[string]*Derivation)}
}

// Add captures one settled derivation. The graph keeps body as given:
// the caller must not mutate it afterwards. Re-adding a (head, derivKey)
// pair that is already live replaces its record (the engine only calls
// Add when the deriv key is new, so this is a defensive path). No-op on
// a nil receiver.
func (g *Graph) Add(r Record, body []string) {
	if g == nil {
		return
	}
	g.mu.Lock()
	set := g.live[r.Head]
	if set == nil {
		set = make(map[string]*Derivation)
		g.live[r.Head] = set
	}
	if _, dup := set[r.DerivKey]; !dup {
		g.liveN++
	}
	set[r.DerivKey] = &Derivation{Record: r, Body: body}
	g.captured++
	g.mu.Unlock()
}

// Remove drops the (head, derivKey) derivation — the engine calls this
// from the same deletion path that shrinks its set-of-derivations
// store, so Explain never reports a tuple the engine no longer holds.
// No-op on a nil receiver or an unknown pair.
func (g *Graph) Remove(head, derivKey string) {
	if g == nil {
		return
	}
	g.mu.Lock()
	if set := g.live[head]; set != nil {
		if _, ok := set[derivKey]; ok {
			delete(set, derivKey)
			g.liveN--
			if len(set) == 0 {
				delete(g.live, head)
			}
		}
	}
	g.mu.Unlock()
}

// Reset wipes the graph. Engine.Replay re-executes the base timeline
// from scratch; carrying pre-replay records across would attribute
// tuples to derivations that never happened in the replayed run (the
// same unsoundness that forbids incremental replay under negation), so
// replay wipes provenance and lets the re-execution rebuild it.
func (g *Graph) Reset() {
	if g == nil {
		return
	}
	g.mu.Lock()
	g.live = make(map[string]map[string]*Derivation)
	g.liveN = 0
	g.captured = 0
	g.mu.Unlock()
}

// Live reports whether head has at least one live derivation.
func (g *Graph) Live(head string) bool {
	if g == nil {
		return false
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	return len(g.live[head]) > 0
}

// Derivations returns the live derivations of head, sorted by deriv
// key for deterministic output. Nil on a nil graph or unknown head.
func (g *Graph) Derivations(head string) []Derivation {
	if g == nil {
		return nil
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.derivationsLocked(head)
}

func (g *Graph) derivationsLocked(head string) []Derivation {
	set := g.live[head]
	if len(set) == 0 {
		return nil
	}
	out := make([]Derivation, 0, len(set))
	for _, d := range set {
		out = append(out, Derivation{Record: d.Record, Body: slices.Clone(d.Body)})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].DerivKey < out[j].DerivKey })
	return out
}

// LiveCount returns the number of live (head, derivKey) pairs.
func (g *Graph) LiveCount() int64 {
	if g == nil {
		return 0
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.liveN
}

// Captured returns the number of derivations ever captured, including
// ones since removed.
func (g *Graph) Captured() int64 {
	if g == nil {
		return 0
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.captured
}
