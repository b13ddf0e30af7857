// Package provenance turns the engine's set-of-derivations store into a
// queryable lineage layer. The core runtime already knows, for every
// live derived tuple, exactly which rule instantiations support it —
// that knowledge drives deletion propagation (Theorem 3). With capture
// on, the engine keeps one compact Derivation as the value of each
// entry of that store, and this package answers "why does this tuple
// exist" (Explain: the derivation DAG down to base facts) and "why did
// it take this long" (Blame: the latest-settling chain with per-edge
// hop and latency attribution) over it.
//
// The package holds no store of its own: Explain and Blame read a
// head's live derivations through a Source, so a record lives exactly
// as long as the engine's entry it is the value of.
package provenance

// Record is one captured derivation: rule instantiation identity plus
// the transport facts needed for latency attribution.
type Record struct {
	Rule      int32  // rule ID that fired (engine rule numbering)
	Producer  int32  // node that evaluated the join and emitted the candidate; -1 off-network
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

// Source returns the live derivations of a head tuple key, sorted by
// deriv key for deterministic output, or nil when it has none. The
// caller must not mutate the returned bodies.
type Source func(head string) []Derivation
