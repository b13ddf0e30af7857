package eval

import (
	"testing"

	"repro/internal/datalog/ast"
)

// Section IV-C guarantees derivation-set (and counting) maintenance only
// for locally non-recursive programs; CheckLocallyNonRecursive is the
// dynamic check for that condition. Reachability over a graph with a
// cycle leaves it, and these tests hold the check to what Rederivation,
// correct for every stratified program, says.

const leftReach = `
.base link/2.
reach(X, Y) :- link(X, Y).
reach(X, Z) :- reach(X, Y), link(Y, Z).
`

const rightReach = `
.base link/2.
reach(X, Y) :- link(X, Y).
reach(X, Z) :- link(X, Y), reach(Y, Z).
`

func link(a, b string) Tuple { return NewTuple("link", ast.Symbol(a), ast.Symbol(b)) }

type linkOp struct {
	insert bool
	t      Tuple
}

// envelope is one timeline of link inserts and deletes run by a
// maintainer per mode (allModes' order).
type envelope struct {
	ms [3]*Maintainer
	// flagged is the first op after which CheckLocallyNonRecursive
	// failed on the SetOfDerivations state, -1 if none did.
	flagged int
	// diverged is the first op after which SetOfDerivations or Counting
	// disagreed with Rederivation on reach/2, -1 if none did.
	diverged int
}

func runEnvelope(t testing.TB, src string, ops []linkOp) envelope {
	t.Helper()
	env := envelope{flagged: -1, diverged: -1}
	for i, mode := range allModes {
		env.ms[i] = newMaint(t, src, mode)
	}
	for i, op := range ops {
		for _, m := range env.ms {
			apply := m.Delete
			if op.insert {
				apply = m.Insert
			}
			if _, err := apply(op.t); err != nil {
				t.Fatalf("op %d on %v: %v", i, m.mode, err)
			}
		}
		oracle := reachKeys(env.ms[2])
		if env.diverged < 0 && (reachKeys(env.ms[0]) != oracle || reachKeys(env.ms[1]) != oracle) {
			env.diverged = i
		}
		if env.flagged < 0 && env.ms[0].CheckLocallyNonRecursive() != nil {
			env.flagged = i
		}
	}
	return env
}

// reachKeys renders m's reach/2 tuples, in canonical order, as one
// comparable string.
func reachKeys(m *Maintainer) string {
	var s string
	for _, t := range m.DB().Tuples("reach/2") {
		s += t.Key() + ";"
	}
	return s
}

// inside reports whether the timeline stayed in the check's envelope:
// no mode diverged before the check had flagged an earlier state.
func (env envelope) inside() bool {
	return env.diverged < 0 || (env.flagged >= 0 && env.flagged < env.diverged)
}

// ROADMAP item 18(a), known wrong: over the cycle a→b→a, a tuple that
// only the cycle supports outlives its last well-founded derivation.
// Deleting link(c, a) leaves reach(c, a) and reach(c, b) derived from
// each other in SetOfDerivations and Counting; Rederivation keeps the
// 4 tuples the two remaining links give. The check must have flagged
// the state before the delete.
func TestKnownWrongCyclicReachItem18a(t *testing.T) {
	env := runEnvelope(t, leftReach, []linkOp{
		{true, link("a", "b")}, {true, link("b", "a")}, {true, link("c", "a")},
		{false, link("c", "a")},
	})
	for i, want := range []int{6, 6, 4} {
		if got := env.ms[i].DB().Count("reach/2"); got != want {
			t.Errorf("%v: %d reach/2 tuples, want %d (known wrong: item 18)", allModes[i], got, want)
		}
	}
	if env.flagged < 0 || env.flagged >= 3 {
		t.Errorf("CheckLocallyNonRecursive flagged at op %d, want before the delete (op 3)", env.flagged)
	}
}

// Every configuration of three distinct link inserts over {a, b, c}
// (84) followed by the delete of one of them (3): wherever
// SetOfDerivations or Counting ends up disagreeing with Rederivation,
// the check flagged the state before the delete.
func TestCheckLocallyNonRecursiveSweep(t *testing.T) {
	syms := []string{"a", "b", "c"}
	var links []Tuple
	for _, x := range syms {
		for _, y := range syms {
			links = append(links, link(x, y))
		}
	}
	configs, diverged := 0, 0
	for i := range links {
		for j := i + 1; j < len(links); j++ {
			for k := j + 1; k < len(links); k++ {
				ins := []Tuple{links[i], links[j], links[k]}
				for _, del := range ins {
					configs++
					env := runEnvelope(t, leftReach, []linkOp{
						{true, ins[0]}, {true, ins[1]}, {true, ins[2]}, {false, del},
					})
					if env.diverged < 0 {
						continue
					}
					diverged++
					if env.diverged != 3 || env.flagged < 0 || env.flagged >= 3 {
						t.Errorf("insert %v, %v, %v, delete %v: diverged at op %d, flagged at op %d",
							ins[0], ins[1], ins[2], del, env.diverged, env.flagged)
					}
				}
			}
		}
	}
	if configs != 84*3 || diverged != 132 {
		t.Errorf("%d configurations, %d diverged; want 252 and 132", configs, diverged)
	}
}

// FuzzMaintainerEnvelope decodes its bytes to a timeline of at most 12
// link inserts and deletes over at most 4 symbols: the first byte's low
// bit picks the left- or the right-recursive reach, and each later byte
// is one op (bit 4 deletes; bits 0–1 and 2–3 name the link's ends). The
// property: while CheckLocallyNonRecursive has passed after every op so
// far, SetOfDerivations, Counting and Rederivation agree on reach/2.
//
// `make fuzz-smoke` runs this target for a few seconds on every verify.
func FuzzMaintainerEnvelope(f *testing.F) {
	f.Add([]byte{0, 0x04, 0x01, 0x02, 0x12})             // item 18(a): a→b, b→a, c→a, then delete c→a
	f.Add([]byte{1, 0x04, 0x01, 0x02, 0x12})             // the same, right-recursive
	f.Add([]byte{0, 0x04, 0x09, 0x0e, 0x03, 0x13, 0x14}) // a→b→c→d→a, then break the ring
	f.Add([]byte{1, 0x04, 0x09, 0x14, 0x04, 0x02, 0x18})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		src := leftReach
		if data[0]&1 == 1 {
			src = rightReach
		}
		syms := []string{"a", "b", "c", "d"}
		var ops []linkOp
		for _, b := range data[1:min(len(data), 13)] {
			ops = append(ops, linkOp{insert: b&0x10 == 0, t: link(syms[b&3], syms[b>>2&3])})
		}
		if env := runEnvelope(t, src, ops); !env.inside() {
			t.Errorf("ops %x: diverged at op %d, flagged at op %d", data, env.diverged, env.flagged)
		}
	})
}
