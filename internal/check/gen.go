// Package check is the differential half of the robustness harness:
// it generates small stratified programs and randomized workloads,
// executes them on the simulated network under a fault schedule
// (internal/fault), and checks the engine's final derived state
// against the centralized semi-naive oracle over the surviving base
// facts — the Theorems 1–3 property, probed under message loss,
// duplication, reordering, crashes and partitions instead of the
// clean network the unit tests use.
package check

import (
	"fmt"
	"math/rand"
	"strings"

	"repro/internal/datalog/ast"
	"repro/internal/datalog/eval"
)

// baseSpec is one base predicate of a generated program.
type baseSpec struct {
	name   string
	domain int
	// dag restricts generated pairs to a < b, so recursive closure
	// over this predicate derives no cycles (cyclic support has no
	// well-founded deletion order in a set-of-derivations store).
	dag bool
}

// GenProgram is a generated program plus the knowledge needed to feed
// it: which base predicates exist and how to draw tuples for them.
type GenProgram struct {
	Src      string
	Deriveds []string // derived predicate keys, for oracle comparison
	bases    []baseSpec
}

// Rule shapes the generator samples from, on top of the always-present
// two-stream join. Each shape exercises a different engine path: a
// second stratum cascading off the join, builtin selection, a
// two-rule union (multiple derivations per tuple), negation over a
// base stream, negation over a derived stream (stamp-ordered
// retraction triggers), and recursive closure over a DAG. Four more aim
// at the node runtime's slot matcher: a three-stream join (two orders
// reach each result, so saturate's dedup runs), a variable repeated
// within one literal, a head argument bound by `=` arithmetic, and a
// compound head destructured by a second rule.
const (
	shapeChain = iota
	shapeSelect
	shapeUnion
	shapeNegBase
	shapeNegDerived
	shapeRecursion
	numShapes
)

// The matcher shapes, numbered after the sampled ones.
const (
	shapeThreeStream = numShapes + iota
	shapeRepeatedVar
	shapeArithHead
	shapeCompound
)

// Generate builds a random stratified program: the join rule
// d1(X,Z) :- b0(X,Y), b1(Y,Z) plus one or two sampled extra shapes.
// Every draw comes from r, so a seed determines the program.
func Generate(r *rand.Rand) *GenProgram {
	const domain = 4
	g := &GenProgram{
		bases: []baseSpec{
			{name: "b0", domain: domain},
			{name: "b1", domain: domain},
		},
		Deriveds: []string{"d1/2"},
	}
	var b strings.Builder
	var rules strings.Builder
	rules.WriteString("d1(X, Z) :- b0(X, Y), b1(Y, Z).\n")

	needB2, needE0 := false, false
	perm := r.Perm(numShapes)
	shapes := perm[:1+r.Intn(2)]
	// Two seeds in three also get a matcher shape. It is read off the
	// permutation's unused tail and uses only b0 and b1, so it costs no
	// draw: a seed's sampled shapes, workload and fault schedule are the
	// ones it had before these shapes existed (-seed N still replays the
	// run it named), and only the added rule's traffic is new.
	if extra := numShapes + perm[numShapes-1]; extra <= shapeCompound {
		shapes = append(shapes, extra)
	}
	for _, shape := range shapes {
		switch shape {
		case shapeChain:
			needB2 = true
			rules.WriteString("d2(X, Z) :- d1(X, Y), b2(Y, Z).\n")
			g.Deriveds = append(g.Deriveds, "d2/2")
		case shapeSelect:
			fmt.Fprintf(&rules, "d3(X, Y) :- b0(X, Y), X > %d.\n", r.Intn(domain-1))
			g.Deriveds = append(g.Deriveds, "d3/2")
		case shapeUnion:
			needB2 = true
			rules.WriteString("d4(X, Y) :- b0(X, Y).\nd4(X, Y) :- b2(X, Y).\n")
			g.Deriveds = append(g.Deriveds, "d4/2")
		case shapeNegBase:
			rules.WriteString("d5(X, Y) :- b0(X, Y), NOT b1(X, Y).\n")
			g.Deriveds = append(g.Deriveds, "d5/2")
		case shapeNegDerived:
			rules.WriteString("d6(X, Y) :- b0(X, Y), NOT d1(X, Y).\n")
			g.Deriveds = append(g.Deriveds, "d6/2")
		case shapeRecursion:
			needE0 = true
			rules.WriteString("d7(X, Y) :- e0(X, Y).\nd7(X, Z) :- d7(X, Y), e0(Y, Z).\n")
			g.Deriveds = append(g.Deriveds, "d7/2")
		case shapeThreeStream:
			rules.WriteString("d8(X, W) :- b0(X, Y), b1(Y, Z), d1(Z, W).\n")
			g.Deriveds = append(g.Deriveds, "d8/2")
		case shapeRepeatedVar:
			rules.WriteString("d9(X, Y) :- b0(X, X), b1(X, Y).\n")
			g.Deriveds = append(g.Deriveds, "d9/2")
		case shapeArithHead:
			rules.WriteString("d10(X, S) :- b0(X, Y), S = X + Y.\n")
			g.Deriveds = append(g.Deriveds, "d10/2")
		case shapeCompound:
			rules.WriteString("d11(pr(X, Y)) :- b0(X, Y).\nd12(X, Z) :- d11(pr(X, Y)), b1(Y, Z).\n")
			g.Deriveds = append(g.Deriveds, "d11/1", "d12/2")
		}
	}
	if needB2 {
		g.bases = append(g.bases, baseSpec{name: "b2", domain: domain})
	}
	if needE0 {
		g.bases = append(g.bases, baseSpec{name: "e0", domain: domain + 2, dag: true})
	}
	for _, bs := range g.bases {
		fmt.Fprintf(&b, ".base %s/2.\n", bs.name)
	}
	b.WriteString(rules.String())
	g.Src = b.String()
	return g
}

// RandomBase draws a random base tuple for the program: a uniform pair
// over the predicate's domain, or an a < b pair for DAG predicates.
func (g *GenProgram) RandomBase(r *rand.Rand) eval.Tuple {
	bs := g.bases[r.Intn(len(g.bases))]
	if bs.dag {
		a := r.Intn(bs.domain - 1)
		c := a + 1 + r.Intn(2)
		if c >= bs.domain {
			c = bs.domain - 1
		}
		return eval.NewTuple(bs.name, ast.Int64(int64(a)), ast.Int64(int64(c)))
	}
	return eval.NewTuple(bs.name,
		ast.Int64(int64(r.Intn(bs.domain))), ast.Int64(int64(r.Intn(bs.domain))))
}
