// Package analysis implements static analysis of deductive programs:
// safety (range restriction), the predicate dependency graph,
// stratification, and the XY-stratification check of Section IV-C of the
// paper, which licenses combined recursion and negation for evaluation by
// the distributed engine.
package analysis

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/datalog/ast"
)

// Result bundles everything the compiler needs to know about a program.
type Result struct {
	Program *ast.Program
	// Graph is the predicate dependency graph.
	Graph *DepGraph
	// Strata maps "name/arity" to its stratum (0-based). Only populated
	// when the program is stratified.
	Strata map[string]int
	// NumStrata is 1 + max stratum.
	NumStrata int
	// Stratified reports whether no cycle passes through negation.
	Stratified bool
	// Recursive reports whether any predicate is (mutually) recursive.
	Recursive bool
	// XY holds the XY-stratification witnesses for recursive components
	// containing negation, keyed by a representative predicate.
	XY map[string]*XYWitness
	// XYStratified reports that every recursive-with-negation component
	// admitted an XY witness (implied true for stratified programs).
	XYStratified bool
	// SIP maps rule ID to the static sideways-information-passing rank
	// of each body literal (see sip.go); the evaluator uses it as the
	// final tie-breaker when ordering subgoals by selectivity.
	SIP map[int][]int
}

// XYWitness records why a recursive component with negation is
// XY-stratified: the stage argument chosen per predicate.
type XYWitness struct {
	// StageArg maps predicate key to the 0-based argument index used as
	// the stage (the paper partitions the table into sub-tables by this
	// argument's value).
	StageArg map[string]int
	// SameStageOrder is a valid evaluation order of the component's
	// predicates within one stage value.
	SameStageOrder []string
}

// maxBodyLiterals is the longest rule body the engines evaluate: the
// centralized solver and the node runtime both track which body
// positions are done in a uint64. maxRuleVars is the same bound on a
// rule's variables: the node runtime compiles them to register slots and
// tracks the bound ones in a uint64 (unify.Slots).
const (
	maxBodyLiterals = 64
	maxRuleVars     = 64
)

// Analyze runs every analysis. It returns an error for rule bodies longer
// than maxBodyLiterals or with more than maxRuleVars variables, for
// unsafe rules, for aggregates on recursive
// predicates, and for programs that are neither stratified nor
// XY-stratifiable (the engine cannot evaluate those; see Section IV-C
// "Evaluating General Recursive Programs").
func Analyze(p *ast.Program) (*Result, error) {
	for _, r := range p.Rules {
		if len(r.Body) > maxBodyLiterals {
			return nil, fmt.Errorf("analysis: rule %d has %d body literals (limit %d)", r.ID, len(r.Body), maxBodyLiterals)
		}
		if n := len(r.Vars()); n > maxRuleVars {
			return nil, fmt.Errorf("analysis: rule %d has %d variables (limit %d)", r.ID, n, maxRuleVars)
		}
	}
	if err := CheckSafety(p); err != nil {
		return nil, err
	}
	g := BuildDepGraph(p)
	res := &Result{Program: p, Graph: g, XY: make(map[string]*XYWitness)}

	sccs := g.SCCs()
	res.Recursive = false
	res.Stratified = true
	for _, scc := range sccs {
		if len(scc) > 1 || g.selfLoop[scc[0]] {
			res.Recursive = true
		}
		if g.sccHasInternalNegation(scc) {
			res.Stratified = false
		}
	}
	if res.Stratified {
		res.Strata, res.NumStrata = g.strata(sccs)
		res.XYStratified = true
	} else {
		// Try XY-stratification per offending component.
		res.XYStratified = true
		for _, scc := range sccs {
			if !g.sccHasInternalNegation(scc) {
				continue
			}
			w, err := checkXY(p, scc)
			if err != nil {
				res.XYStratified = false
				return res, fmt.Errorf("analysis: component {%s} is not stratified and not XY-stratified: %w",
					strings.Join(scc, ", "), err)
			}
			res.XY[scc[0]] = w
		}
		// Strata over the condensation still exist: negation internal to
		// XY components is handled by staging, and the condensation is
		// acyclic, so cross-component negation is stratified.
		res.Strata, res.NumStrata = g.strata(sccs)
	}

	computeSIP(p, res)

	// Aggregates over recursive predicates are not supported (they would
	// need well-founded or monotonic-aggregate machinery).
	for _, r := range p.Rules {
		if !r.HasAggregates() {
			continue
		}
		head := r.Head.PredKey()
		for _, l := range r.Body {
			if l.Builtin {
				continue
			}
			if g.sameSCC(head, l.PredKey()) {
				return res, fmt.Errorf("analysis: rule %d: aggregate head %s is recursive with %s",
					r.ID, head, l.PredKey())
			}
		}
	}
	return res, nil
}

// CheckSafety verifies the range-restriction condition of the paper
// (footnote 3): every variable of a rule must be limited — appearing in a
// positive relational subgoal, or equated (via = / is) to an expression
// over limited variables.
func CheckSafety(p *ast.Program) error {
	for _, r := range p.Rules {
		if err := checkRuleSafety(r); err != nil {
			return err
		}
	}
	return nil
}

func checkRuleSafety(r *ast.Rule) error {
	limited := make(map[string]bool)
	for _, l := range r.Body {
		if l.Negated || l.Builtin {
			continue
		}
		for _, v := range l.Vars(nil) {
			limited[v] = true
		}
	}
	// Propagate through equality built-ins to a fixpoint: X = expr limits
	// X once all of expr's variables are limited (and symmetrically).
	for changed := true; changed; {
		changed = false
		for _, l := range r.Body {
			if !l.Builtin || l.Negated || (l.Predicate != "=" && l.Predicate != "is") {
				continue
			}
			// Unification flows bindings both ways: if one side is fully
			// limited, every variable of the other side becomes limited
			// (this covers both X = expr and destructuring L = [R | T]).
			lhs, rhs := l.Args[0], l.Args[1]
			if allLimited(lhs, limited) {
				for _, v := range rhs.Vars(nil) {
					if !limited[v] {
						limited[v] = true
						changed = true
					}
				}
			}
			if allLimited(rhs, limited) {
				for _, v := range lhs.Vars(nil) {
					if !limited[v] {
						limited[v] = true
						changed = true
					}
				}
			}
		}
	}
	var offenders []string
	check := func(where string, vars []string) {
		for _, v := range vars {
			if !limited[v] {
				offenders = append(offenders, fmt.Sprintf("%s (in %s)", v, where))
			}
		}
	}
	check("head", r.Head.Vars(nil))
	for _, l := range r.Body {
		if l.Negated && !l.Builtin {
			check("NOT "+l.Predicate, l.Vars(nil))
		}
		if l.Builtin {
			check(l.Predicate, l.Vars(nil))
		}
	}
	if len(offenders) > 0 {
		sort.Strings(offenders)
		uniq := offenders[:0]
		seen := map[string]bool{}
		for _, o := range offenders {
			if !seen[o] {
				seen[o] = true
				uniq = append(uniq, o)
			}
		}
		return fmt.Errorf("analysis: rule %d (%s) is unsafe: unlimited variables: %s",
			r.ID, r.Head.PredKey(), strings.Join(uniq, ", "))
	}
	return nil
}

func allLimited(t ast.Term, limited map[string]bool) bool {
	for _, v := range t.Vars(nil) {
		if !limited[v] {
			return false
		}
	}
	return true
}

// DepGraph is the dependency graph over predicates: an edge P -> Q exists
// when some rule with head P has Q in its body; the edge is negative when
// some such occurrence is negated.
type DepGraph struct {
	Nodes    []string
	pos      map[string]map[string]bool
	neg      map[string]map[string]bool
	selfLoop map[string]bool
	sccOf    map[string]int
}

// BuildDepGraph constructs the dependency graph of p. Base predicates and
// built-ins are included as sink nodes (built-ins excluded).
func BuildDepGraph(p *ast.Program) *DepGraph {
	g := &DepGraph{
		pos:      make(map[string]map[string]bool),
		neg:      make(map[string]map[string]bool),
		selfLoop: make(map[string]bool),
	}
	add := func(n string) {
		if _, ok := g.pos[n]; !ok {
			g.pos[n] = make(map[string]bool)
			g.neg[n] = make(map[string]bool)
			g.Nodes = append(g.Nodes, n)
		}
	}
	for _, r := range p.Rules {
		h := r.Head.PredKey()
		add(h)
		for _, l := range r.Body {
			if l.Builtin {
				continue
			}
			b := l.PredKey()
			add(b)
			if l.Negated {
				g.neg[h][b] = true
			} else {
				g.pos[h][b] = true
			}
			if b == h {
				g.selfLoop[h] = true
			}
		}
	}
	sort.Strings(g.Nodes)
	return g
}

// DependsOn reports whether head depends (directly) on body, and whether
// any such dependency is negative.
func (g *DepGraph) DependsOn(head, body string) (dep, negative bool) {
	return g.pos[head][body] || g.neg[head][body], g.neg[head][body]
}

// successors of n (both polarities), sorted.
func (g *DepGraph) successors(n string) []string {
	set := make(map[string]bool)
	for m := range g.pos[n] {
		set[m] = true
	}
	for m := range g.neg[n] {
		set[m] = true
	}
	out := make([]string, 0, len(set))
	for m := range set {
		out = append(out, m)
	}
	sort.Strings(out)
	return out
}

// SCCs returns the strongly connected components in reverse topological
// order (dependencies first), each sorted. Also populates sccOf.
func (g *DepGraph) SCCs() [][]string {
	// Tarjan's algorithm, iterative enough for our sizes via recursion.
	index := make(map[string]int)
	low := make(map[string]int)
	onStack := make(map[string]bool)
	var stack []string
	var sccs [][]string
	next := 0
	g.sccOf = make(map[string]int)

	var strongconnect func(v string)
	strongconnect = func(v string) {
		index[v] = next
		low[v] = next
		next++
		stack = append(stack, v)
		onStack[v] = true
		for _, w := range g.successors(v) {
			if _, seen := index[w]; !seen {
				strongconnect(w)
				if low[w] < low[v] {
					low[v] = low[w]
				}
			} else if onStack[w] && index[w] < low[v] {
				low[v] = index[w]
			}
		}
		if low[v] == index[v] {
			var comp []string
			for {
				w := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[w] = false
				comp = append(comp, w)
				if w == v {
					break
				}
			}
			sort.Strings(comp)
			for _, w := range comp {
				g.sccOf[w] = len(sccs)
			}
			sccs = append(sccs, comp)
		}
	}
	for _, v := range g.Nodes {
		if _, seen := index[v]; !seen {
			strongconnect(v)
		}
	}
	return sccs
}

func (g *DepGraph) sameSCC(a, b string) bool {
	if g.sccOf == nil {
		g.SCCs()
	}
	ia, oka := g.sccOf[a]
	ib, okb := g.sccOf[b]
	return oka && okb && ia == ib
}

// sccHasInternalNegation reports whether a negative edge connects two
// members of the component (including a negative self-loop).
func (g *DepGraph) sccHasInternalNegation(scc []string) bool {
	in := make(map[string]bool, len(scc))
	for _, n := range scc {
		in[n] = true
	}
	for _, n := range scc {
		for m := range g.neg[n] {
			if in[m] {
				return true
			}
		}
	}
	return false
}

// strata assigns each predicate a stratum: the longest chain of negative
// edges below it in the condensation. Negative edges internal to a
// component (XY case) do not bump the stratum.
func (g *DepGraph) strata(sccs [][]string) (map[string]int, int) {
	// sccs are in reverse topological order (dependencies first).
	stratumOfSCC := make([]int, len(sccs))
	for i, comp := range sccs {
		s := 0
		in := make(map[string]bool, len(comp))
		for _, n := range comp {
			in[n] = true
		}
		for _, n := range comp {
			for m := range g.pos[n] {
				if !in[m] {
					if t := stratumOfSCC[g.sccOf[m]]; t > s {
						s = t
					}
				}
			}
			for m := range g.neg[n] {
				if !in[m] {
					if t := stratumOfSCC[g.sccOf[m]] + 1; t > s {
						s = t
					}
				}
			}
		}
		stratumOfSCC[i] = s
	}
	out := make(map[string]int, len(g.Nodes))
	max := 0
	for n, i := range g.sccOf {
		out[n] = stratumOfSCC[i]
		if out[n] > max {
			max = out[n]
		}
	}
	return out, max + 1
}
