package eval

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// ProofTree is the witness structure of Section IV-C (footnote 4): how a
// derived tuple is constructed from base tuples. Interior nodes are
// derived tuples with the rule and children used; leaves are base
// tuples.
type ProofTree struct {
	Tuple    Tuple
	RuleID   int // -1 for base tuples / facts
	Children []*ProofTree
}

// IsLeaf reports whether the node is a base tuple.
func (p *ProofTree) IsLeaf() bool { return len(p.Children) == 0 }

// Depth returns the tree height (leaves have depth 1).
func (p *ProofTree) Depth() int {
	max := 0
	for _, c := range p.Children {
		if d := c.Depth(); d > max {
			max = d
		}
	}
	return max + 1
}

// String renders the tree with indentation.
func (p *ProofTree) String() string {
	var b strings.Builder
	p.render(&b, 0)
	return b.String()
}

func (p *ProofTree) render(b *strings.Builder, depth int) {
	b.WriteString(strings.Repeat("  ", depth))
	b.WriteString(p.Tuple.String())
	if p.RuleID >= 0 {
		fmt.Fprintf(b, "   [rule %d]", p.RuleID)
	}
	b.WriteByte('\n')
	for _, c := range p.Children {
		c.render(b, depth+1)
	}
}

// ErrDerivationCycle reports that unfolding hit a cycle: the program is
// not locally non-recursive for the current database, so derivation-set
// maintenance is outside its correctness envelope (Section IV-C,
// "Evaluating General Recursive Programs").
type ErrDerivationCycle struct {
	Tuple Tuple
}

func (e *ErrDerivationCycle) Error() string {
	return fmt.Sprintf("eval: derivation cycle through %s (program is not locally non-recursive on this database)", e.Tuple)
}

// ProofTree unfolds one derivation of t into a proof tree, detecting
// cycles. It requires the maintainer to be in SetOfDerivations mode
// (which stores the derivations) and errs otherwise.
func (m *Maintainer) ProofTree(t Tuple) (*ProofTree, error) {
	if m.mode != SetOfDerivations {
		return nil, fmt.Errorf("eval: proof trees require SetOfDerivations mode, have %v", m.mode)
	}
	if !m.db.Contains(t) {
		return nil, fmt.Errorf("eval: %s is not in the database", t)
	}
	return m.unfold(t, map[string]bool{})
}

// CheckLocallyNonRecursive unfolds every derived tuple; it returns an
// ErrDerivationCycle if any derivation graph has a directed cycle — the
// dynamic check Section IV-C's correctness argument calls for.
func (m *Maintainer) CheckLocallyNonRecursive() error {
	if m.mode != SetOfDerivations {
		return fmt.Errorf("eval: the check requires SetOfDerivations mode")
	}
	for key := range m.derivations {
		t, ok := m.db.lookup(key)
		if !ok {
			continue
		}
		if _, err := m.unfold(t, map[string]bool{}); err != nil {
			return err
		}
	}
	return nil
}

// unfold expands t's first derivation (in canonical order) recursively.
// visiting guards against cycles along the current path.
func (m *Maintainer) unfold(t Tuple, visiting map[string]bool) (*ProofTree, error) {
	key := t.Key()
	if visiting[key] {
		return nil, &ErrDerivationCycle{Tuple: t}
	}
	set := m.derivations[key]
	if len(set) == 0 {
		// Base tuple or program fact.
		return &ProofTree{Tuple: t, RuleID: -1}, nil
	}
	visiting[key] = true
	defer delete(visiting, key)

	// Deterministic choice: smallest derivation key.
	dkeys := make([]string, 0, len(set))
	for dk := range set {
		dkeys = append(dkeys, dk)
	}
	sort.Strings(dkeys)
	var lastErr error
	for _, dk := range dkeys {
		ruleID, childKeys, err := parseDerivKey(dk)
		if err != nil {
			lastErr = err
			continue
		}
		node := &ProofTree{Tuple: t, RuleID: ruleID}
		ok := true
		for _, ck := range childKeys {
			child, found := m.db.lookup(ck)
			if !found {
				ok = false
				break
			}
			sub, err := m.unfold(child, visiting)
			if err != nil {
				if _, cyc := err.(*ErrDerivationCycle); cyc {
					return nil, err
				}
				ok = false
				break
			}
			node.Children = append(node.Children, sub)
		}
		if ok {
			return node, nil
		}
	}
	if lastErr == nil {
		lastErr = fmt.Errorf("eval: no derivation of %s unfolds to base tuples", t)
	}
	return nil, lastErr
}

// parseDerivKey inverts derivKey.
func parseDerivKey(dk string) (int, []string, error) {
	parts := strings.Split(dk, derivSep)
	ruleID, err := strconv.Atoi(strings.TrimPrefix(parts[0], "r"))
	if err != nil || !strings.HasPrefix(parts[0], "r") {
		return 0, nil, fmt.Errorf("eval: malformed derivation key %q", dk)
	}
	return ruleID, parts[1:], nil
}
