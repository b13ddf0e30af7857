package eval

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"repro/internal/obs/provenance"
)

// ErrDerivationCycle reports that the derivation graph has a cycle: the
// program is not locally non-recursive for the current database, so
// derivation-set maintenance is outside its correctness envelope
// (Section IV-C, "Evaluating General Recursive Programs").
type ErrDerivationCycle struct {
	Tuple Tuple
}

func (e *ErrDerivationCycle) Error() string {
	return fmt.Sprintf("eval: derivation cycle through %s (program is not locally non-recursive on this database)", e.Tuple)
}

// Explain returns the tree the engine's Explain returns — the witness
// structure of Section IV-C (footnote 4) — over the derivations this
// maintainer stores, which only SetOfDerivations mode does. A stored
// tuple with no derivation is a [base] leaf, a body tuple no longer
// stored a [no live derivation] leaf.
func (m *Maintainer) Explain(t Tuple) (*provenance.Tree, error) {
	if m.mode != SetOfDerivations {
		return nil, fmt.Errorf("eval: explanations require SetOfDerivations mode, have %v", m.mode)
	}
	if !m.db.Contains(t) {
		return nil, fmt.Errorf("eval: %s is not in the database", t.Key())
	}
	return provenance.Explain(t.Key(), m.derivationsOf, m.isBase), nil
}

// CheckLocallyNonRecursive returns an ErrDerivationCycle if the
// derivation graph has a directed cycle — the dynamic check Section
// IV-C's correctness argument calls for. It is one depth-first walk
// over the Source Explain reads, which follows every derivation of
// every derived tuple once.
func (m *Maintainer) CheckLocallyNonRecursive() error {
	if m.mode != SetOfDerivations {
		return fmt.Errorf("eval: the check requires SetOfDerivations mode")
	}
	done := make(map[string]bool, len(m.derivations))
	for key := range m.derivations {
		if err := m.visit(key, done); err != nil {
			return err
		}
	}
	return nil
}

// visit walks key's derivations depth first. done holds false for a key
// on the walk's path (grey), so meeting one again closes a cycle, and
// true for a key whose derivations are all walked (black).
func (m *Maintainer) visit(key string, done map[string]bool) error {
	if finished, seen := done[key]; finished {
		return nil
	} else if seen {
		t, _ := m.db.lookup(key)
		return &ErrDerivationCycle{Tuple: t}
	}
	done[key] = false
	for _, d := range m.derivationsOf(key) {
		for _, bk := range d.Body {
			if err := m.visit(bk, done); err != nil {
				return err
			}
		}
	}
	done[key] = true
	return nil
}

// derivationsOf is the provenance.Source over the derivation sets:
// head's derivations, each with the rule id and body keys its derivation
// key holds, sorted by that key. No network captured them, so the
// records carry no transport facts (Producer and Settler are -1).
func (m *Maintainer) derivationsOf(head string) []provenance.Derivation {
	var out []provenance.Derivation
	for dk := range m.derivations[head] {
		rule, body := parseDerivKey(dk)
		out = append(out, provenance.Derivation{
			Record: provenance.Record{Rule: int32(rule), Producer: -1, Settler: -1, Head: head, DerivKey: dk},
			Body:   body,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].DerivKey < out[j].DerivKey })
	return out
}

// isBase classifies a tuple key for Explain: a stored tuple with no
// derivation is a base tuple or a program fact.
func (m *Maintainer) isBase(key string) bool {
	_, stored := m.db.lookup(key)
	return stored && len(m.derivations[key]) == 0
}

// parseDerivKey inverts derivKey, the only writer of derivation keys.
func parseDerivKey(dk string) (int, []string) {
	parts := strings.Split(dk, derivSep)
	ruleID, _ := strconv.Atoi(parts[0][1:])
	return ruleID, parts[1:]
}
