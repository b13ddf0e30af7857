package core

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"strings"

	"repro/internal/datalog/ast"
	"repro/internal/datalog/eval"
	"repro/internal/obs/provenance"
)

// ErrNoProvenance is returned by Explain/Blame when the engine was
// deployed with provenance capture off.
var ErrNoProvenance = errors.New("core: provenance capture is off (deploy with it on)")

// Explain answers "why is this tuple in the database": the derivation
// DAG from the tuple down to base facts, built from the records the
// home nodes' set-of-derivations hold. pred is the predicate name with
// or without the "/arity" suffix; args must be ground terms. Recursive programs
// are handled by cycle cut-off (a tuple already on the path renders as
// a [cycle] leaf).
//
// A base tuple explains as a single [base] leaf if it is live. A
// derived tuple with no live derivation — never derived, or derived
// and then deleted (negation flip, window expiry, cascaded removal) —
// returns an error: the set-of-derivations store is the ground truth,
// and a record goes with its entry.
func (e *Engine) Explain(pred string, args ...ast.Term) (*provenance.Tree, error) {
	if !e.prov {
		return nil, ErrNoProvenance
	}
	t, p, err := e.resolveQuery(pred, args)
	if err != nil {
		return nil, err
	}
	key := t.Key()
	if p.base {
		if _, live := e.baseIDs[key]; !live {
			return nil, fmt.Errorf("core: base tuple %s is not live", key)
		}
		return &provenance.Tree{Key: key, Base: true}, nil
	}
	tree := provenance.Explain(key, e.derivations, e.isBaseKey)
	if tree.Missing {
		return nil, fmt.Errorf("core: no live derivation of %s (not derived, or deleted)", key)
	}
	return tree, nil
}

// Blame answers "why did this tuple settle when it did": the critical
// path of derivations below the tuple — at each step the derivation
// that made the tuple true, descending into the prerequisite that
// settled last — with per-edge route time, hop count, and wait time.
func (e *Engine) Blame(pred string, args ...ast.Term) (*provenance.CriticalPath, error) {
	if !e.prov {
		return nil, ErrNoProvenance
	}
	t, p, err := e.resolveQuery(pred, args)
	if err != nil {
		return nil, err
	}
	key := t.Key()
	if p.base {
		return nil, fmt.Errorf("core: %s is a base fact; Blame explains derived tuples", key)
	}
	bl := provenance.Blame(key, e.derivations, e.isBaseKey)
	if bl == nil {
		return nil, fmt.Errorf("core: no live derivation of %s", key)
	}
	return bl, nil
}

// derivations is the provenance.Source over the home nodes' stores:
// head's records from every node that holds it, one per derivation key,
// sorted by it. A tuple normally has one home; under faults two nodes
// can hold the same derivation, and the later-settled record is kept,
// so the node order of the scan does not decide what Explain prints.
func (e *Engine) derivations(head string) []provenance.Derivation {
	var out []provenance.Derivation
	for _, rt := range e.rts {
		h := rt.homed[head]
		if h == nil {
			continue
		}
		for _, d := range h.derivs {
			i := slices.IndexFunc(out, func(o provenance.Derivation) bool { return o.DerivKey == d.DerivKey })
			switch {
			case i < 0:
				out = append(out, *d)
			case d.SettledAt > out[i].SettledAt:
				out[i] = *d
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].DerivKey < out[j].DerivKey })
	return out
}

// resolveQuery builds the ground tuple a provenance query names, with its
// predicate's record. Failures wrap ErrNotGround, ErrArity or
// ErrUnknownPredicate.
func (e *Engine) resolveQuery(query string, args []ast.Term) (eval.Tuple, *pred, error) {
	name := query
	if i := strings.LastIndexByte(name, '/'); i >= 0 {
		name = name[:i]
	}
	for _, a := range args {
		if !a.Ground() {
			return eval.Tuple{}, nil, validationErrorf(ErrNotGround, "core: provenance query %s needs ground arguments", query)
		}
	}
	t := eval.NewTuple(name, args...)
	p, err := classify(e.preds, t.Pred)
	if err != nil {
		return eval.Tuple{}, nil, fmt.Errorf("core: provenance query %s: %w", query, err)
	}
	return t, p, nil
}

// isBaseKey classifies a tuple key ("pred/arity|args") as EDB for the
// tree expansion.
func (e *Engine) isBaseKey(key string) bool {
	if i := strings.IndexByte(key, '|'); i >= 0 {
		p := e.preds[key[:i]]
		return p != nil && p.base
	}
	return false
}
