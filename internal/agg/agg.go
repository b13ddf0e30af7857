// Package agg implements the mergeable partial-aggregation states of
// TAG-style in-network aggregation (Madden et al., cited as [32] by the
// paper for evaluating aggregates over sensor networks). A State absorbs
// raw values at leaves and merges with sibling states hop-by-hop up a
// collection tree; Value extracts the final aggregate at the sink.
//
// The decomposition is the standard one: count/sum/min/max are directly
// mergeable; avg merges as (sum, count).
package agg

import (
	"fmt"

	"repro/internal/datalog/ast"
)

// State is one group's partial aggregate.
type State struct {
	Func string // count, sum, min, max, avg

	count  int64
	sumF   float64
	sumI   int64
	allInt bool
	best   ast.Term // min/max witness
	has    bool
}

// New returns an empty partial state for the aggregate function.
func New(fn string) (*State, error) {
	switch fn {
	case "count", "sum", "min", "max", "avg":
		return &State{Func: fn, allInt: true}, nil
	}
	return nil, fmt.Errorf("agg: unknown aggregate %q", fn)
}

// Add absorbs one raw value.
func (s *State) Add(v ast.Term) error {
	switch s.Func {
	case "count":
		s.count++
		s.has = true
		return nil
	case "sum", "avg":
		f, ok := v.Numeric()
		if !ok {
			return fmt.Errorf("agg: %s over non-numeric %s", s.Func, v)
		}
		s.sumF += f
		if v.Kind == ast.KindInt {
			s.sumI += v.Int
		} else {
			s.allInt = false
		}
		s.count++
		s.has = true
		return nil
	case "min", "max":
		if !s.has {
			s.best = v
			s.has = true
			return nil
		}
		c, err := compare(v, s.best)
		if err != nil {
			return err
		}
		if (s.Func == "min" && c < 0) || (s.Func == "max" && c > 0) {
			s.best = v
		}
		return nil
	}
	return fmt.Errorf("agg: bad state %q", s.Func)
}

// Merge absorbs a sibling partial state.
func (s *State) Merge(o *State) error {
	if o == nil || !o.has {
		return nil
	}
	if s.Func != o.Func {
		return fmt.Errorf("agg: merging %s into %s", o.Func, s.Func)
	}
	switch s.Func {
	case "count":
		s.count += o.count
	case "sum", "avg":
		s.count += o.count
		s.sumF += o.sumF
		s.sumI += o.sumI
		s.allInt = s.allInt && o.allInt
	case "min", "max":
		if !s.has {
			s.best = o.best
			s.has = true
			return nil
		}
		c, err := compare(o.best, s.best)
		if err != nil {
			return err
		}
		if (s.Func == "min" && c < 0) || (s.Func == "max" && c > 0) {
			s.best = o.best
		}
	}
	s.has = s.has || o.has
	return nil
}

// Empty reports whether the state absorbed nothing.
func (s *State) Empty() bool { return !s.has }

// Value extracts the final aggregate.
func (s *State) Value() (ast.Term, error) {
	if !s.has {
		return ast.Term{}, fmt.Errorf("agg: %s of empty group", s.Func)
	}
	switch s.Func {
	case "count":
		return ast.Int64(s.count), nil
	case "sum":
		if s.allInt {
			return ast.Int64(s.sumI), nil
		}
		return ast.Float64(s.sumF), nil
	case "avg":
		return ast.Float64(s.sumF / float64(s.count)), nil
	case "min", "max":
		return s.best, nil
	}
	return ast.Term{}, fmt.Errorf("agg: bad state %q", s.Func)
}

// Size estimates the wire size of the partial state in bytes.
func (s *State) Size() int { return 16 }

func compare(a, b ast.Term) (int, error) {
	af, aok := a.Numeric()
	bf, bok := b.Numeric()
	if aok && bok {
		switch {
		case af < bf:
			return -1, nil
		case af > bf:
			return 1, nil
		}
		return 0, nil
	}
	return a.Compare(b), nil
}

// Groups maps group keys to per-aggregate-position states plus the group
// arguments themselves.
type Groups struct {
	ByKey map[string]*Group
}

// Group is one group-by bucket.
type Group struct {
	Args   []ast.Term
	States []*State
}

// NewGroups returns an empty group table.
func NewGroups() *Groups {
	return &Groups{ByKey: make(map[string]*Group)}
}

// Get returns the bucket for the group args, creating it with a fresh
// state for each non-nil aggregate of aggs (a rule's HeadAggs).
func (g *Groups) Get(args []ast.Term, aggs []*ast.Aggregate) (*Group, error) {
	var b []byte
	for _, a := range args {
		b = append(a.AppendKey(b), '|')
	}
	if grp, ok := g.ByKey[string(b)]; ok {
		return grp, nil
	}
	grp := &Group{Args: args}
	for _, a := range aggs {
		if a == nil {
			continue
		}
		st, err := New(a.Func)
		if err != nil {
			return nil, err
		}
		grp.States = append(grp.States, st)
	}
	g.ByKey[string(b)] = grp
	return grp, nil
}

// Merge absorbs another group table.
func (g *Groups) Merge(o *Groups) error {
	if o == nil {
		return nil
	}
	for key, grp := range o.ByKey {
		mine, ok := g.ByKey[key]
		if !ok {
			// Deep-copy states so later merges don't alias.
			cp := &Group{Args: grp.Args}
			for _, st := range grp.States {
				ns, err := New(st.Func)
				if err != nil {
					return err
				}
				if err := ns.Merge(st); err != nil {
					return err
				}
				cp.States = append(cp.States, ns)
			}
			g.ByKey[key] = cp
			continue
		}
		for i, st := range grp.States {
			if err := mine.States[i].Merge(st); err != nil {
				return err
			}
		}
	}
	return nil
}

// Size estimates the wire size of the whole table.
func (g *Groups) Size() int {
	n := 4
	for _, grp := range g.ByKey {
		n += 8
		for range grp.States {
			n += 16
		}
	}
	return n
}
