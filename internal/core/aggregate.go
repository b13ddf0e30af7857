package core

import (
	"fmt"
	"slices"

	"repro/internal/agg"
	"repro/internal/datalog/ast"
	"repro/internal/datalog/builtin"
	"repro/internal/datalog/eval"
	"repro/internal/datalog/unify"
	"repro/internal/nsim"
	"repro/internal/routing"
)

// TAG-style in-network aggregation (Section IV-C points at TAG [32] for
// evaluating aggregates). An aggregate rule such as
//
//	short(X, min<D>) :- path(X, D), D < 100.
//
// is not evaluated by the join machinery; instead the sink triggers an
// epoch: a tree-building flood establishes parents and depths, every
// node folds the tuples it *owns* (tuples whose generation stamp names
// it — exactly one owner per tuple network-wide) into per-group partial
// states, and partials merge hop-by-hop up the tree in depth-staggered
// slots. The sink extracts the final groups.

// Message kinds for aggregation epochs.
const (
	kindAggBuild   = "aggb"
	kindAggPartial = "aggp"
	timerAggSend   = "aggsend"
	timerAggFinal  = "aggfinal"
)

type aggBuildMsg struct {
	Epoch string
	Pred  string // head predicate key of the aggregate rule
	Depth int
}

func (m *aggBuildMsg) kind() string { return kindAggBuild }
func (m *aggBuildMsg) size() int    { return 10 }

type aggPartialMsg struct {
	Epoch  string
	Groups *agg.Groups
}

// aggSession is one node's participation in an epoch.
type aggSession struct {
	pred   string
	parent nsim.NodeID
	isSink bool
	groups *agg.Groups // merged children + local (built at send time)
	sent   bool
}

// aggRule is a validated aggregate rule plan.
type aggRule struct {
	rule   *ast.Rule
	relIdx int // the single positive relational body index
}

// validateAggregateRule checks the TAG restrictions: exactly one
// positive relational subgoal, no negation, builtins allowed.
func validateAggregateRule(r *ast.Rule) (*aggRule, error) {
	plan := &aggRule{rule: r, relIdx: -1}
	for i, l := range r.Body {
		if l.Builtin {
			continue
		}
		if l.Negated {
			return nil, fmt.Errorf("core: aggregate rule %d: negation is not supported in TAG collection", r.ID)
		}
		if plan.relIdx >= 0 {
			return nil, fmt.Errorf("core: aggregate rule %d: TAG collection aggregates over a single stream; found a second subgoal %s", r.ID, l)
		}
		plan.relIdx = i
	}
	if plan.relIdx < 0 {
		return nil, fmt.Errorf("core: aggregate rule %d has no relational subgoal", r.ID)
	}
	return plan, nil
}

// CollectAggregateAt schedules a TAG collection epoch for the aggregate
// head predicate at the given sink and virtual time. The result is
// available from AggregateResult after the network runs past the epoch.
func (e *Engine) CollectAggregateAt(at nsim.Time, headPred string, sink nsim.NodeID) error {
	if _, ok := e.aggRules[headPred]; !ok {
		return fmt.Errorf("core: no aggregate rule for %s", headPred)
	}
	e.nw.ScheduleAt(at, func() {
		e.rts[sink].startAggEpoch(headPred)
	})
	return nil
}

// AggregateResult returns the tuples produced by the last completed
// collection epoch for the aggregate predicate.
func (e *Engine) AggregateResult(headPred string) []eval.Tuple {
	return e.aggResults[headPred]
}

// aggSlot is the per-depth time slot of the collection schedule.
func (e *Engine) aggSlot() nsim.Time {
	return 4 * nsim.MaxDelay
}

// aggMaxDepth conservatively bounds the collection tree depth.
func (e *Engine) aggMaxDepth() int {
	minX, minY, maxX, maxY := routing.Bounds(e.nw)
	return int(maxX-minX) + int(maxY-minY) + 4
}

// startAggEpoch begins an epoch at the sink node.
func (rt *nodeRT) startAggEpoch(pred string) {
	rt.e.aggEpoch++
	epoch := fmt.Sprintf("%s#%d", pred, rt.e.aggEpoch)
	s := &aggSession{pred: pred, parent: rt.node.ID, isSink: true, groups: agg.NewGroups()}
	rt.aggSessions[epoch] = s
	rt.broadcast(&aggBuildMsg{Epoch: epoch, Pred: pred, Depth: 0}, nil)
	dmax := rt.e.aggMaxDepth()
	rt.node.SetTimer(rt.e.aggSlot()*nsim.Time(dmax+2), timerAggFinal, epoch)
}

// onAggBuild joins the collection tree (first announcement wins).
func (rt *nodeRT) onAggBuild(from nsim.NodeID, m *aggBuildMsg) {
	if _, ok := rt.aggSessions[m.Epoch]; ok {
		return
	}
	s := &aggSession{pred: m.Pred, parent: from, groups: agg.NewGroups()}
	rt.aggSessions[m.Epoch] = s
	depth := m.Depth + 1
	rt.broadcast(&aggBuildMsg{Epoch: m.Epoch, Pred: m.Pred, Depth: depth}, nil)
	dmax := rt.e.aggMaxDepth()
	slot := dmax - depth
	if slot < 0 {
		slot = 0
	}
	rt.node.SetTimer(rt.e.aggSlot()*nsim.Time(slot)+1, timerAggSend, m.Epoch)
}

// onAggPartial merges a child's partial table.
func (rt *nodeRT) onAggPartial(m *aggPartialMsg) {
	s, ok := rt.aggSessions[m.Epoch]
	if !ok || s.sent {
		return // late or unknown: the contribution is lost (TAG semantics)
	}
	if err := s.groups.Merge(m.Groups); err != nil {
		return
	}
}

// aggSend folds the local contribution and forwards the partial table to
// the parent.
func (rt *nodeRT) aggSend(epoch string) {
	s, ok := rt.aggSessions[epoch]
	if !ok || s.sent || s.isSink {
		return
	}
	s.sent = true
	rt.localAggContribution(s)
	if len(s.groups.ByKey) > 0 {
		rt.send(s.parent, kindAggPartial, &aggPartialMsg{Epoch: epoch, Groups: s.groups}, s.groups.Size())
	}
	delete(rt.aggSessions, epoch)
}

// aggFinal completes the epoch at the sink.
func (rt *nodeRT) aggFinal(epoch string) {
	s, ok := rt.aggSessions[epoch]
	if !ok || !s.isSink {
		return
	}
	rt.localAggContribution(s)
	plan := rt.e.aggRules[s.pred]
	r := plan.rule
	// The epoch's output is in group-key order, not map order.
	keys := make([]string, 0, len(s.groups.ByKey))
	for k := range s.groups.ByKey {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	var out []eval.Tuple
	for _, k := range keys {
		grp := s.groups.ByKey[k]
		args := make([]ast.Term, len(r.Head.Args))
		gi, si := 0, 0
		bad := false
		for i := range r.Head.Args {
			if r.HeadAggs[i] == nil {
				args[i] = grp.Args[gi]
				gi++
				continue
			}
			v, err := grp.States[si].Value()
			if err != nil {
				bad = true
				break
			}
			args[i] = v
			si++
		}
		if bad {
			continue
		}
		out = append(out, eval.Tuple{Pred: r.Head.PredKey(), Args: args})
	}
	rt.e.aggResults[s.pred] = out
	delete(rt.aggSessions, epoch)
}

// localAggContribution folds the tuples this node OWNS (generation stamp
// names it) into the session's groups — ownership is unique network-wide,
// so replicated storage never double-counts.
func (rt *nodeRT) localAggContribution(s *aggSession) {
	plan := rt.e.aggRules[s.pred]
	r := plan.rule
	lit := r.Body[plan.relIdx]
	reg := builtin.Standard
	for _, entry := range rt.live(lit.PredKey()) {
		if entry.ID.Node != int(rt.node.ID) {
			continue // replica owned elsewhere
		}
		sub, ok := unify.MatchArgs(lit.Args, entry.Args, unify.Subst{})
		if !ok {
			continue
		}
		// Evaluate the rule's builtins (filters / computed values).
		okAll := true
		for _, l := range r.Body {
			if !l.Builtin {
				continue
			}
			pass, ns, err := reg.Eval(l, sub)
			if err != nil || !pass {
				okAll = false
				break
			}
			sub = ns
		}
		if !okAll {
			continue
		}
		// Group args and aggregate values.
		var gargs []ast.Term
		bad := false
		for i, a := range r.Head.Args {
			if r.HeadAggs[i] != nil {
				continue
			}
			v, err := reg.EvalTerm(a, sub)
			if err != nil || !v.Ground() {
				bad = true
				break
			}
			gargs = append(gargs, v)
		}
		if bad {
			continue
		}
		grp, err := s.groups.Get(gargs, func() ([]*agg.State, error) {
			var states []*agg.State
			for _, ha := range r.HeadAggs {
				if ha == nil {
					continue
				}
				st, err := agg.New(ha.Func)
				if err != nil {
					return nil, err
				}
				states = append(states, st)
			}
			return states, nil
		})
		if err != nil {
			continue
		}
		si := 0
		for i, ha := range r.HeadAggs {
			if ha == nil {
				continue
			}
			_ = i
			v, err := reg.EvalTerm(ast.Var(ha.Var), sub)
			if err != nil || !v.Ground() {
				break
			}
			if err := grp.States[si].Add(v); err != nil {
				break
			}
			si++
		}
	}
}

var _ = builtin.ErrNotGround // keep import stable across refactors
