package core

import (
	"fmt"
	"slices"
	"strings"

	"repro/internal/agg"
	"repro/internal/datalog/ast"
	"repro/internal/datalog/builtin"
	"repro/internal/datalog/eval"
	"repro/internal/datalog/unify"
	"repro/internal/nsim"
)

// TAG-style in-network aggregation (Section IV-C points at TAG [32] for
// evaluating aggregates). An aggregate rule such as
//
//	short(X, min<D>) :- path(X, D), D < 100.
//
// is compiled like every rule (compileRules) but joins nothing and
// triggers nothing; instead the sink triggers an epoch: a tree-building
// flood establishes parents and depths, every node folds the tuples it
// *owns* (tuples whose generation stamp names it — exactly one owner per
// tuple network-wide) into per-group partial states on the rule's
// compiled registers, and partials merge hop-by-hop up the tree in
// depth-staggered slots. The sink extracts the final groups.

// Message kinds for aggregation epochs.
const (
	kindAggBuild   = "aggb"
	kindAggPartial = "aggp"
	timerAggSend   = "aggsend"
	timerAggFinal  = "aggfinal"
)

type aggBuildMsg struct {
	Epoch string
	Pred  *pred // head predicate of the aggregate rule
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
	pred   *pred
	parent nsim.NodeID
	isSink bool
	groups *agg.Groups // merged children + local (built at send time)
	sent   bool
}

// CollectAggregateAt schedules a TAG collection epoch for the aggregate
// head predicate at the given sink and virtual time. The result is
// available from AggregateResult after the network runs past the epoch.
func (e *Engine) CollectAggregateAt(at nsim.Time, headPred string, sink nsim.NodeID) error {
	p := e.preds[headPred]
	if p == nil || p.agg == nil {
		return fmt.Errorf("core: no aggregate rule for %s", headPred)
	}
	e.nw.ScheduleAt(at, func() {
		e.rts[sink].startAggEpoch(p)
	})
	return nil
}

// AggregateResult returns the tuples produced by the last completed
// collection epoch for the aggregate predicate, in canonical order.
func (e *Engine) AggregateResult(headPred string) []eval.Tuple {
	if p := e.preds[headPred]; p != nil {
		return p.aggResult
	}
	return nil
}

// aggSlot is the per-depth time slot of the collection schedule.
func (e *Engine) aggSlot() nsim.Time {
	return 4 * nsim.MaxDelay
}

// startAggEpoch begins an epoch at the sink node. The schedule leaves one
// slot per level of the deepest tree the network allows (Engine.diamHops).
func (rt *nodeRT) startAggEpoch(p *pred) {
	rt.e.aggEpoch++
	epoch := fmt.Sprintf("%s#%d", p.key, rt.e.aggEpoch)
	s := &aggSession{pred: p, parent: rt.node.ID, isSink: true, groups: agg.NewGroups()}
	rt.aggSessions[epoch] = s
	rt.broadcast(&aggBuildMsg{Epoch: epoch, Pred: p, Depth: 0}, nil)
	rt.node.SetTimer(rt.e.aggSlot()*(rt.e.diamHops+2), timerAggFinal, epoch)
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
	slot := max(int(rt.e.diamHops)-depth, 0)
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

// aggFinal completes the epoch at the sink: each group whose aggregates
// all have a value becomes a head tuple, in canonical tuple-key order.
func (rt *nodeRT) aggFinal(epoch string) {
	s, ok := rt.aggSessions[epoch]
	if !ok || !s.isSink {
		return
	}
	rt.localAggContribution(s)
	head := s.pred.agg.rule.HeadAggs
	out := make([]eval.Tuple, 0, len(s.groups.ByKey))
groups:
	for _, grp := range s.groups.ByKey {
		args := make([]ast.Term, len(head))
		gi, si := 0, 0
		for i, ha := range head {
			if ha == nil {
				args[i] = grp.Args[gi]
				gi++
				continue
			}
			v, err := grp.States[si].Value()
			if err != nil {
				continue groups
			}
			args[i] = v
			si++
		}
		out = append(out, eval.Tuple{Pred: s.pred.key, Args: args}.Keyed())
	}
	slices.SortFunc(out, func(a, b eval.Tuple) int { return strings.Compare(a.Key(), b.Key()) })
	s.pred.aggResult = out
	delete(rt.aggSessions, epoch)
}

// localAggContribution folds the tuples this node OWNS (generation stamp
// names it) into the session's groups — ownership is unique network-wide,
// so replicated storage never double-counts. Each tuple is matched and
// filtered on the aggregate rule's compiled registers, as a join's
// update is.
func (rt *nodeRT) localAggContribution(s *aggSession) {
	cr := s.pred.agg
	rel := cr.posIdx[0]
	for _, entry := range rt.live(cr.lits[rel].pred.key) {
		if entry.ID.Node != int(rt.node.ID) {
			continue // replica owned elsewhere
		}
		b := rt.scratch(cr, unify.Slots{})
		if !b.MatchArgs(cr.rule.Body[rel].Args, entry.Args) {
			continue
		}
		if done, ok := rt.runBuiltins(cr, &b, 0); ok && done == cr.opMask {
			aggFold(s.groups, cr.rule, b)
		}
	}
}

// aggFold adds one body solution b of aggregate rule r to its group: the
// non-aggregate head arguments name the group, and each aggregate absorbs
// its variable's value.
func aggFold(groups *agg.Groups, r *ast.Rule, b unify.Slots) {
	var gargs []ast.Term
	for i, a := range r.Head.Args {
		if r.HeadAggs[i] != nil {
			continue
		}
		v, err := builtin.Standard.EvalSlots(a, b)
		if err != nil || !v.Ground() {
			return
		}
		gargs = append(gargs, v)
	}
	grp, err := groups.Get(gargs, r.HeadAggs)
	if err != nil {
		return
	}
	si := 0
	for i, ha := range r.HeadAggs {
		if ha == nil {
			continue
		}
		// The parser puts the aggregated variable at the aggregate's head
		// position, numbered like every other.
		v, err := builtin.Standard.EvalSlots(r.Head.Args[i], b)
		if err != nil || !v.Ground() || grp.States[si].Add(v) != nil {
			return
		}
		si++
	}
}
