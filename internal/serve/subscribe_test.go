package serve

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	snlog "repro"
	"repro/internal/datalog/ast"
	"repro/internal/datalog/eval"
	"repro/internal/mallocs"
	"repro/internal/nsim"
)

// subSrc has a .query predicate and one no .query names; a serving
// session logs both.
const subSrc = `
.base link/2.
.base down/1.
reach(X, Y) :- link(X, Y).
reach(X, Z) :- reach(X, Y), link(Y, Z).
alive(X, Y) :- link(X, Y), NOT down(X).
.query reach/2.
`

// follower is a subscriber's copy of its predicate, kept by applying
// the updates it was sent.
type follower struct {
	sub  *Subscription
	have map[string]bool
}

// catchUp applies every update the subscription holds and checks the
// copy against the derived view: an insert must add a tuple the copy
// lacks, a removal must drop one it has, and the copy must end equal to
// Results of the predicate.
func (f *follower) catchUp(t *testing.T, s *Session, when string) {
	t.Helper()
	for drained := false; !drained; {
		select {
		case u := <-f.sub.C():
			k := u.Tuple.Key()
			if f.have[k] == u.Insert {
				t.Fatalf("%s: update %+v, and the copy already says %v", when, u, f.have[k])
			}
			if u.Insert {
				f.have[k] = true
			} else {
				delete(f.have, k)
			}
		default:
			drained = true
		}
	}
	var want []string
	for _, tup := range s.Cluster().Results(f.sub.Pred()) {
		want = append(want, tup.Key())
	}
	got := make([]string, 0, len(f.have))
	for k := range f.have {
		got = append(got, k)
	}
	slices.Sort(got)
	if !slices.Equal(got, want) {
		t.Fatalf("%s, %s: the subscriber's copy is %v, Results %v", when, f.sub.Pred(), got, want)
	}
}

// setDown crashes (down) or recovers a node between syncs, while the
// deployment is quiescent.
func setDown(s *Session, node int, down bool) {
	s.runMu.Lock()
	defer s.runMu.Unlock()
	s.c.Engine.Network().Node(nsim.NodeID(node)).Down = down
}

// TestSubscriptionFollowsResults drives random writes, syncs and
// Session.Replay calls through a deployment whose links duplicate 30 %
// of deliveries and two of whose nodes are down for a stretch of the
// schedule: after every sync, a subscriber that applies the sync's
// updates to its copy holds exactly Results of its predicate, for a
// .query predicate and for one no .query names. Links only
// go from a lower to a higher name: on a cyclic link graph Replay does
// not quiesce (CHANGES.md).
func TestSubscriptionFollowsResults(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			sched := snlog.NewFaultSchedule().Duplicate(0, 1_000_000, 0.3)
			s := openSession(t, subSrc, Options{BatchSize: 4, BatchDelay: -1, Deploy: []snlog.Option{
				snlog.WithSeed(seed), snlog.WithFaults(sched, seed),
			}})
			ctx := context.Background()
			var followers []*follower
			for _, pred := range []string{"reach/2", "alive/2"} {
				sub, err := s.Subscribe(pred)
				if err != nil {
					t.Fatal(err)
				}
				defer sub.Close()
				followers = append(followers, &follower{sub: sub, have: map[string]bool{}})
			}
			type write struct {
				node int
				tup  eval.Tuple
			}
			var written []write
			sym := func(i int) ast.Term { return ast.Symbol(fmt.Sprintf("v%d", i)) }
			crashed := []int{rng.Intn(9), rng.Intn(9)}
			replays := 0
			for i := 0; i < 100; i++ {
				down := i >= 20 && i < 50
				if i == 20 || i == 50 {
					for _, n := range crashed {
						setDown(s, n, down)
					}
				}
				at := int64(10_000 * (i + 1))
				var err error
				switch r := rng.Intn(12); {
				case r < 5:
					a := rng.Intn(5)
					w := write{rng.Intn(9), eval.NewTuple("link", sym(a), sym(a+1+rng.Intn(5-a)))}
					err = s.InjectAt(at, w.node, w.tup)
					written = append(written, w)
				case r < 6:
					w := write{rng.Intn(9), eval.NewTuple("down", sym(rng.Intn(6)))}
					err = s.InjectAt(at, w.node, w.tup)
					written = append(written, w)
				case r < 8 && len(written) > 0:
					w := written[rng.Intn(len(written))]
					err = s.DeleteAt(at, w.node, w.tup)
				case r < 11 || down: // Replay wants every node up
					_, err = s.Sync(ctx)
				default:
					err = s.Replay()
					replays++
				}
				if err != nil {
					t.Fatalf("op %d: %v", i, err)
				}
				for _, f := range followers {
					f.catchUp(t, s, fmt.Sprintf("op %d", i))
				}
			}
			if replays == 0 {
				t.Fatal("the schedule never replayed")
			}
			if n := s.Snapshot().Get("serve.subs.dropped"); n != 0 {
				t.Fatalf("%d updates dropped; the copies were checked against a lossy stream", n)
			}
		})
	}
}

// A fault can home one derived tuple at two nodes: reach(a, c) settles
// at its home, the home crashes, and a second derivation of it settles
// at the live node nearest the home point. The view holds the tuple
// once, and so the subscriber is sent one insert, not two.
func TestTwoHomesOneInsert(t *testing.T) {
	s := openSession(t, reachSrc, Options{BatchDelay: -1})
	sub, err := s.Subscribe("reach/2")
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	f := &follower{sub: sub, have: map[string]bool{}}
	ctx := context.Background()
	ac := eval.NewTuple("reach", ast.Symbol("a"), ast.Symbol("c"))
	if err := s.Inject(0, link("a", "c")); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Sync(ctx); err != nil {
		t.Fatal(err)
	}
	f.catchUp(t, s, "first derivation")
	home := settlers(t, s, ac)[0]
	setDown(s, home, true)
	from := (home + 1) % 9
	for _, l := range []eval.Tuple{link("a", "b"), link("b", "c")} {
		if err := s.Inject(from, l); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.Sync(ctx); err != nil {
		t.Fatal(err)
	}
	if at := settlers(t, s, ac); len(at) != 2 || at[0] == at[1] {
		t.Fatalf("reach(a, c) settled at %v; the test needs two homes", at)
	}
	f.catchUp(t, s, "second derivation") // a second insert of reach(a, c) fails here
}

// settlers returns the nodes where the derivations of tup settled.
func settlers(t *testing.T, s *Session, tup eval.Tuple) []int {
	t.Helper()
	tree, err := s.Explain(context.Background(), tup.String())
	if err != nil {
		t.Fatal(err)
	}
	var at []int
	for _, d := range tree.Derivs {
		at = append(at, int(d.Settler))
	}
	return at
}

// A sync that changes one tuple costs its subscriber what the change
// costs, whatever the size of the predicate it watches: with eight
// times the chains, and so eight times the reach/2 tuples, the one-tuple
// sync allocates at most half as many bytes again. (The first sync after
// the chains are in costs the engine a one-off amount that grows with
// them, so one one-tuple sync goes before the measured one.)
func TestSyncCostIsTheChange(t *testing.T) {
	syncBytes := func(chains int) uint64 {
		s := openSession(t, reachSrc, Options{BatchDelay: -1, NoProvenance: true})
		ctx := context.Background()
		for c := 0; c < chains; c++ {
			for i := 0; i < 16; i++ {
				if err := s.Inject((c+i)%9, eval.NewTuple("link", ast.Symbol(chainSym(c, i)), ast.Symbol(chainSym(c, i+1)))); err != nil {
					t.Fatal(err)
				}
			}
		}
		sub, err := s.Subscribe("reach/2")
		if err != nil {
			t.Fatal(err)
		}
		defer sub.Close()
		var n uint64
		for _, l := range []eval.Tuple{link("p", "q"), link("x", "y")} {
			if err := s.Inject(4, l); err != nil {
				t.Fatal(err)
			}
			n = mallocs.Bytes(func() {
				if _, err := s.Sync(ctx); err != nil {
					t.Fatal(err)
				}
			})
			if u := <-sub.C(); !u.Insert || u.Tuple.Key() != eval.NewTuple("reach", l.Args...).Key() {
				t.Fatalf("update %+v; want the insert of reach%v", u, l.Args)
			}
		}
		return n
	}
	small, large := syncBytes(2), syncBytes(16)
	t.Logf("one-tuple sync: %d B over 2 chains, %d B over 16", small, large)
	if large*2 > small*3 {
		t.Errorf("one-tuple sync allocates %d B over 16 chains, %d B over 2; want at most 1.5x", large, small)
	}
}
