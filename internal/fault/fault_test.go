package fault

import (
	"bytes"
	"testing"

	"repro/internal/core"
	"repro/internal/datalog/ast"
	"repro/internal/datalog/eval"
	"repro/internal/datalog/parser"
	"repro/internal/gpa"
	"repro/internal/nsim"
	"repro/internal/obs"
	"repro/internal/topo"
)

const joinSrc = `
.base ra/2.
.base rb/2.
out(X, Z) :- ra(X, Y), rb(Y, Z).
`

// runTraced executes a fixed small workload on a 5x5 grid, optionally
// under a fault schedule, and returns the trace plus the injector (nil
// when sched is nil — the baseline, never-attached run).
func runTraced(t *testing.T, sched *Schedule, faultSeed int64) (*obs.Trace, *Injector) {
	t.Helper()
	prog, err := parser.Parse(joinSrc)
	if err != nil {
		t.Fatal(err)
	}
	nw := topo.Grid(5, nsim.Config{Seed: 42, MaxSkew: 3})
	tr := obs.NewTrace(1 << 15)
	e, err := core.Deploy(nw, prog, core.Config{Scheme: gpa.Perpendicular}, nil, tr, false)
	if err != nil {
		t.Fatal(err)
	}
	var in *Injector
	if sched != nil {
		in = Attach(nw, sched, faultSeed)
	}
	for i := 0; i < 6; i++ {
		e.InjectAt(nsim.Time(i*150), nsim.NodeID((i*7)%nw.Len()),
			eval.NewTuple("ra", ast.Int64(int64(i)), ast.Int64(int64(i))))
		e.InjectAt(nsim.Time(i*150+40), nsim.NodeID((i*11+3)%nw.Len()),
			eval.NewTuple("rb", ast.Int64(int64(i)), ast.Int64(int64(i+1))))
	}
	nw.Run(0)
	return tr, in
}

// jsonl serializes a trace.
func jsonl(t *testing.T, tr *obs.Trace) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := tr.WriteJSONL(&buf, obs.Filter{}); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// An attached-but-empty schedule must be a byte-identical no-op: the
// injector draws nothing from any randomness stream and blocks
// nothing, so the trace equals the never-attached baseline's.
func TestEmptyScheduleIsByteIdenticalNoOp(t *testing.T) {
	baseTrace, _ := runTraced(t, nil, 0)
	attachedTrace, in := runTraced(t, NewSchedule(), 7)
	baseline, attached := jsonl(t, baseTrace), jsonl(t, attachedTrace)
	if !bytes.Equal(baseline, attached) {
		t.Fatalf("empty schedule perturbed the run: baseline %d bytes, attached %d bytes",
			len(baseline), len(attached))
	}
	if in.Counts != (Counts{}) {
		t.Fatalf("empty schedule counted faults: %+v", in.Counts)
	}
}

func churnSchedule() *Schedule {
	return NewSchedule().
		CrashWindow(200, 500, 3, 17).
		LinkDown(150, 650, 6, 7).
		Partition(300, 600, 0, 1, 2, 5, 10).
		Duplicate(100, 700, 0.3).
		Reorder(100, 700, 0.3, 4)
}

// The same (schedule, seed) pair must replay byte-identically.
func TestScheduleSeedReplaysByteIdentically(t *testing.T) {
	trA, _ := runTraced(t, churnSchedule(), 99)
	trB, _ := runTraced(t, churnSchedule(), 99)
	a, b := jsonl(t, trA), jsonl(t, trB)
	if !bytes.Equal(a, b) {
		t.Fatalf("same (schedule, seed) produced different traces: %d vs %d bytes", len(a), len(b))
	}
}

// Satellite: every fault event recorded in the trace ring must agree
// with the injector's bookkeeping counts, the same cross-check the
// radio counters get against the trace.
func TestTraceEventsMatchCounts(t *testing.T) {
	_, in := runTraced(t, churnSchedule(), 99)
	tr, in2 := runTraced(t, churnSchedule(), 99)
	if in2.Counts != in.Counts {
		t.Fatalf("counts differ across identical runs: %+v vs %+v", in2.Counts, in.Counts)
	}
	kinds := tr.TotalKinds()
	pairs := []struct {
		kind obs.EventKind
		n    int64
	}{
		{obs.EvCrash, in2.Counts.Crashes},
		{obs.EvRecover, in2.Counts.Recovers},
		{obs.EvLinkDown, in2.Counts.LinkDowns},
		{obs.EvLinkUp, in2.Counts.LinkUps},
		{obs.EvDup, in2.Counts.Duplicated},
		{obs.EvReorder, in2.Counts.Reordered},
	}
	for _, p := range pairs {
		if kinds[p.kind] != p.n {
			t.Errorf("%s: trace has %d events, injector counted %d", p.kind, kinds[p.kind], p.n)
		}
	}
	if in2.Counts.Crashes == 0 || in2.Counts.Blocked == 0 || in2.Counts.Duplicated == 0 || in2.Counts.Reordered == 0 {
		t.Errorf("schedule failed to exercise some fault paths: %+v", in2.Counts)
	}
}

// Transition-only counting: overlapping crash windows on the same node
// count one crash and one recover, and End reports the last heal time.
func TestTransitionCountingAndEnd(t *testing.T) {
	s := NewSchedule().CrashWindow(100, 400, 5).CrashWindow(200, 300, 5)
	if got, want := s.End(), nsim.Time(400); got != want {
		t.Fatalf("End = %d, want %d", got, want)
	}
	if s.Empty() {
		t.Fatal("schedule with crash windows reported Empty")
	}
	if !NewSchedule().Empty() {
		t.Fatal("fresh schedule not Empty")
	}
	nw := topo.Grid(3, nsim.Config{Seed: 1})
	nw.Finalize()
	in := Attach(nw, s, 0)
	nw.Run(500)
	if in.Counts.Crashes != 1 || in.Counts.Recovers != 1 {
		t.Fatalf("overlapping windows: crashes=%d recovers=%d, want 1/1", in.Counts.Crashes, in.Counts.Recovers)
	}
	if nw.Node(5).Down {
		t.Fatal("node 5 still down after the schedule healed")
	}
}
