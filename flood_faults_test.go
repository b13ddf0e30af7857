package snlog

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"testing"
)

// The storage configurations whose replicas or join partials travel by
// flood, with Centralized (walkers only) as the control: every way a
// node can be handed the same replica or join frame twice.
const floodJoinSrc = `
.base ra/2.
.base rb/2.
out(X, Z) :- ra(X, Y), rb(Y, Z).
.query out/2.
`

// floodPlacedSrc floods every reading two hops from its home node and
// pairs the nodes within reach that read the same value.
const floodPlacedSrc = `
.base r/2.
.store r/2 at 0 hops 2.
.store pair/2 at 0.
pair(X, Y) :- r(X, V), r(Y, V), X != Y.
.query pair/2.
`

var floodConfigs = []struct {
	name   string
	topo   Topology
	src    string
	scheme Scheme
}{
	{"naive", Grid(6), floodJoinSrc, NaiveBroadcast},
	{"local", Grid(6), floodJoinSrc, LocalStorage},
	{"centroid", Grid(6), floodJoinSrc, Centroid},
	{"centralized", Grid(6), floodJoinSrc, Centralized},
	{"band", Random(40, 6, 1.6), floodJoinSrc, Perpendicular},
	{"hops2", Grid(6), floodPlacedSrc, Perpendicular},
}

// runFloodsUnderFaults runs one configuration under a schedule that
// duplicates 30 % of deliveries and delays 40 % by up to 40 ticks, with
// every third insertion deleted 3 ticks after it, so deletions overtake
// their insertions; then, the schedule healed, it replays the base
// timeline, which floods everything again into wiped stores. It returns the run's fingerprint: end times, messages, bytes and result
// sizes of both phases, and an FNV-1a digest of the whole trace.
func runFloodsUnderFaults(t *testing.T, ci int, seed int64) string {
	cfg := floodConfigs[ci]
	sched := NewFaultSchedule().Duplicate(0, 400, 0.3).Reorder(0, 400, 0.4, 40)
	c, err := Deploy(cfg.topo, cfg.src, WithScheme(cfg.scheme), WithSeed(seed),
		WithFaults(sched, seed), WithReplayLog(), WithTrace(1<<18))
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(seed))
	for i := 0; i < 24; i++ {
		at, node := int64(10+7*i), r.Intn(c.Size())
		var tup Tuple
		switch {
		case cfg.src == floodPlacedSrc:
			tup = NewTuple("r", Sym(fmt.Sprintf("n%d", node)), Int(int64(r.Intn(3))))
		case i%2 == 0:
			tup = NewTuple("ra", Int(int64(r.Intn(6))), Int(int64(r.Intn(3))))
		default:
			tup = NewTuple("rb", Int(int64(r.Intn(3))), Int(int64(r.Intn(6))))
		}
		if err := c.InjectAt(at, node, tup); err != nil {
			t.Fatal(err)
		}
		if i%3 == 2 {
			if err := c.DeleteAt(at+3, node, tup); err != nil {
				t.Fatal(err)
			}
		}
	}
	pred := "out/2"
	if cfg.src == floodPlacedSrc {
		pred = "pair/2"
	}
	end := c.Run()
	st := c.Stats()
	out := fmt.Sprintf("end=%d msgs=%d bytes=%d %s=%d", end, st.Messages, st.Bytes, pred, len(c.Results(pred)))
	if err := c.Replay(); err != nil {
		t.Fatal(err)
	}
	end = c.Run()
	st = c.Stats()
	out += fmt.Sprintf(" | replay end=%d msgs=%d bytes=%d %s=%d", end, st.Messages, st.Bytes, pred, len(c.Results(pred)))

	tr := c.Trace()
	if tr.Dropped() != 0 {
		t.Fatalf("%s seed %d: the trace ring dropped %d events; the digest would cover a tail", cfg.name, seed, tr.Dropped())
	}
	h := fnv.New64a()
	for _, ev := range tr.Events() {
		fmt.Fprintf(h, "%d %d %d %d %s %d\n", ev.At, ev.Node, ev.Peer, ev.Kind, ev.Pred, ev.Size)
	}
	return out + fmt.Sprintf(" events=%d trace=%#x", tr.Len(), h.Sum64())
}

// TestFloodsUnderFaultsGolden pins flooded storage and joins under
// duplication and reordering: a node must forward a flood frame the
// first time it sees it and never again, and a deletion that arrives
// before its insertion must still win. The fingerprints were recorded
// while every node still kept a separate set of the flood frames it had
// seen beside its replica store; the store alone must reproduce them.
// The local rows were re-recorded when a join flood's source began to
// mark its own flood as seen: until then the first copy to come back made
// the source join the update again and flood it a second time.
func TestFloodsUnderFaultsGolden(t *testing.T) {
	want := map[string]string{
		"naive/1":       "end=638 msgs=4577 bytes=100674 out/2=14 | replay end=1102 msgs=8771 bytes=186658 out/2=11 events=22386 trace=0xc8cd4cff052ce807",
		"naive/2":       "end=638 msgs=4807 bytes=109573 out/2=16 | replay end=1102 msgs=9041 bytes=197115 out/2=14 events=23241 trace=0xaf460464096b5249",
		"naive/3":       "end=628 msgs=4791 bytes=106189 out/2=15 | replay end=1092 msgs=9124 bytes=195205 out/2=12 events=23318 trace=0xf68cc7dbc819c57",
		"local/1":       "end=638 msgs=4776 bytes=198089 out/2=17 | replay end=1102 msgs=8998 bytes=374911 out/2=11 events=23125 trace=0xed9ef2bcf660f949",
		"local/2":       "end=638 msgs=4727 bytes=196086 out/2=17 | replay end=1102 msgs=8928 bytes=372106 out/2=14 events=22954 trace=0x7af86096a33b6dbf",
		"local/3":       "end=628 msgs=4947 bytes=204510 out/2=16 | replay end=1092 msgs=9325 bytes=387624 out/2=12 events=23865 trace=0xc3749c9209e2a5b7",
		"centroid/1":    "end=638 msgs=2823 bytes=101870 out/2=18 | replay end=1102 msgs=3790 bytes=139911 out/2=11 events=10672 trace=0xede6eb6205d5bd0b",
		"centroid/2":    "end=638 msgs=3437 bytes=124680 out/2=23 | replay end=1102 msgs=4466 bytes=165199 out/2=14 events=13122 trace=0xe988bbb92fc7ba4e",
		"centroid/3":    "end=628 msgs=3770 bytes=134348 out/2=23 | replay end=1092 msgs=4847 bytes=176248 out/2=12 events=14013 trace=0xb4ce22e2bd45a290",
		"centralized/1": "end=857 msgs=4324 bytes=149072 out/2=21 | replay end=1346 msgs=4691 bytes=159679 out/2=19 events=14898 trace=0x738b0f553ff75875",
		"centralized/2": "end=856 msgs=3847 bytes=134542 out/2=20 | replay end=1348 msgs=4261 bytes=147002 out/2=18 events=13507 trace=0xbe3450e9321a70f1",
		"centralized/3": "end=829 msgs=3994 bytes=137820 out/2=22 | replay end=1314 msgs=4265 bytes=145860 out/2=14 events=13964 trace=0x4144417d71b4552a",
		"band/1":        "end=660 msgs=9296 bytes=289074 out/2=14 | replay end=1156 msgs=17041 bytes=519538 out/2=12 events=44355 trace=0x3ddb68c99c35be1b",
		"band/2":        "end=660 msgs=9013 bytes=300178 out/2=15 | replay end=1156 msgs=15721 bytes=512405 out/2=11 events=41665 trace=0x97e03be21db4cd6b",
		"band/3":        "end=660 msgs=6663 bytes=225579 out/2=16 | replay end=1156 msgs=11756 bytes=390965 out/2=12 events=31024 trace=0xaae1f01a24035db4",
		"hops2/1":       "end=638 msgs=559 bytes=12996 pair/2=22 | replay end=1102 msgs=1087 bytes=24690 pair/2=22 events=2894 trace=0x47c062a67489c2b7",
		"hops2/2":       "end=638 msgs=649 bytes=17137 pair/2=15 | replay end=1102 msgs=1161 bytes=28624 pair/2=14 events=3124 trace=0x7495fc41890fc819",
		"hops2/3":       "end=638 msgs=417 bytes=8715 pair/2=3 | replay end=1102 msgs=834 bytes=17430 pair/2=2 events=2115 trace=0x4eff2c8fdcdcc9d5",
	}
	for ci, cfg := range floodConfigs {
		for seed := int64(1); seed <= 3; seed++ {
			key := fmt.Sprintf("%s/%d", cfg.name, seed)
			got := runFloodsUnderFaults(t, ci, seed)
			if got != want[key] {
				t.Errorf("%s:\n got %s\nwant %s", key, got, want[key])
			}
		}
	}
}
