package snlog

import (
	"fmt"
	"reflect"
)

// ExampleWithFaults runs the README's robustness snippet: a crash, a
// partition and duplicated deliveries over a join, with a deletion
// inside the partition window. Replay re-executes the base timeline,
// read off each node's own replicas, once the schedule has healed, and the derived set is then
// the centralized evaluator's over the surviving base facts.
func ExampleWithFaults() {
	const src = `
.base ra/2.
.base rb/2.
out(X, Z) :- ra(X, Y), rb(Y, Z).
.query out/2.
`
	sched := NewFaultSchedule().
		CrashWindow(200, 500, 12).    // node 12 down for [200, 500)
		Partition(300, 600, 0, 1, 2). // nodes {0,1,2} cut off
		Duplicate(100, 700, 0.2)      // 20% of deliveries doubled
	cluster, err := Deploy(Grid(6), src, WithFaults(sched, 99))
	if err != nil {
		fmt.Println(err)
		return
	}
	var base []Tuple
	for i := 0; i < 12; i++ {
		t := NewTuple("ra", Int(int64(i%4)), Int(int64(i%3)))
		if i%2 == 1 {
			t = NewTuple("rb", Int(int64(i%3)), Int(int64(i)))
		}
		cluster.InjectAt(int64(50+50*i), (7*i)%36, t)
		base = append(base, t)
	}
	// ra(0, 0) was injected at node 0; delete it there while {0,1,2}
	// are cut off, so its retraction cannot leave the partition.
	cluster.DeleteAt(350, 0, NewTuple("ra", Int(0), Int(0)))
	base = without(base, NewTuple("ra", Int(0), Int(0)))

	cluster.Run()
	fmt.Println("before replay:", len(cluster.Results("out/2")))
	cluster.Replay()
	cluster.Run()
	fmt.Println("after replay:", len(cluster.Results("out/2")))
	fmt.Printf("%+v\n", cluster.FaultCounts())

	oracle, err := Eval(src, base)
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Println("equals Eval:", reflect.DeepEqual(cluster.Results("out/2"), oracle.Tuples("out/2")))
	// Output:
	// before replay: 12
	// after replay: 10
	// {Crashes:1 Recovers:1 LinkDowns:1 LinkUps:1 Blocked:5 Duplicated:23 Reordered:0}
	// equals Eval: true
}

// without returns ts without the tuples equal to d.
func without(ts []Tuple, d Tuple) []Tuple {
	out := ts[:0]
	for _, t := range ts {
		if t.Key() != d.Key() {
			out = append(out, t)
		}
	}
	return out
}
