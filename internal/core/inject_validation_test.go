package core

import (
	"strings"
	"testing"

	"repro/internal/datalog/ast"
	"repro/internal/datalog/eval"
	"repro/internal/gpa"
	"repro/internal/nsim"
)

// The three injection entry points must reject exactly the same bad
// inputs: a deletion API that validated less than Inject would let
// malformed tuples reach the generation path only on the delete side.
// Every case below must fail on all three, with the same complaint.
func TestInjectDeleteValidationParity(t *testing.T) {
	e, _ := buildGrid(t, 4, joinSrc, Config{Scheme: gpa.Perpendicular}, nsim.Config{Seed: 11})

	cases := []struct {
		name string
		node nsim.NodeID
		tup  eval.Tuple
		want string
	}{
		{"node negative", -1, eval.NewTuple("ra", ast.Int64(1), ast.Int64(2)), "out of range"},
		{"node past end", 16, eval.NewTuple("ra", ast.Int64(1), ast.Int64(2)), "out of range"},
		{"non-ground arg", 0, eval.NewTuple("ra", ast.Var("X"), ast.Int64(2)), "not ground"},
		{"derived predicate", 0, eval.NewTuple("out", ast.Int64(1), ast.Int64(2)), "derived predicate"},
		{"unknown predicate", 0, eval.NewTuple("nope", ast.Int64(1)), "not mentioned"},
		{"arity mismatch", 0, eval.NewTuple("ra", ast.Int64(1)), "arity mismatch"},
	}
	type entry struct {
		name string
		call func(nsim.NodeID, eval.Tuple) error
	}
	entries := []entry{
		{"Inject", e.Inject},
		{"InjectAt", func(n nsim.NodeID, tup eval.Tuple) error { return e.InjectAt(50, n, tup) }},
		{"InjectDeleteAt", func(n nsim.NodeID, tup eval.Tuple) error { return e.InjectDeleteAt(50, n, tup) }},
	}
	for _, c := range cases {
		var msgs []string
		for _, en := range entries {
			err := en.call(c.node, c.tup)
			if err == nil {
				t.Errorf("%s: %s accepted invalid input", c.name, en.name)
				continue
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Errorf("%s: %s error %q does not mention %q", c.name, en.name, err, c.want)
			}
			msgs = append(msgs, err.Error())
		}
		for _, m := range msgs[1:] {
			if m != msgs[0] {
				t.Errorf("%s: entry points disagree on the message: %q vs %q", c.name, msgs[0], m)
			}
		}
	}
}

// InjectDeleteAt defers the tuple's existence to fire time (the tuple
// may well be injected between scheduling and firing), so it must
// accept the deletion of a tuple not yet injected.
func TestInjectDeleteUnknownTuple(t *testing.T) {
	e, nw := buildGrid(t, 4, joinSrc, Config{Scheme: gpa.Perpendicular}, nsim.Config{Seed: 12})
	ghost := eval.NewTuple("ra", ast.Int64(7), ast.Int64(7))
	if err := e.InjectDeleteAt(500, 0, ghost); err != nil {
		t.Fatalf("InjectDeleteAt must defer existence to fire time, got %v", err)
	}
	if err := e.InjectAt(100, 0, ghost); err != nil {
		t.Fatal(err)
	}
	nw.Run(0)
	// The deferred deletion found the by-then-existing tuple and removed it.
	if n := len(e.Derived("out/2")); n != 0 {
		t.Fatalf("expected empty derived set after deferred delete, got %d tuples", n)
	}
}
