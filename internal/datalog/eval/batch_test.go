package eval

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/datalog/ast"
	"repro/internal/datalog/parser"
)

const batchTestSrc = `
.base p/2.
.base q/2.
.base s/1.
r(X, Z) :- p(X, Y), q(Y, Z).
blocked(X) :- s(X).
h(X, Z) :- r(X, Z), NOT blocked(X).
`

func batchProg(t *testing.T) *ast.Program {
	t.Helper()
	p, err := parser.Parse(batchTestSrc)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// dbSnapshot renders a database as a sorted key list for comparison.
func dbSnapshot(db *Database) []string {
	var keys []string
	for _, pred := range db.Predicates() {
		for _, t := range db.Tuples(pred) {
			keys = append(keys, t.Key())
		}
	}
	sort.Strings(keys)
	return keys
}

// batchWorkload builds a deterministic mixed workload hitting joins,
// self-batch joins (both sides of r in one batch), and negation.
func batchWorkload(seed int64, n int) []Tuple {
	r := rand.New(rand.NewSource(seed))
	ts := make([]Tuple, 0, n)
	for i := 0; i < n; i++ {
		k := int64(r.Intn(n / 2))
		switch r.Intn(4) {
		case 0:
			ts = append(ts, NewTuple("p", ast.Int64(int64(i)), ast.Int64(k)))
		case 1:
			ts = append(ts, NewTuple("q", ast.Int64(k), ast.Int64(int64(i))))
		case 2:
			ts = append(ts, NewTuple("s", ast.Int64(int64(i))))
		default:
			// Duplicate pressure: re-insert an earlier tuple.
			if len(ts) > 0 {
				ts = append(ts, ts[r.Intn(len(ts))])
			}
		}
	}
	return ts
}

// TestInsertBatchEquivalence: InsertBatch must reach the same database
// and derivation sets as a sequential Insert fold, for every batch
// split of the same workload.
func TestInsertBatchEquivalence(t *testing.T) {
	for _, seed := range []int64{3, 7, 11, 19} {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			work := batchWorkload(seed, 60)

			seq, err := NewMaintainer(batchProg(t), SetOfDerivations, Options{})
			if err != nil {
				t.Fatal(err)
			}
			for _, tup := range work {
				if _, err := seq.Insert(tup); err != nil {
					t.Fatal(err)
				}
			}

			for _, split := range []int{1, 7, len(work)} {
				bat, err := NewMaintainer(batchProg(t), SetOfDerivations, Options{})
				if err != nil {
					t.Fatal(err)
				}
				for at := 0; at < len(work); at += split {
					end := at + split
					if end > len(work) {
						end = len(work)
					}
					if _, err := bat.InsertBatch(work[at:end]); err != nil {
						t.Fatal(err)
					}
				}
				if got, want := dbSnapshot(bat.DB()), dbSnapshot(seq.DB()); !reflect.DeepEqual(got, want) {
					t.Fatalf("split %d: database diverged\n got: %v\nwant: %v", split, got, want)
				}
				if got, want := bat.Stats().DerivationsHeld, seq.Stats().DerivationsHeld; got != want {
					t.Fatalf("split %d: derivations held %d, want %d", split, got, want)
				}
			}
		})
	}
}

// TestInsertBatchThenDeleteAll: deleting every batch-inserted base tuple,
// one Delete at a time, must drain the derived state.
func TestInsertBatchThenDeleteAll(t *testing.T) {
	work := batchWorkload(5, 40)

	bat, err := NewMaintainer(batchProg(t), SetOfDerivations, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := bat.InsertBatch(work); err != nil {
		t.Fatal(err)
	}
	for _, tup := range work {
		if _, err := bat.Delete(tup); err != nil {
			t.Fatal(err)
		}
	}
	if got := dbSnapshot(bat.DB()); len(got) != 0 {
		t.Fatalf("database not empty after deleting every base tuple: %v", got)
	}
	if got := bat.Stats().DerivationsHeld; got != 0 {
		t.Fatalf("%d derivations survive full deletion", got)
	}
}

// TestInsertBatchCountingFallback: non-SetOfDerivations modes must take
// the sequential fallback and still match a plain fold.
func TestInsertBatchCountingFallback(t *testing.T) {
	work := batchWorkload(13, 40)
	seq, err := NewMaintainer(batchProg(t), Counting, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, tup := range work {
		if _, err := seq.Insert(tup); err != nil {
			t.Fatal(err)
		}
	}
	bat, err := NewMaintainer(batchProg(t), Counting, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := bat.InsertBatch(work); err != nil {
		t.Fatal(err)
	}
	if got, want := dbSnapshot(bat.DB()), dbSnapshot(seq.DB()); !reflect.DeepEqual(got, want) {
		t.Fatalf("counting fallback diverged\n got: %v\nwant: %v", got, want)
	}
}
