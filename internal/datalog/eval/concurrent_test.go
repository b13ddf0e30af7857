package eval

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/datalog/ast"
)

// Goroutines that share one database probe it with MatchRead under a
// read lock and, when it finds the index missing, with Match under the
// write lock, as a serving session's misses probe its published view. Every
// goal shape starts without its index, so the first probes of each
// build it while the other goroutines probe; a writer, holding the
// write lock, now and then deletes and re-inserts more than half of
// the tuples, which compacts the table and drops its indexes, so they
// are built again under load. The set is the same at the end of every
// critical section, so every answer must equal a single-threaded Match
// of a copy. Run under -race (make race).
func TestConcurrentMatchRead(t *testing.T) {
	const n, readers, rounds = 400, 3, 300
	db := NewDatabase()
	for i := 0; i < n; i++ {
		db.Insert(NewTuple("e", ast.Int64(int64(i%20)), ast.Int64(int64(i))))
	}
	var goals []ast.Literal
	for i := 0; i < 40; i++ {
		k, v := ast.Int64(int64(i%20)), ast.Int64(int64(i*7))
		x, y := ast.Var("X"), ast.Var("Y")
		goals = append(goals,
			ast.Literal{Predicate: "e", Args: []ast.Term{k, x}},
			ast.Literal{Predicate: "e", Args: []ast.Term{x, v}},
			ast.Literal{Predicate: "e", Args: []ast.Term{k, v}},
			ast.Literal{Predicate: "e", Args: []ast.Term{x, y}})
	}
	ref := NewDatabase()
	for _, tup := range db.Tuples("e/2") {
		ref.Insert(tup)
	}
	want := make([]string, len(goals))
	for i, g := range goals {
		want[i] = fmt.Sprint(ref.Match(g))
	}

	var mu sync.RWMutex
	var wg sync.WaitGroup
	builds := make([]int, readers)
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < rounds; j++ {
				i := (j*readers + r) % len(goals)
				mu.RLock()
				out, ok := db.MatchRead(goals[i])
				mu.RUnlock()
				if !ok {
					mu.Lock()
					out = db.Match(goals[i])
					mu.Unlock()
					builds[r]++
				}
				if got := fmt.Sprint(out); got != want[i] {
					t.Errorf("probe of %v = %s, want %s", goals[i], got, want[i])
					return
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for j := 0; j < 10; j++ {
			mu.Lock()
			var block []Tuple
			for i := j * 250; i < (j+1)*250; i++ {
				tu := NewTuple("e", ast.Int64(int64(i%n%20)), ast.Int64(int64(i%n)))
				if !db.Delete(tu) {
					t.Errorf("delete %v: absent", tu)
				}
				block = append(block, tu)
			}
			for _, tu := range block {
				db.Insert(tu)
			}
			mu.Unlock()
		}
	}()
	wg.Wait()
	if total := builds[0] + builds[1] + builds[2]; total < 3 {
		t.Errorf("%d index builds, want at least one per ground shape", total)
	}
	for i, g := range goals {
		if got := fmt.Sprint(db.Match(g)); got != want[i] {
			t.Errorf("Match(%v) after the run = %s, want %s", g, got, want[i])
		}
	}
	if fmt.Sprint(db.Tuples("e/2")) != fmt.Sprint(ref.Tuples("e/2")) {
		t.Error("the set changed")
	}
}
