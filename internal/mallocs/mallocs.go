// Package mallocs measures allocation gates for the repository's tests:
// the exact number of heap objects a piece of code allocates. Only test
// files import it.
package mallocs

import (
	"runtime"
	"runtime/debug"
)

// Count returns how many heap objects were allocated while f ran: the
// process's MemStats.Mallocs delta, exact. Unlike testing.AllocsPerRun
// it is not divided by a run count, so a bound of 0 stays a bound of 0.
//
// The runtime must not allocate in the window. GOMAXPROCS is pinned to 1
// for it, so no goroutine runs in parallel with f and restarting the
// world after a stop has no idle P to start a new thread for. Before
// the window debug.FreeOSMemory collects garbage and returns every free
// page to the OS, which leaves the background scavenger nothing to do.
// After a plain runtime.GC the scavenger wakes, runs inside the window
// and puts its sleep timer on the one P's timer heap, whose growth is
// a malloc that is not f's.
func Count(f func()) uint64 {
	before, after := measure(f)
	return after.Mallocs - before.Mallocs
}

// Bytes returns how many heap bytes were allocated while f ran: the
// process's MemStats.TotalAlloc delta, taken as Count takes its.
func Bytes(f func()) uint64 {
	before, after := measure(f)
	return after.TotalAlloc - before.TotalAlloc
}

// measure reads the memory statistics before and after f runs.
func measure(f func()) (before, after runtime.MemStats) {
	debug.FreeOSMemory()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return before, after
}
