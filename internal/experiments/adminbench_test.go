package experiments

import (
	"testing"

	"repro/internal/core"
	"repro/internal/gpa"
	"repro/internal/nsim"
	"repro/internal/obs/export"
)

// TestAdminDisabledOverheadE1 guards the admin-export-disabled path on
// the E1 m=18 hot loop. Linking the telemetry export layer (Prometheus
// encoder, admin HTTP server, sampler) into the binary — which this
// test does by importing it — must leave the simulation fast path
// untouched: export is pull-based, so with no StartAdmin call and no
// sampler running there is no listener, no goroutine, and no handle on
// the event path, and allocations per event stay at the same baseline
// as the fully-unobserved run (e1AllocBaseline, EXPERIMENTS.md,
// "Simulator substrate and the allocation guards").
// Part of make obs-guard.
func TestAdminDisabledOverheadE1(t *testing.T) {
	// The zero Source is the "admin not configured" state snlogd runs in
	// without -admin; constructing it must not touch anything.
	_ = export.Source{}

	e, nw := deployGrid(18, twoStreamSrc,
		core.Config{Scheme: gpa.Perpendicular}, nsim.Config{Seed: 11})
	injectJoinWorkload(e, nw, 40, 17)
	guardE1Allocs(t, "admin-disabled", nw)
}
