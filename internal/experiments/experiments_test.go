package experiments

import (
	"strconv"
	"testing"
)

// These tests pin the *qualitative shape* of every experiment — the
// claims EXPERIMENTS.md makes must keep holding as the code evolves.

func cell(t *testing.T, rows [][]string, row, col int) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(rows[row][col], 64)
	if err != nil {
		t.Fatalf("cell (%d,%d) = %q: %v", row, col, rows[row][col], err)
	}
	return v
}

func TestE1ShapePABeatsFloodingSchemes(t *testing.T) {
	rows := E1JoinApproaches([]int{6, 10}, 8).Rows()
	// Row layout per size: PA, naive-broadcast, local-storage, centroid,
	// centralized.
	for base := 0; base < len(rows); base += 5 {
		pa := cell(t, rows, base, 3)
		nb := cell(t, rows, base+1, 3)
		ls := cell(t, rows, base+2, 3)
		if pa*3 > nb {
			t.Errorf("PA (%v) should be far below naive-broadcast (%v)", pa, nb)
		}
		if pa*2 > ls {
			t.Errorf("PA (%v) should be far below local-storage (%v)", pa, ls)
		}
	}
	// The PA-vs-broadcast gap must widen with network size.
	gapSmall := cell(t, rows, 1, 3) / cell(t, rows, 0, 3)
	gapLarge := cell(t, rows, 6, 3) / cell(t, rows, 5, 3)
	if gapLarge <= gapSmall {
		t.Errorf("gap should widen: %v -> %v", gapSmall, gapLarge)
	}
}

func TestE2ShapeHotspot(t *testing.T) {
	rows := E2LoadBalance(10, 20).Rows()
	paRatio := cell(t, rows, 0, 4)
	centroidRatio := cell(t, rows, 1, 4)
	centralRatio := cell(t, rows, 2, 4)
	if centralRatio < 3*paRatio {
		t.Errorf("central hotspot ratio %v should dwarf PA's %v", centralRatio, paRatio)
	}
	if centroidRatio <= paRatio {
		t.Errorf("centroid hotspot %v should exceed PA's %v", centroidRatio, paRatio)
	}
	paMax := cell(t, rows, 0, 2)
	centralMax := cell(t, rows, 2, 2)
	if centralMax <= paMax {
		t.Errorf("central max load %v should exceed PA's %v", centralMax, paMax)
	}
}

func TestE3ShapeMultiPassCostsMore(t *testing.T) {
	rows := E3MultiStream(8, []int{2, 3}, 3).Rows()
	// n=2: identical. n=3: multi-pass strictly more.
	if rows[0][2] != rows[1][2] {
		t.Errorf("2-stream one-pass (%v) and multi-pass (%v) should match", rows[0][2], rows[1][2])
	}
	if cell(t, rows, 3, 2) <= cell(t, rows, 2, 2) {
		t.Error("3-stream multi-pass should cost more messages")
	}
	// Identical results regardless of scheme.
	for i := 0; i+1 < len(rows); i += 2 {
		if rows[i][4] != rows[i+1][4] {
			t.Errorf("result counts differ between schemes: %v vs %v", rows[i][4], rows[i+1][4])
		}
	}
}

func TestE4ShapeSpatialSavings(t *testing.T) {
	rows := E4Spatial(10, []float64{0, 2}, 6).Rows()
	if cell(t, rows, 1, 1) >= cell(t, rows, 0, 1) {
		t.Error("clipped regions should save messages")
	}
	if rows[0][3] != rows[1][3] {
		t.Errorf("results must not be lost by clipping: %v vs %v", rows[0][3], rows[1][3])
	}
}

func TestE5ShapeLogicJBeatsLogicHAndAllCorrect(t *testing.T) {
	rows := E5SPT([]int{5, 7}).Rows()
	for _, r := range rows {
		if r[5] != "true" {
			t.Errorf("incorrect tree: %v", r)
		}
	}
	for base := 0; base < len(rows); base += 4 {
		j := cell(t, rows, base, 3)
		h := cell(t, rows, base+1, 3)
		if j >= h {
			t.Errorf("logicJ (%v msgs) should beat logicH (%v)", j, h)
		}
		jb := cell(t, rows, base, 4)
		hb := cell(t, rows, base+1, 4)
		if jb >= hb {
			t.Errorf("logicJ (%v bytes) should beat logicH (%v)", jb, hb)
		}
	}
}

func TestE6ShapeRederivationCostsMore(t *testing.T) {
	rows := E6Deletions(120, []float64{0.3}).Rows()
	// set-of-derivations, counting, rederivation.
	sod := cell(t, rows, 0, 2)
	cnt := cell(t, rows, 1, 2)
	red := cell(t, rows, 2, 2)
	if sod != cnt {
		t.Errorf("set-of-derivations (%v) and counting (%v) should do identical join work", sod, cnt)
	}
	if red <= sod {
		t.Errorf("rederivation (%v) should exceed set-of-derivations (%v)", red, sod)
	}
	if cell(t, rows, 2, 5) == 0 {
		t.Error("rederivation probes should be counted")
	}
	if cell(t, rows, 0, 4) == 0 {
		t.Error("set-of-derivations should hold derivations")
	}
	if cell(t, rows, 0, 3) == 0 {
		t.Error("scan ops should be counted")
	}
}

func TestE7ShapeARQRestoresCompleteness(t *testing.T) {
	rows := E7Loss(8, []float64{0.1}, 10).Rows()
	// rows: loss=10% with ARQ off then on.
	bare := cell(t, rows, 0, 6)
	arq := cell(t, rows, 1, 6)
	if arq < 99 {
		t.Errorf("ARQ completeness = %v, want ~100", arq)
	}
	if bare >= arq {
		t.Errorf("bare completeness %v should trail ARQ %v", bare, arq)
	}
}

func TestE8ShapeLatencyGrowsWithDiameter(t *testing.T) {
	rows := E8Latency([]int{6, 10}).Rows()
	if cell(t, rows, 1, 3) <= cell(t, rows, 0, 3) {
		t.Error("latency should grow with network size")
	}
	if cell(t, rows, 0, 2) != 10 || cell(t, rows, 1, 2) != 10 {
		t.Error("all alerts should be produced")
	}
}

func TestE9ShapeWindowsBoundMemory(t *testing.T) {
	rows := E9Memory(6).Rows()
	// logicJ < logicH; windowed < unbounded.
	if cell(t, rows, 0, 1) >= cell(t, rows, 1, 1) {
		t.Error("logicJ should store less than logicH")
	}
	if cell(t, rows, 2, 1) >= cell(t, rows, 3, 1) {
		t.Error("windowed run should store less than unbounded")
	}
}

func TestE10ShapeMagicPrunes(t *testing.T) {
	rows := E10Magic(5, 8).Rows()
	if cell(t, rows, 1, 1) >= cell(t, rows, 0, 1) {
		t.Error("magic should do less join work")
	}
	if cell(t, rows, 1, 2) >= cell(t, rows, 0, 2) {
		t.Error("magic should scan fewer tuples")
	}
	if cell(t, rows, 1, 3) >= cell(t, rows, 0, 3) {
		t.Error("magic should derive fewer tuples")
	}
	if rows[0][4] != rows[1][4] {
		t.Errorf("answers must match: %v vs %v", rows[0][4], rows[1][4])
	}
}

func TestE12ShapePASurvivesSinkSchemesDie(t *testing.T) {
	rows := E12Lifetime(10, 400, 150).Rows()
	// PA, centroid, centralized.
	if rows[0][1] != "never" || rows[0][2] != "0" {
		t.Errorf("PA should survive: %v", rows[0])
	}
	if rows[1][1] == "never" {
		t.Errorf("centroid region should deplete: %v", rows[1])
	}
	if rows[2][1] == "never" {
		t.Errorf("central sink's neighborhood should deplete: %v", rows[2])
	}
	// The centralized deaths are the nodes near the sink (the paper's
	// exact failure mode).
	if rows[2][2] != rows[2][3] {
		t.Errorf("centralized deaths should all be near the sink: %v", rows[2])
	}
	// PA delivers everything; the depleted schemes lose results.
	if cell(t, rows, 0, 4) != 150 {
		t.Errorf("PA results = %v", rows[0][4])
	}
	if cell(t, rows, 1, 4) >= 150 {
		t.Errorf("centroid should lose results: %v", rows[1][4])
	}
}

func TestE11ShapeTAGBeatsNaive(t *testing.T) {
	rows := E11Aggregation([]int{6, 10}).Rows()
	for base := 0; base < len(rows); base += 2 {
		tag := cell(t, rows, base, 3)
		naive := cell(t, rows, base+1, 3)
		if tag >= naive {
			t.Errorf("TAG (%v msgs) should beat naive collection (%v)", tag, naive)
		}
	}
	// And the gap widens with size.
	g1 := cell(t, rows, 1, 3) / cell(t, rows, 0, 3)
	g2 := cell(t, rows, 3, 3) / cell(t, rows, 2, 3)
	if g2 <= g1 {
		t.Errorf("TAG advantage should widen: %v -> %v", g1, g2)
	}
}

func TestE14ShapeChurnConvergesAndZeroChurnNeedsNoRepair(t *testing.T) {
	rows := E14Churn([]int{0, 2}, 3).Rows()
	// Columns: churn, runs, converged, avg rounds, avg msgs,
	// avg repair msgs, blocked, dups, reorders.
	for i := range rows {
		if runs, conv := cell(t, rows, i, 1), cell(t, rows, i, 2); conv != runs {
			t.Errorf("row %d: %v of %v runs converged", i, conv, runs)
		}
	}
	// The fault-free baseline never diverges from the oracle: no repair
	// rounds, no repair traffic, nothing blocked.
	if r := cell(t, rows, 0, 3); r != 0 {
		t.Errorf("churn 0: avg repair rounds = %v, want 0", r)
	}
	if m := cell(t, rows, 0, 5); m != 0 {
		t.Errorf("churn 0: avg repair msgs = %v, want 0", m)
	}
	if b := cell(t, rows, 0, 6); b != 0 {
		t.Errorf("churn 0: blocked deliveries = %v, want 0", b)
	}
	// Churn must actually exercise the fault paths and force repair.
	if b := cell(t, rows, 1, 6); b == 0 {
		t.Error("churn 2 blocked no deliveries; the schedule is inert")
	}
	if r := cell(t, rows, 1, 3); r == 0 {
		t.Error("churn 2 never needed a repair round; the sweep is not stressing repair")
	}
}
