// Command bench is the repository's benchmark: six workloads over the
// two product paths (program text -> quiesced derived set, client
// socket -> answer bytes), every output checked against the
// centralized evaluator, end-to-end metrics from untraced runs and a
// per-layer breakdown from a traced run. See README.md.
//
//	bash bench/run.sh                                  every workload, timed then traced
//	bash bench/run.sh --workload W --seed N --seconds S --trace 0|1
//	bash bench/run.sh -suite 10 -o bench/out/set-a.json
//	bash bench/run.sh -compare a.json b.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
)

// environment is recorded in every result and trace file.
type environment struct {
	NumCPU     int    `json:"nproc"`
	GoMaxProcs int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	Clients    string `json:"load_model"`
}

func currentEnv() environment {
	env := environment{
		NumCPU: runtime.NumCPU(), GoMaxProcs: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Commit:  "unknown",
		Clients: "closed loop; engine workloads single-threaded, serve workloads 2 client connections",
	}
	if info, ok := debug.ReadBuildInfo(); ok {
		dirty := ""
		for _, s := range info.Settings {
			switch {
			case s.Key == "vcs.revision":
				env.Commit = s.Value
			case s.Key == "vcs.modified" && s.Value == "true":
				dirty = "+modified"
			}
		}
		env.Commit += dirty
	}
	return env
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a contract run prints.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// runRecord is one run in a result-set file.
type runRecord struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Trace    int    `json:"trace"`
	result
	Spread   map[string]float64 `json:"spread,omitempty"`
	Problems []string           `json:"problems,omitempty"`
}

type resultSet struct {
	Env        environment `json:"env"`
	RunSeconds float64     `json:"run_seconds"`
	Runs       []runRecord `json:"runs"`
}

// runOne executes one run of one workload and shapes its outcome into
// the metrics the schema names for that kind of run; the second result
// is everything the run measured, by name.
func runOne(sz sizing, workload string, seed int64, seconds float64, traced bool, outDir string) (runRecord, map[string]float64, error) {
	var out *outcome
	var err error
	switch {
	case isEngine(workload) && !traced:
		out, err = engineTimed(sz, workload, seed, seconds)
	case isEngine(workload):
		out, err = engineTraced(sz, workload, seed, outDir)
	case !traced:
		out, err = serveTimed(sz, workload, seed, seconds)
	default:
		out, err = serveTraced(sz, workload, seed, seconds, outDir)
	}
	if err != nil {
		return runRecord{}, nil, fmt.Errorf("%s: %w", workload, err)
	}
	rec := runRecord{Workload: workload, Seed: seed, Spread: out.extra, Problems: out.problems}
	defs := endToEnd
	if traced {
		rec.Trace, defs = 1, perLayer
	}
	rec.Metrics = make(map[string]metricValue, len(defs))
	for _, d := range defs {
		rec.Metrics[d.Name] = metricValue{Value: out.metrics[d.Name], Unit: d.Unit}
	}
	rec.Attempted, rec.Failed = out.attempted, out.failed
	rec.Correct = len(out.problems) == 0 && out.failed == 0 && out.attempted > 0
	return rec, out.metrics, nil
}

func printRecord(rec runRecord) {
	defs := endToEnd
	kind := "end to end"
	if rec.Trace == 1 {
		defs, kind = perLayer, "per layer (traced run)"
	}
	fmt.Printf("== %s  seed %d  %s  attempted %d  failed %d  error_rate %g\n",
		rec.Workload, rec.Seed, kind, rec.Attempted, rec.Failed, ratio(float64(rec.Failed), float64(rec.Attempted)))
	for _, d := range defs {
		line := fmt.Sprintf("%-32s %-6s %16.6g", d.Name, d.Unit, rec.Metrics[d.Name].Value)
		if n, ok := rec.Spread[d.Name+".n"]; ok {
			line += fmt.Sprintf("   n=%.0f min=%.6g max=%.6g", n, rec.Spread[d.Name+".min"], rec.Spread[d.Name+".max"])
			if v, ok := rec.Spread[d.Name+".mad"]; ok {
				line += fmt.Sprintf(" mad=%.6g", v)
			}
		}
		fmt.Println(line)
	}
	for _, p := range rec.Problems {
		fmt.Println("PROBLEM:", p)
	}
}

func writeSet(path string, set resultSet) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(set, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// exactNames are simulated counts: for one seed the traced pass must
// reproduce what the timed pass counted.
var exactNames = []string{"nsim.events", "nsim.messages", "nsim.bytes", "core.derivations", "nsim.quiesce_ticks"}

// fullReport runs every workload timed and then traced, prints every
// metric, and checks the exact counts of the two passes against each
// other (serve_churn excepted: what it counts depends on how many
// writes fit into the run).
func fullReport(seed int64, seconds float64, outDir string) (bool, error) {
	set := resultSet{Env: currentEnv(), RunSeconds: seconds}
	ok := true
	for _, w := range workloads {
		timed, counted, err := runOne(full, w.Name, seed, seconds, false, outDir)
		if err != nil {
			return false, err
		}
		traced, _, err := runOne(full, w.Name, seed, seconds, true, outDir)
		if err != nil {
			return false, err
		}
		if w.Name != "serve_churn" {
			for _, name := range exactNames {
				if got, want := traced.Metrics[name].Value, counted[name]; got != want {
					traced.Problems = append(traced.Problems, fmt.Sprintf("%s: traced run counted %v, untraced run %v", name, got, want))
					traced.Correct = false
				}
			}
		}
		for _, rec := range []runRecord{timed, traced} {
			printRecord(rec)
			ok = ok && rec.Correct
			set.Runs = append(set.Runs, rec)
		}
	}
	return ok, writeSet(filepath.Join(outDir, "results.json"), set)
}

func main() {
	var (
		workload = flag.String("workload", "", "run one workload and print its result as the last line (the BENCHMARK.json contract)")
		seed     = flag.Int64("seed", 1, "seed the inputs are generated from")
		seconds  = flag.Float64("seconds", runSeconds, "how long one run measures")
		trace    = flag.Int("trace", 0, "with -workload: 0 prints the end-to-end metrics of an untraced run, 1 the per-layer metrics of a traced run")
		outDir   = flag.String("out", "bench/out", "directory for trace and result files")
		suite    = flag.Int("suite", 0, "run every workload untraced on this many consecutive seeds, starting at -seed, and write a result set to -o")
		outFile  = flag.String("o", "", "result-set file written by -suite")
		compare  = flag.Bool("compare", false, "compare two result-set files (arguments: a.json b.json) against the metrics' bounds")
		schema   = flag.Bool("schema", false, "print BENCHMARK.json as this program defines it")
	)
	flag.Parse()

	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(2)
	}
	switch {
	case *schema:
		b, err := schemaJSON()
		if err != nil {
			fail(err)
		}
		os.Stdout.Write(b)
	case *compare:
		if flag.NArg() != 2 {
			fail(fmt.Errorf("-compare needs two result-set files"))
		}
		ok, err := compareSets(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fail(err)
		}
		if !ok {
			os.Exit(1)
		}
	case *suite > 0:
		if *outFile == "" {
			fail(fmt.Errorf("-suite needs -o"))
		}
		set := resultSet{Env: currentEnv(), RunSeconds: *seconds}
		ok := true
		// Seed-major order spreads each workload's runs over the whole
		// set, so that a slow stretch of the machine does not land on
		// one workload only.
		for s := *seed; s < *seed+int64(*suite); s++ {
			for _, w := range workloads {
				rec, _, err := runOne(full, w.Name, s, *seconds, false, *outDir)
				if err != nil {
					fail(err)
				}
				printRecord(rec)
				ok = ok && rec.Correct
				set.Runs = append(set.Runs, rec)
			}
		}
		if err := writeSet(*outFile, set); err != nil {
			fail(err)
		}
		if !ok {
			os.Exit(1)
		}
	case *workload != "":
		if !knownWorkload(*workload) {
			fail(fmt.Errorf("unknown workload %q", *workload))
		}
		rec, _, err := runOne(full, *workload, *seed, *seconds, *trace == 1, *outDir)
		if err != nil {
			fail(err)
		}
		printRecord(rec)
		line, err := json.Marshal(rec.result)
		if err != nil {
			fail(err)
		}
		fmt.Println(string(line))
		if !rec.Correct {
			os.Exit(1)
		}
	default:
		ok, err := fullReport(*seed, *seconds, *outDir)
		if err != nil {
			fail(err)
		}
		if !ok {
			fmt.Println("FAILED: at least one workload's outputs or counts are wrong")
			os.Exit(1)
		}
	}
}

// schemaJSON renders BENCHMARK.json from the tables in defs.go.
func schemaJSON() ([]byte, error) {
	type layerMetric struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	layers := make([]layerMetric, len(perLayer))
	for i, d := range perLayer {
		layers[i] = layerMetric{d.Name, d.Unit, d.Better}
	}
	doc := struct {
		Command    []string      `json:"command"`
		Paths      []string      `json:"paths"`
		RunSeconds int           `json:"run_seconds"`
		Workloads  []workloadDef `json:"workloads"`
		EndToEnd   []metricDef   `json:"end_to_end"`
		PerLayer   []layerMetric `json:"per_layer"`
	}{
		Command: []string{"bash", "bench/run.sh"}, Paths: []string{"bench"}, RunSeconds: runSeconds,
		Workloads: workloads, EndToEnd: endToEnd, PerLayer: layers,
	}
	b, err := json.MarshalIndent(doc, "", "  ")
	return append(b, '\n'), err
}
