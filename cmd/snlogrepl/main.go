// Command snlogrepl is an interactive console for the deductive
// language: load a program, assert and retract facts, and watch derived
// predicates update incrementally (set-of-derivations maintenance) —
// the centralized counterpart of what the distributed engine does
// in-network, handy for developing programs before deployment.
//
// With -connect it speaks the snlogd wire protocol instead, turning the
// same console into a client of a live deployment: queries read the
// derived set the network maintains, through the daemon's result cache,
// proofs its provenance store.
//
// With -watch it becomes snltop: it polls a daemon's admin endpoint
// (snlogd -admin) and renders a refreshing table of query rate, cache
// hit rate, batch flush mix and latency quantiles.
//
// Usage:
//
//	snlogrepl [program.snl]
//	snlogrepl -connect 127.0.0.1:7654
//	snlogrepl -watch 127.0.0.1:8090
//
// Commands:
//
//	assert:      + fact(args).      (-connect: injects at node 0)
//	retract:     - fact(args).
//	query:       ? pred/arity       (lists everything derived for it)
//	             ? goal(args)       (point query, variables allowed)
//	             ?                  (local only: list all derived)
//	proof tree:  proof fact(args).
//	counters:    stats
//	exit:        quit
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/datalog/ast"
	"repro/internal/datalog/eval"
	"repro/internal/datalog/parser"
	"repro/internal/serve"
)

func main() {
	connect := flag.String("connect", "", "snlogd address to drive instead of a local session")
	watch := flag.String("watch", "", "snlogd admin address (host:port or URL) to poll and render live stats (snltop mode)")
	interval := flag.Duration("interval", 2*time.Second, "watch poll interval")
	rounds := flag.Int("rounds", 0, "watch iterations before exiting (0 = until interrupted)")
	flag.Parse()
	if *watch != "" {
		base := *watch
		if !strings.Contains(base, "://") {
			base = "http://" + base
		}
		watchLoop(os.Stdout, func() (map[string]int64, error) {
			return fetchSnapshot(base)
		}, *interval, *rounds, true)
		return
	}
	if *connect != "" {
		c, err := serve.Dial(*connect)
		if err != nil {
			fatal(err)
		}
		defer c.Close()
		fmt.Printf("snlogrepl — connected to %s (help for commands)\n", *connect)
		repl(os.Stdin, os.Stdout, remote{c})
		return
	}
	src := ""
	if flag.NArg() > 0 {
		b, err := os.ReadFile(flag.Arg(0))
		if err != nil {
			fatal(err)
		}
		src = string(b)
	}
	m, err := newSession(src)
	if err != nil {
		fatal(err)
	}
	fmt.Println("snlogrepl — deductive console (help for commands)")
	repl(os.Stdin, os.Stdout, m)
}

// console is what the command loop drives: an in-process maintainer
// (local) or a daemon (remote). A command returns the lines it prints,
// or the error it prints instead.
type console interface {
	stats() ([]string, error)
	query(arg string) ([]string, error) // a goal, pred/arity, or "" for all
	change(insert bool, fact string) ([]string, error)
	proof(fact string) (string, error)
}

// repl is the console's read loop: prompt, read a line, trim it, skip
// it if blank, and execute it until a command quits or the input ends.
func repl(in io.Reader, out io.Writer, c console) {
	sc := bufio.NewScanner(in)
	for {
		fmt.Fprint(out, "> ")
		if !sc.Scan() {
			fmt.Fprintln(out)
			return
		}
		if line := strings.TrimSpace(sc.Text()); line != "" && execute(out, c, line) {
			return
		}
	}
}

const helpText = "  + fact(args).      assert\n  - fact(args).      retract\n  ? pred/arity       list tuples\n  ? goal(args)       point query (variables allowed)\n  ?                  list all derived\n  proof fact(args).  proof tree\n  stats              counters\n  quit               exit"

// execute runs one command line against c; returns true to quit.
func execute(out io.Writer, c console, line string) bool {
	var lines []string
	var err error
	switch {
	case line == "quit" || line == "exit":
		return true
	case line == "help":
		fmt.Fprintln(out, helpText)
	case line == "stats":
		lines, err = c.stats()
	case line == "?", strings.HasPrefix(line, "? "):
		lines, err = c.query(strings.TrimSpace(line[1:]))
	case strings.HasPrefix(line, "+ "), strings.HasPrefix(line, "- "):
		lines, err = c.change(line[0] == '+', line[2:])
	case strings.HasPrefix(line, "proof "):
		var tree string
		tree, err = c.proof(strings.TrimSpace(line[len("proof "):]))
		lines = strings.Split(strings.TrimRight(tree, "\n"), "\n")
	default:
		lines = []string{"unknown command (try help)"}
	}
	if err != nil {
		fmt.Fprintf(out, "  error: %v\n", err)
		return false
	}
	for _, l := range lines {
		fmt.Fprintf(out, "  %s\n", l)
	}
	return false
}

// remoteExecute runs one command line against a daemon; returns true to
// quit.
func remoteExecute(out io.Writer, c *serve.Client, line string) bool {
	return execute(out, remote{c}, line)
}

// local is an in-process console: the incremental maintainer plus the
// parsed program (for goal validation on the shared core.ParseGoal
// path).
type local struct {
	m    *eval.Maintainer
	prog *ast.Program
}

func newSession(src string) (*local, error) {
	prog, err := parser.Parse(src)
	if err != nil {
		return nil, err
	}
	m, err := eval.NewMaintainer(prog, eval.SetOfDerivations, eval.Options{})
	if err != nil {
		return nil, err
	}
	return &local{m: m, prog: prog}, nil
}

func (s *local) stats() ([]string, error) {
	st := s.m.Stats()
	return []string{fmt.Sprintf("join ops: %d, scan ops: %d, derivations held: %d, cascade steps: %d",
		st.JoinOps, st.ScanOps, st.DerivationsHeld, st.CascadeSteps)}, nil
}

// query answers a goal on the shared validation path — the same typed
// errors as Cluster.Query and the daemon — and lists a predicate, or
// every derived one, straight from the database.
func (s *local) query(arg string) ([]string, error) {
	db := s.m.DB()
	var lines []string
	switch {
	case arg == "":
		for _, p := range db.Predicates() {
			lines = tupleLines(append(lines, "% "+p), db.Tuples(p))
		}
		return lines, nil
	case !strings.Contains(arg, "("):
		return tupleLines(nil, db.Tuples(arg)), nil
	}
	lit, err := core.ParseGoal(s.prog, arg)
	if err != nil {
		return nil, err
	}
	return tupleLines(nil, core.MatchGoal(lit, db.Tuples(lit.PredKey()))), nil
}

// change asserts or retracts a fact and lists what that derived and
// retracted in turn.
func (s *local) change(insert bool, fact string) ([]string, error) {
	tup, err := parseFact(fact)
	if err != nil {
		return nil, err
	}
	apply := s.m.Delete
	if insert {
		apply = s.m.Insert
	}
	changes, err := apply(tup)
	lines := make([]string, len(changes))
	for i, c := range changes {
		lines[i] = "- " + c.Tuple.String()
		if c.Insert {
			lines[i] = "+ " + c.Tuple.String()
		}
	}
	return lines, err
}

func (s *local) proof(fact string) (string, error) {
	tup, err := parseFact(fact)
	if err != nil {
		return "", err
	}
	tree, err := s.m.Explain(tup)
	if err != nil {
		return "", err
	}
	return tree.String(), nil
}

// remote is a console on a daemon: an assert injects at node 0, and a
// retract deletes one tick past the time the daemon syncs to.
type remote struct{ c *serve.Client }

func (r remote) stats() ([]string, error) {
	stats, err := r.c.Stats(context.Background())
	names := make([]string, 0, len(stats))
	for n := range stats {
		if strings.HasPrefix(n, "serve.") {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	for i, n := range names {
		names[i] = fmt.Sprintf("%s: %d", n, stats[n])
	}
	return names, err
}

// query expands pred/arity to an all-free goal: "reach/2" asks
// "reach(V0, V1)".
func (r remote) query(arg string) ([]string, error) {
	switch {
	case arg == "":
		return nil, errors.New("bare ? is local-only; query a goal, e.g. ? reach(a, X)")
	case strings.Contains(arg, "("):
		return r.c.Query(context.Background(), arg)
	}
	i := strings.LastIndex(arg, "/")
	if i < 0 {
		return nil, fmt.Errorf("want pred/arity or a goal, got %q", arg)
	}
	n, err := strconv.Atoi(arg[i+1:])
	if err != nil || n < 0 {
		return nil, fmt.Errorf("bad arity in %q", arg)
	}
	vars := make([]string, n)
	for j := range vars {
		vars[j] = "V" + strconv.Itoa(j)
	}
	return r.c.Query(context.Background(), arg[:i]+"("+strings.Join(vars, ", ")+")")
}

func (r remote) change(insert bool, fact string) ([]string, error) {
	ctx, fact := context.Background(), strings.TrimSuffix(strings.TrimSpace(fact), ".")
	if insert {
		return nil, r.c.Inject(ctx, 0, fact)
	}
	now, err := r.c.Sync(ctx)
	if err != nil {
		return nil, err
	}
	return nil, r.c.DeleteAt(ctx, now+1, 0, fact)
}

func (r remote) proof(fact string) (string, error) {
	return r.c.Explain(context.Background(), strings.TrimSuffix(fact, "."))
}

// tupleLines appends one line per tuple to lines.
func tupleLines(lines []string, ts []eval.Tuple) []string {
	for _, t := range ts {
		lines = append(lines, t.String())
	}
	return lines
}

// fetchSnapshot pulls the flat name → value metric map from a daemon's
// admin /snapshot endpoint.
func fetchSnapshot(base string) (map[string]int64, error) {
	resp, err := http.Get(base + "/snapshot")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s/snapshot: %s", base, resp.Status)
	}
	var snap map[string]int64
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		return nil, err
	}
	return snap, nil
}

// watchLoop is the snltop driver: poll, keep the polls of the last
// minute, render. rounds 0 polls forever; clear toggles the ANSI
// clear-and-home prefix (off in tests). A failed poll renders an error
// line and keeps polling — the daemon restarting should not kill the
// watcher.
func watchLoop(out io.Writer, fetch func() (map[string]int64, error), interval time.Duration, rounds int, clear bool) {
	if interval <= 0 {
		interval = 2 * time.Second
	}
	var polls []poll
	for i := 0; rounds <= 0 || i < rounds; i++ {
		if i > 0 {
			time.Sleep(interval)
		}
		cur, err := fetch()
		now := time.Now()
		if clear {
			fmt.Fprint(out, "\x1b[2J\x1b[H")
		}
		if err != nil {
			fmt.Fprintf(out, "snltop: %v\n", err)
			continue
		}
		polls = append(polls, poll{at: now, snap: cur})
		for now.Sub(polls[0].at) > time.Minute {
			polls = polls[1:]
		}
		fmt.Fprint(out, renderWatch(polls))
	}
}

// poll is one /snapshot sample and the time snltop took it.
type poll struct {
	at   time.Time
	snap map[string]int64
}

// renderWatch formats one snltop frame from the polls of the last
// minute, oldest first, the current poll last. Rates over the poll
// window are deltas against the previous poll, "1m avg" rates deltas
// against the oldest; totals and quantiles come from the current poll.
func renderWatch(polls []poll) string {
	cur, first := polls[len(polls)-1], polls[0]
	// On the first frame the previous poll is empty: no rates, and the
	// window figures are the lifetime ones.
	prev := poll{at: cur.at}
	if len(polls) > 1 {
		prev = polls[len(polls)-2]
	}
	c, p := cur.snap, prev.snap
	rate := func(name string, since poll) int64 {
		secs := cur.at.Sub(since.at).Seconds()
		if secs <= 0 {
			return 0
		}
		return int64(float64(c[name]-since.snap[name])/secs + 0.5)
	}
	hitRate := func(hits, misses int64) string {
		if hits+misses == 0 {
			return "-"
		}
		return fmt.Sprintf("%.1f%%", 100*float64(hits)/float64(hits+misses))
	}
	var b strings.Builder
	fmt.Fprintf(&b, "snltop — %s window\n", cur.at.Sub(prev.at).Round(time.Millisecond))
	fmt.Fprintf(&b, "  queries   total %-10d qps %-8d 1m avg %d\n",
		c["serve.queries"], rate("serve.queries", prev), rate("serve.queries", first))
	dh, dm := c["serve.cache.hits"]-p["serve.cache.hits"], c["serve.cache.misses"]-p["serve.cache.misses"]
	fmt.Fprintf(&b, "  cache     hits %-11d misses %-5d hit rate %s (window %s)\n",
		c["serve.cache.hits"], c["serve.cache.misses"],
		hitRate(c["serve.cache.hits"], c["serve.cache.misses"]), hitRate(dh, dm))
	fmt.Fprintf(&b, "  batches   size %-11d deadline %-3d fresh %-6d explicit %-3d writes/s %d\n",
		c["serve.batch.flush.size"], c["serve.batch.flush.deadline"],
		c["serve.batch.flush.fresh"], c["serve.batch.flush.explicit"],
		rate("serve.batch.writes", prev))
	fmt.Fprintf(&b, "  latency   p50 %-4dµs   p99 %-6dµs  max %-6dµs  stale served %d\n",
		c["serve.query_latency.p50"], c["serve.query_latency.p99"],
		c["serve.query_latency.max"], c["serve.stale.served"])
	if _, ok := c["nsim.events"]; ok {
		fmt.Fprintf(&b, "  sim       events %-9d events/s %-4d 1m avg %d\n",
			c["nsim.events"], rate("nsim.events", prev), rate("nsim.events", first))
	}
	return b.String()
}

// parseFact parses "pred(args)." (trailing dot optional) into a tuple,
// on the shared serve.ParseFact path.
func parseFact(src string) (eval.Tuple, error) {
	return serve.ParseFact(src)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "snlogrepl:", err)
	os.Exit(1)
}
