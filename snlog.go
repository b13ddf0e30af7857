// Package snlog is a deductive framework for programming sensor
// networks — a from-scratch reproduction of "Deductive Framework for
// Programming Sensor Networks" (ICDE 2009).
//
// Applications are written as logic programs (Datalog extended with
// function symbols, restricted negation and built-ins). The framework
// compiles a program into per-node code that evaluates it inside a
// multi-hop sensor network, bottom-up, incrementally and asynchronously,
// joining distributed data streams with the (Generalized) Perpendicular
// Approach and maintaining results under insertions and deletions with
// derivation sets.
//
// Quick start:
//
//	cluster, _ := snlog.Deploy(snlog.Grid(8), `
//	    .base temp/2.
//	    alert(N, T) :- temp(N, T), T > 90.
//	    .query alert/2.
//	`)
//	cluster.Inject(12, snlog.NewTuple("temp", snlog.Sym("n12"), snlog.Int(95)))
//	cluster.Run()
//	fmt.Println(cluster.Results("alert/2"))
//	fmt.Println(cluster.Stats().Messages)
//
// Deployments accept functional options (WithScheme, WithLoss,
// WithRetries, WithFaults, WithTrace, ...); every cluster carries
// a counter registry (Cluster.Snapshot) and, with WithTrace, a
// structured event trace (Cluster.WriteTrace).
//
// The package front-ends the full stack: parser (internal/datalog/parser),
// static analysis incl. XY-stratification (internal/datalog/analysis),
// magic sets (internal/datalog/magic), the centralized reference
// evaluator (internal/datalog/eval), and the distributed engine over the
// discrete-event radio simulator (internal/core, internal/nsim).
package snlog

import (
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/datalog/analysis"
	"repro/internal/datalog/ast"
	"repro/internal/datalog/eval"
	"repro/internal/datalog/magic"
	"repro/internal/datalog/parser"
	"repro/internal/fault"
	"repro/internal/gpa"
	"repro/internal/nsim"
	"repro/internal/obs"
	"repro/internal/obs/provenance"
	"repro/internal/topo"
)

// Re-exported core types.
type (
	// Program is a parsed deductive program.
	Program = ast.Program
	// Term is a logic term (constant, variable or compound).
	Term = ast.Term
	// Tuple is a ground fact.
	Tuple = eval.Tuple
	// Database is a set of tuples per predicate.
	Database = eval.Database
	// Analysis is the result of static program analysis.
	Analysis = analysis.Result
	// FaultSchedule scripts deterministic faults — crash/recover,
	// link churn, partitions, duplication and reordering windows —
	// against virtual time (see WithFaults).
	FaultSchedule = fault.Schedule
	// FaultCounts is the fault injector's bookkeeping.
	FaultCounts = fault.Counts
)

// NewFaultSchedule returns an empty fault schedule; chain its builder
// methods (CrashWindow, LinkDown, Partition, Duplicate, Reorder) and
// pass it to WithFaults.
func NewFaultSchedule() *FaultSchedule { return fault.NewSchedule() }

// Scheme selects the in-network join strategy.
type Scheme = gpa.Scheme

// Available join schemes.
const (
	Perpendicular  = gpa.Perpendicular
	NaiveBroadcast = gpa.NaiveBroadcast
	LocalStorage   = gpa.LocalStorage
	Centralized    = gpa.Centralized
	Centroid       = gpa.Centroid
)

// Term constructors.
var (
	// Int builds an integer constant.
	Int = ast.Int64
	// Flt builds a floating-point constant.
	Flt = ast.Float64
	// Sym builds a symbolic constant.
	Sym = ast.Symbol
	// Str builds a string constant.
	Str = ast.String_
	// Var builds a variable.
	Var = ast.Var
	// Cmp builds a compound term f(args...).
	Cmp = ast.Compound
	// List builds a proper list.
	List = ast.List
)

// Incremental maintenance (centralized): the three approaches of
// Section IV-A, re-exported for applications that maintain views off-network.
type (
	// Maintainer incrementally maintains derived predicates under
	// insertions and deletions.
	Maintainer = eval.Maintainer
	// MaintMode selects the maintenance approach.
	MaintMode = eval.Mode
	// ProofTree witnesses how a derived tuple follows from base facts.
	ProofTree = eval.ProofTree
)

// Maintenance approaches.
const (
	SetOfDerivations = eval.SetOfDerivations
	Counting         = eval.Counting
	Rederivation     = eval.Rederivation
)

// NewMaintainer builds an incremental view maintainer for a program.
func NewMaintainer(src string, mode MaintMode) (*Maintainer, error) {
	p, err := parser.Parse(src)
	if err != nil {
		return nil, err
	}
	return eval.NewMaintainer(p, mode, eval.Options{})
}

// NewTuple builds a ground fact.
func NewTuple(pred string, args ...Term) Tuple { return eval.NewTuple(pred, args...) }

// Parse parses a deductive program.
func Parse(src string) (*Program, error) { return parser.Parse(src) }

// Check parses and statically analyzes a program: safety, stratification
// and XY-stratification.
func Check(src string) (*Analysis, error) {
	p, err := parser.Parse(src)
	if err != nil {
		return nil, err
	}
	return analysis.Analyze(p)
}

// Eval runs the centralized reference evaluator over the program plus
// the given base facts.
func Eval(src string, facts []Tuple) (*Database, error) {
	p, err := parser.Parse(src)
	if err != nil {
		return nil, err
	}
	ev, err := eval.New(p, eval.Options{})
	if err != nil {
		return nil, err
	}
	return ev.Run(facts)
}

// MagicRewrite applies the magic-set transformation for a query literal
// such as "anc(a, X)" and returns the rewritten program source and the
// answer predicate key.
func MagicRewrite(src, query string) (string, string, error) {
	p, err := parser.Parse(src)
	if err != nil {
		return "", "", err
	}
	qr, err := parser.ParseRule(query + ".")
	if err != nil {
		return "", "", fmt.Errorf("snlog: bad query literal: %w", err)
	}
	tr, err := magic.Rewrite(p, qr.Head)
	if err != nil {
		return "", "", err
	}
	return tr.Program.String(), tr.AnswerPred, nil
}

// Options configures a deployment. Deploy builds one from the functional
// options it is passed (WithScheme, WithLoss, ...); the struct is exported
// because an Option is a function over it, so callers can write their
// own.
type Options struct {
	// Scheme is the GPA join scheme (default Perpendicular).
	Scheme Scheme
	// Server is the sink node for the Centralized scheme.
	Server int
	// MultiPass selects the multiple-pass join-computation scheme.
	MultiPass bool
	// LossRate is the per-transmission message loss probability.
	LossRate float64
	// MaxSkew bounds the clock skew between any two nodes (τc).
	MaxSkew int64
	// Seed drives all randomness (delays, loss, skew).
	Seed int64
	// DefaultWindow is the sliding-window range for undeclared streams.
	DefaultWindow int64
	// Retries is the link-layer ARQ re-attempt budget per transmission.
	Retries int
	// TraceCapacity, when positive, attaches a trace ring buffer
	// retaining up to this many trace events (send/recv/... plus the
	// fault kinds), readable via Cluster.Trace and Cluster.WriteTrace.
	TraceCapacity int
	// FaultSchedule, when non-nil, is applied to the deployment by a
	// deterministic fault injector seeded with FaultSeed.
	FaultSchedule *FaultSchedule
	// FaultSeed seeds the injector's probabilistic windows.
	FaultSeed int64
	// Provenance captures a lineage record per derivation, queryable
	// through Cluster.Explain and Cluster.Blame (see WithProvenance).
	Provenance bool
}

// Option is a functional deployment option for Deploy.
type Option func(*Options)

// WithScheme selects the GPA join scheme (default Perpendicular).
func WithScheme(s Scheme) Option { return func(o *Options) { o.Scheme = s } }

// WithServer sets the sink node for the Centralized scheme.
func WithServer(node int) Option { return func(o *Options) { o.Server = node } }

// WithMultiPass selects the multiple-pass join-computation scheme.
func WithMultiPass() Option { return func(o *Options) { o.MultiPass = true } }

// WithLoss sets the per-transmission message loss probability, in
// [0, 1); Deploy refuses any other rate with ErrBadNetwork.
func WithLoss(rate float64) Option { return func(o *Options) { o.LossRate = rate } }

// WithRetries sets the link-layer ARQ re-attempt budget.
func WithRetries(n int) Option { return func(o *Options) { o.Retries = n } }

// WithMaxSkew bounds the clock skew between any two nodes (τc).
func WithMaxSkew(ticks int64) Option { return func(o *Options) { o.MaxSkew = ticks } }

// WithSeed sets the seed driving all randomness (delays, loss, skew).
func WithSeed(seed int64) Option { return func(o *Options) { o.Seed = seed } }

// WithDefaultWindow sets the sliding-window range for undeclared
// streams.
func WithDefaultWindow(rng int64) Option { return func(o *Options) { o.DefaultWindow = rng } }

// WithFaults applies a deterministic fault schedule to the deployment.
// The injector's probabilistic windows draw from their own rng seeded
// with seed, so the same (schedule, seed) replays byte-identically and
// an empty schedule perturbs nothing.
func WithFaults(s *FaultSchedule, seed int64) Option {
	return func(o *Options) { o.FaultSchedule, o.FaultSeed = s, seed }
}

// WithTrace attaches a trace ring buffer retaining up to capacity
// events.
func WithTrace(capacity int) Option { return func(o *Options) { o.TraceCapacity = capacity } }

// WithProvenance captures, for every settled derivation, which rule
// instantiation produced it from which body tuples, at which nodes and
// times, over how many radio hops. Cluster.Explain then answers "why
// is this tuple in the database" and Cluster.Blame "why did it settle
// when it did". Off by default: capture allocates per derivation, and
// every published baseline is produced with provenance off.
func WithProvenance() Option { return func(o *Options) { o.Provenance = true } }

// Topology describes the network shape a program deploys onto; build
// one with Grid or Random and pass it to Deploy.
type Topology struct {
	build func(opt *Options) (*nsim.Network, error)
	desc  string
	// bandWidth, when positive, replaces the Perpendicular scheme's grid
	// rows and columns with geographic bands of this width.
	bandWidth float64
}

// String describes the topology ("grid 8x8").
func (t Topology) String() string { return t.desc }

// Grid is an m×m unit-spaced grid — the paper's evaluation topology.
func Grid(m int) Topology {
	return Topology{
		desc: fmt.Sprintf("grid %dx%d", m, m),
		build: func(opt *Options) (*nsim.Network, error) {
			return topo.Grid(m, simConfig(opt)), nil
		},
	}
}

// Random places n nodes uniformly at random in a side×side square with
// the given radio range, retrying until the topology is connected. The
// Perpendicular scheme runs on geographic bands 1.5× the radio range
// wide, matching the GPA generalization.
func Random(n int, side, radioRange float64) Topology {
	return Topology{
		desc: fmt.Sprintf("random n=%d side=%g range=%g", n, side, radioRange),
		build: func(opt *Options) (*nsim.Network, error) {
			return topo.RandomGeometric(n, side, radioRange, opt.Seed+1, simConfig(opt))
		},
		bandWidth: 1.5 * radioRange,
	}
}

func simConfig(opt *Options) nsim.Config {
	return nsim.Config{
		Seed:     opt.Seed,
		LossRate: opt.LossRate,
		MaxSkew:  nsim.Time(opt.MaxSkew),
		Retries:  opt.Retries,
	}
}

// Cluster is a deployed program: a simulated network running the
// compiled per-node code, plus its observability layer (reg/trace).
type Cluster struct {
	Engine  *core.Engine
	Network *nsim.Network

	reg    *obs.Registry
	trace  *obs.Trace
	faults *fault.Injector
}

// Deploy compiles src onto the given topology:
//
//	cluster, err := snlog.Deploy(snlog.Grid(8), src,
//	    snlog.WithScheme(snlog.Perpendicular),
//	    snlog.WithLoss(0.1), snlog.WithRetries(2),
//	    snlog.WithTrace(1<<16))
//
// Every deployment carries a counter registry (see Snapshot); a trace
// ring buffer is attached only with WithTrace.
func Deploy(t Topology, src string, opts ...Option) (*Cluster, error) {
	var o Options
	for _, f := range opts {
		f(&o)
	}
	nw, err := t.build(&o)
	if err != nil {
		return nil, err
	}
	var bandWidth float64
	if o.Scheme == Perpendicular {
		bandWidth = t.bandWidth
	}
	return deploy(nw, src, o, bandWidth)
}

func deploy(nw *nsim.Network, src string, opt Options, bandWidth float64) (*Cluster, error) {
	prog, err := parser.Parse(src)
	if err != nil {
		return nil, err
	}
	c := &Cluster{Network: nw, reg: obs.NewRegistry()}
	if opt.TraceCapacity > 0 {
		c.trace = obs.NewTrace(opt.TraceCapacity)
	}
	c.Engine, err = core.Deploy(nw, prog, core.Config{
		Scheme:        opt.Scheme,
		Server:        nsim.NodeID(opt.Server),
		MultiPass:     opt.MultiPass,
		BandWidth:     bandWidth,
		DefaultWindow: opt.DefaultWindow,
	}, c.reg, c.trace, opt.Provenance)
	if err != nil {
		return nil, err
	}
	if opt.FaultSchedule != nil {
		c.faults = fault.Attach(nw, opt.FaultSchedule, opt.FaultSeed)
		c.faults.Observe(c.reg)
	}
	return c, nil
}

// Size returns the number of nodes.
func (c *Cluster) Size() int { return c.Network.Len() }

// Inject generates a base fact at a node, now. It returns an error —
// and injects nothing — for out-of-range nodes, non-ground tuples,
// derived or unknown predicates, and arity mismatches.
func (c *Cluster) Inject(node int, t Tuple) error {
	return c.Engine.Inject(nsim.NodeID(node), t)
}

// InjectAt generates a base fact at a node at an absolute virtual
// time. Validation errors are reported immediately (see Inject).
func (c *Cluster) InjectAt(at int64, node int, t Tuple) error {
	return c.Engine.InjectAt(nsim.Time(at), nsim.NodeID(node), t)
}

// DeleteAt deletes a previously injected base fact at its source node.
// Validation errors are reported immediately (see Inject).
func (c *Cluster) DeleteAt(at int64, node int, t Tuple) error {
	return c.Engine.InjectDeleteAt(nsim.Time(at), nsim.NodeID(node), t)
}

// Validate checks an injection/deletion pair against the deployed
// program and topology without scheduling anything: the same checks —
// and the same typed sentinels — Inject, InjectAt and DeleteAt apply.
// The serving layer uses it to validate buffered writes at enqueue
// time, before the coalesced batch is applied.
func (c *Cluster) Validate(node int, t Tuple) error {
	return c.Engine.Validate(nsim.NodeID(node), t)
}

// Run processes the network to quiescence and returns the virtual end
// time.
func (c *Cluster) Run() int64 { return int64(c.Network.Run(0)) }

// RunUntil processes events up to the given virtual time.
func (c *Cluster) RunUntil(t int64) int64 { return int64(c.Network.Run(nsim.Time(t))) }

// Replay schedules a repair pass that re-executes the base timeline —
// every node's own base generations, read off its replica store — to
// restore state lost to injected faults; run the cluster dry
// afterwards. Call at quiescence, after the fault schedule has healed
// (FaultSchedule.End), on a deployment whose windows are unbounded.
func (c *Cluster) Replay() { c.Engine.Replay() }

// FaultCounts reports the fault injector's bookkeeping (zero without
// WithFaults).
func (c *Cluster) FaultCounts() FaultCounts {
	if c.faults == nil {
		return FaultCounts{}
	}
	return c.faults.Counts
}

// Results returns the live derived tuples of a predicate ("name/arity").
func (c *Cluster) Results(pred string) []Tuple { return c.Engine.Derived(pred) }

// Validation sentinels: every validation failure from Inject, InjectAt,
// DeleteAt and Query wraps exactly one of these, matchable with
// errors.Is (the messages are unchanged). ErrBadNode: node ID out of
// range. ErrNotGround: tuple carries a variable. ErrDerivedPredicate:
// injecting a derived predicate. ErrUnknownPredicate: predicate the
// program never mentions. ErrArity: right name, wrong arity.
// ErrBasePredicate: querying a base predicate. ErrBadGoal: goal text
// that is not a single positive literal. The last two come from Deploy.
// ErrNegationNeedsHead: a rule whose negation is checked at the head's
// home node uses a variable the settled head tuple cannot give back (see
// DESIGN.md). ErrBadNetwork: a topology with no nodes, or a loss rate
// outside [0, 1).
var (
	ErrBadNode          = core.ErrBadNode
	ErrNotGround        = core.ErrNotGround
	ErrDerivedPredicate = core.ErrDerivedPredicate
	ErrUnknownPredicate = core.ErrUnknownPredicate
	ErrArity            = core.ErrArity
	ErrBasePredicate    = core.ErrBasePredicate
	ErrBadGoal          = core.ErrBadGoal

	ErrNegationNeedsHead = core.ErrNegationNeedsHead
	ErrBadNetwork        = core.ErrBadNetwork
)

// Query answers a point query against the cluster's live derived
// state: goal is a literal such as "path(n0, X)" — ground arguments
// must match exactly, variables bind (a repeated variable must match
// equal arguments). The goal is parsed and validated on the shared
// path the serving layer uses, returning the typed validation errors
// above; matching tuples come back in canonical order. Run the
// cluster to quiescence first — Query reads, it does not advance
// virtual time.
func (c *Cluster) Query(goal string) ([]Tuple, error) {
	lit, err := c.Engine.ParseGoal(goal)
	if err != nil {
		return nil, err
	}
	return core.MatchGoal(lit, c.Engine.Derived(lit.PredKey())), nil
}

// Registry exposes the cluster's live counter registry so embedding
// layers (the query-serving sessions of internal/serve, custom
// harnesses) can register their own counters and histograms next to
// the built-in ones; they then appear in Snapshot like any other
// metric. Most applications only need Snapshot.
func (c *Cluster) Registry() *obs.Registry { return c.reg }

// Explain returns the derivation DAG of a derived tuple down to base
// facts — which rule instantiations support it, produced where, from
// which body tuples, settled when. Requires WithProvenance; a tuple
// with no live derivation (never derived, or derived then deleted)
// returns an error. Render the tree with its String method, or export
// it with WriteExplainDOT / WriteExplainJSONL.
func (c *Cluster) Explain(pred string, args ...Term) (*ExplainTree, error) {
	return c.Engine.Explain(pred, args...)
}

// Blame returns the critical path of a derived tuple: the chain of
// derivations it was gated on, with per-edge hop counts, route times
// and settle-to-settle waits. Requires WithProvenance.
func (c *Cluster) Blame(pred string, args ...Term) (*BlameResult, error) {
	return c.Engine.Blame(pred, args...)
}

// WriteExplainDOT writes a tuple's derivation DAG as a Graphviz
// digraph.
func (c *Cluster) WriteExplainDOT(w io.Writer, pred string, args ...Term) error {
	t, err := c.Explain(pred, args...)
	if err != nil {
		return err
	}
	return provenance.WriteDOT(w, t)
}

// WriteExplainJSONL writes a tuple's derivation DAG as JSONL, one node
// per line with parent links.
func (c *Cluster) WriteExplainJSONL(w io.Writer, pred string, args ...Term) error {
	t, err := c.Explain(pred, args...)
	if err != nil {
		return err
	}
	return provenance.WriteJSONL(w, t)
}

// CollectAggregate schedules a TAG-style in-network collection epoch for
// an aggregate rule's head predicate, rooted at the sink node. The
// result is readable with AggregateResult after Run.
func (c *Cluster) CollectAggregate(at int64, pred string, sink int) error {
	return c.Engine.CollectAggregateAt(nsim.Time(at), pred, nsim.NodeID(sink))
}

// AggregateResult returns the tuples produced by the last completed
// collection epoch of an aggregate predicate.
func (c *Cluster) AggregateResult(pred string) []Tuple {
	return c.Engine.AggregateResult(pred)
}

// Observability re-exports: the counter snapshot and trace types of
// internal/obs, so applications can consume Cluster.Snapshot and
// Cluster.Trace without importing internal packages.
type (
	// Snapshot is a point-in-time view of every cluster metric, keyed
	// by dotted counter names ("nsim.messages", "core.derivations", ...;
	// the full list is documented in the README and in the Observe
	// methods of internal/nsim and internal/core).
	Snapshot = obs.Snapshot
	// TraceEvent is one recorded send/recv/drop/derive/delete/settle.
	TraceEvent = obs.Event
	// TraceFilter selects trace events for export (zero Node matches
	// only node 0; use AnyNode for no node constraint).
	TraceFilter = obs.Filter
	// ExplainTree is a derived tuple's derivation DAG down to base
	// facts (Cluster.Explain; render with String).
	ExplainTree = provenance.Tree
	// BlameResult is a derived tuple's critical path — the chain of
	// latest-settling derivations with per-edge attribution
	// (Cluster.Blame; render with String).
	BlameResult = provenance.CriticalPath
)

// AnyNode is the TraceFilter wildcard for the Node field.
const AnyNode = obs.AnyNode

// Snapshot samples every registered metric of the deployment: the
// simulator's accounting ("nsim." prefix), the deductive engine's work
// and memory counters ("core." prefix), and the routing cache
// ("routing." prefix).
func (c *Cluster) Snapshot() Snapshot { return c.reg.Snapshot() }

// Trace returns the trace ring buffer, or nil unless the cluster was
// deployed with WithTrace.
func (c *Cluster) Trace() *obs.Trace { return c.trace }

// WriteTrace exports the retained trace events passing f as JSONL (one
// object per line) and returns how many were written. An error is
// returned when no trace is attached.
func (c *Cluster) WriteTrace(w io.Writer, f TraceFilter) (int, error) {
	if c.trace == nil {
		return 0, fmt.Errorf("snlog: no trace attached; deploy with WithTrace")
	}
	return c.trace.WriteJSONL(w, f)
}

// Stats summarizes communication and memory costs.
type Stats struct {
	Messages    int64
	Bytes       int64
	Dropped     int64
	Retries     int64
	MaxNodeLoad int64
	ByKind      map[string]int64
	MaxMemory   int
	AvgMemory   float64
}

// Stats reads the cluster's accumulated cost counters. It is a fixed
// view over Snapshot — every field is a renamed snapshot counter —
// retained for the tables the experiments print; new code should
// prefer Snapshot, which exposes strictly more.
func (c *Cluster) Stats() Stats {
	s := c.Snapshot()
	avg := 0.0
	if nodes := s.Get("nsim.nodes"); nodes > 0 {
		avg = float64(s.Get("core.mem.total_tuples")) / float64(nodes)
	}
	return Stats{
		Messages:    s.Get("nsim.messages"),
		Bytes:       s.Get("nsim.bytes"),
		Dropped:     s.Get("nsim.dropped"),
		Retries:     s.Get("nsim.retries"),
		MaxNodeLoad: s.Get("nsim.max_node_load"),
		ByKind:      s.Prefix("nsim.messages."),
		MaxMemory:   int(s.Get("core.mem.max_tuples")),
		AvgMemory:   avg,
	}
}

// GridID returns the node ID at grid coordinates (p, q) of an m×m grid.
func GridID(m, p, q int) int { return int(topo.GridID(m, p, q)) }

// NodeSym returns the default symbolic name of node id (used by
// placement-based programs such as the shortest-path tree).
func NodeSym(id int) Term { return ast.Symbol(fmt.Sprintf("n%d", id)) }
