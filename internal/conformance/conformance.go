// Package conformance is the correctness lab of the timing stack: a
// registry of executable metamorphic laws (PBA vs GBA, CRPR, k-worst
// ordering, incremental vs full analysis, MCMM merging, monotonicity,
// serial-vs-parallel byte-equality) checked over randomly generated
// designs, plus the minimized-reproducer plumbing that turns a failing
// law instance into a permanent regression case. The paper's thesis —
// every tightening of the goal posts is only trustworthy if the analyses
// stay mutually consistent — becomes a test harness here: instead of
// spot-checking a handful of hand-written designs, every invariant is a
// law quantified over a design distribution.
package conformance

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"net/http/httptest"
	"sort"
	"sync"
	"time"

	"newgame/internal/cluster"
	"newgame/internal/core"
	"newgame/internal/liberty"
	"newgame/internal/netlist"
	"newgame/internal/parasitics"
	"newgame/internal/sta"
	"newgame/internal/timingd"
	"newgame/internal/timingd/client"
	"newgame/internal/units"
)

// Scope says how often a law runs: once per generated design, or once
// per registry run (library-level and engine-determinism laws whose
// inputs don't vary by design).
type Scope int

const (
	// PerDesign laws quantify over the random design distribution.
	PerDesign Scope = iota
	// PerRun laws check process-wide artifacts (the shared library,
	// generator determinism) once per sweep.
	PerRun
)

// Invariant is one executable law.
type Invariant struct {
	// Name is the stable law identifier (kebab-case); repro records
	// reference it.
	Name string
	// Law is the one-line statement of what must hold and why.
	Law string
	// Scope selects per-design or per-run evaluation.
	Scope Scope
	// Check evaluates the law; a non-nil error is a violation (or an
	// infrastructure failure — both fail the sweep).
	Check func(cx *Ctx) error
}

// Registry returns every law, in evaluation order. Laws that mutate the
// design work on clones, so the order is not load-bearing; it is chosen
// so the cheapest laws report first.
func Registry() []Invariant {
	return []Invariant{
		{
			Name:  "crpr-credit-nonnegative",
			Law:   "CRPR removes pessimism only: the credit is ≥ 0 at every endpoint and vanishes when early and late clock analyses coincide",
			Scope: PerDesign,
			Check: checkCRPR,
		},
		{
			Name:  "pba-refines-gba",
			Law:   "path-based analysis only removes pessimism: PBA slack ≥ GBA slack for every retimed path, setup and hold",
			Scope: PerDesign,
			Check: checkPBARefinesGBA,
		},
		{
			Name:  "kworst-sorted-prefix-stable",
			Law:   "k-worst path lists are sorted worst-first and prefix-stable in k; slack-window path sets stay inside the window",
			Scope: PerDesign,
			Check: checkKWorst,
		},
		{
			Name:  "slack-linear-in-period",
			Law:   "single-cycle setup slack shifts exactly with the clock period; hold slack is period-independent",
			Scope: PerDesign,
			Check: checkSlackLinearInPeriod,
		},
		{
			Name:  "sta-serial-parallel-identical",
			Law:   "level-parallel propagation is bit-identical to serial at every worker count",
			Scope: PerDesign,
			Check: checkSTASerialParallel,
		},
		{
			Name:  "csr-matches-pointer-walk",
			Law:   "the SoA core's CSR successor and fanin lists enumerate exactly the edges of the netlist pointer walk, in the same order",
			Scope: PerDesign,
			Check: checkCSRMatchesPointerWalk,
		},
		{
			Name:  "soa-topology-shared-isolated",
			Law:   "two analyzers sharing one frozen topology, edited along different what-if scripts, each stay bit-identical to fully independent analyzers",
			Scope: PerDesign,
			Check: checkTopologySharedIsolated,
		},
		{
			Name:  "mcmm-merge-min-sum",
			Law:   "the closure engine's MCMM survey is pure aggregation at any worker count: merged WNS is the min over scenarios, each scenario's WNS (clamped at 0) and TNS (the per-endpoint sum) re-derive from its endpoint list, and surveys and analyzers are identical at 1 and 4 workers",
			Scope: PerDesign,
			Check: checkMCMMMerge,
		},
		{
			Name:  "incremental-matches-full",
			Law:   "incremental Update after an arbitrary resize edit script is bit-identical to a full Run on the edited design",
			Scope: PerDesign,
			Check: checkIncrementalMatchesFull,
		},
		{
			Name:  "pack-roundtrip-identical",
			Law:   "a snapshot pack round-trip — encode, decode, rebuild from decoded bytes only — reproduces the live analyzer's observable timing state bit-for-bit",
			Scope: PerDesign,
			Check: checkPackRoundTrip,
		},
		{
			Name:  "dominance-prune-sound",
			Law:   "scenario-dominance pruning skips path walks, never numbers: every pruned (endpoint, scenario) pair re-analyzed without pruning has slack no worse than its dominating sibling reported, and the clustered report is unchanged",
			Scope: PerDesign,
			Check: checkDominancePruneSound,
		},
		{
			Name:  "triage-cluster-merge-identical",
			Law:   "the /triage relation graph merged from 1/2/4-shard clusters is byte-identical to a single node holding the full recipe",
			Scope: PerDesign,
			Check: checkTriageClusterMerge,
		},
		{
			Name:  "survey-resident-identical",
			Law:   "a closure engine that keeps its analyzers between surveys is indistinguishable from one built per survey: across retyped cells, an NDR, useful-skew offsets and an inserted buffer — none of which may cost it an analyzer — every survey and every analyzer's full timing state are bit-identical to a fresh engine's",
			Scope: PerDesign,
			Check: checkSurveyResident,
		},
		{
			Name:  "checks-resident-identical",
			Law:   "endpoint checks evaluated once per re-time are what any reader would compute: along resizes, a routing rule and a buffer inserted and taken out again, the lists and summaries an analyzer kept through incremental updates and in-place re-runs equal a freshly built and run analyzer's, and each summary equals its recomputation from the list",
			Scope: PerDesign,
			Check: checkChecksResident,
		},
		{
			// Registered last among the per-design laws: it draws from the
			// design's rng, and every law before it keeps its stream.
			Name:  "slack-conserved-across-nets",
			Law:   "the forward and the backward pass charge a net edge the same: with useful-skew offsets on a third of the flops, every net's driver carries exactly the worst setup slack among its sinks",
			Scope: PerDesign,
			Check: checkSlackConservedAcrossNets,
		},
		{
			// Draws nothing from the design's rng.
			Name:  "triage-resident-identical",
			Law:   "what a server keeps between triage renders never shows: along resizes, a buffer ECO and a buffer what-if, one server's /triage and /triage/extract bodies at every epoch equal those of a server booted fresh and taken to the same netlist",
			Scope: PerDesign,
			Check: checkTriageResident,
		},
		{
			Name:  "delay-monotone-load-slew",
			Law:   "NLDM cell delay and output slew are nondecreasing in output load and input slew over every characterized arc",
			Scope: PerRun,
			Check: checkDelayMonotone,
		},
		{
			Name:  "libgen-workers-identical",
			Law:   "parallel library characterization is byte-identical to serial",
			Scope: PerRun,
			Check: checkLibgenWorkers,
		},
		{
			Name:  "survey-workers-identical",
			Law:   "the closure engine's MCMM survey merges identically at every worker count",
			Scope: PerRun,
			Check: checkSurveyWorkers,
		},
		{
			Name:  "cluster-merge-identical",
			Law:   "a scenario-sharded timingd cluster is invisible: merged reads are bit-identical to a single node at every shard count, merged WNS/TNS are exactly min/sum, and an epoch-barrier ECO lands on the single node's post-commit state",
			Scope: PerRun,
			Check: checkClusterMerge,
		},
	}
}

// Ctx carries everything one law evaluation needs. Per-design laws get a
// fresh Ctx per generated design; per-run laws get one with a zero Spec.
type Ctx struct {
	Spec  DesignSpec
	Lib   *liberty.Library
	Stack *parasitics.Stack
	// Design/Cons are the generated block and its SDC view. Laws that
	// mutate netlists must work on clones.
	Design *netlist.Design
	Cons   *sta.Constraints
	// Edits is the requested edit-script length for incremental laws.
	Edits int
	// ForcedEdits, when non-nil, replaces the random edit script — the
	// replay path of a minimized reproducer.
	ForcedEdits []EditOp
	// AppliedEdits records the script the incremental law actually ran,
	// so a failure can be minimized and persisted.
	AppliedEdits []EditOp

	rng  *rand.Rand
	base *sta.Analyzer
	// triagePd memoizes the violation-forcing period the triage laws
	// share, so the probe analysis runs once per design.
	triagePd units.Ps
}

// Lib returns the process-shared Node16 library the lab analyzes against,
// generated once: every design in a sweep shares it, exactly like a real
// signoff flow.
var Lib = sync.OnceValue(func() *liberty.Library {
	return liberty.Generate(liberty.Node16,
		liberty.PVT{Process: liberty.TT, Voltage: 0.8, Temp: 85}, liberty.GenOptions{})
})

// newCtx builds the context one law evaluation runs in: the shared library,
// the stack and a deterministic rng keyed by the design seed and, for a
// per-design law, the generated block and its constraints. Per-run laws get
// the zero spec.
func newCtx(scope Scope, spec DesignSpec, edits int) *Ctx {
	cx := &Ctx{
		Spec:  spec,
		Lib:   Lib(),
		Stack: parasitics.Stack16(),
		Edits: edits,
		rng:   rand.New(rand.NewSource(mix(spec.Seed, 0x5eed))),
	}
	if scope == PerDesign {
		cx.Design = spec.Build(cx.Lib)
		cx.Cons = cx.constraintsFor(cx.Design, units.Ps(spec.Period))
	}
	return cx
}

// constraintsFor builds the SDC view used by every law: the clock at the
// spec period plus IO delay windows on all data ports, so port endpoints
// participate in the checks.
func (cx *Ctx) constraintsFor(d *netlist.Design, period units.Ps) *sta.Constraints {
	cons := sta.NewConstraints()
	cons.AddClock("clk", period, d.Port("clk"))
	for _, p := range d.Ports {
		if p.Name == "clk" {
			continue
		}
		switch p.Dir {
		case netlist.Input:
			cons.InputDelay[p] = sta.IODelay{Min: 10, Max: 30}
		case netlist.Output:
			cons.OutputDelay[p] = sta.IODelay{Clock: cons.Clocks[0], Min: 5, Max: 25}
		}
	}
	return cons
}

// fullCfg is the stressed analysis view (AOCV + SI + MIS) most laws are
// quantified over — the NEW-goal-posts end of the paper's Figure 2.
func (cx *Ctx) fullCfg(workers int) sta.Config {
	return sta.Config{
		Lib:        cx.Lib,
		Parasitics: sta.NewNetBinder(cx.Stack, cx.Spec.Seed),
		SI:         sta.DefaultSI(),
		Derate:     sta.DefaultAOCV(),
		MIS:        true,
		Workers:    workers,
	}
}

// Base lazily builds and runs the shared serial reference analyzer.
func (cx *Ctx) Base() (*sta.Analyzer, error) {
	if cx.base == nil {
		a, err := analyze(cx.Design, cx.Cons, cx.fullCfg(1))
		if err != nil {
			return nil, err
		}
		cx.base = a
	}
	return cx.base, nil
}

// analyze builds an analyzer over d and runs it.
func analyze(d *netlist.Design, cons *sta.Constraints, cfg sta.Config) (*sta.Analyzer, error) {
	a, err := sta.New(d, cons, cfg)
	if err != nil {
		return nil, err
	}
	return a, a.Run()
}

// sameState is nil when got's timing state is bit-identical to want's, and
// otherwise an error naming what differed and both fingerprints.
func sameState(what string, got, want *sta.Analyzer) error {
	if g, w := Fingerprint(got), Fingerprint(want); g != w {
		return fmt.Errorf("%s: state %s, want %s", what, g[:16], w[:16])
	}
	return nil
}

// script returns the edit script a law applies to d — the forced one when a
// reproducer is replayed, a fresh random one otherwise — and records it, so
// a failure can be minimized and persisted.
func (cx *Ctx) script(d *netlist.Design) []EditOp {
	s := cx.ForcedEdits
	if s == nil {
		s = randomEditScript(cx, d)
	}
	cx.AppliedEdits = s
	return s
}

// buildViews times scens over d at the given period: one serial analyzer per
// scenario, sharing trees and a frozen topology — the arrangement timingd
// holds.
func buildViews(d *netlist.Design, scens []core.Scenario, period units.Ps, trees *sta.Parasitics) (*core.Views, error) {
	v := &core.Views{
		D: d, ClockPort: d.Port("clk"), BasePeriod: period, Scenarios: scens,
		Parasitics: trees, Workers: 1,
	}
	return v, v.Build(context.Background())
}

// rig is one booted timingd deployment behind one client: a single node
// holding every scenario, or a coordinator in front of its shards. Laws
// compare bodies by decoding them into json.RawMessage: the JSON value,
// without the newline every reply ends in.
type rig struct {
	c       *client.Client
	closers []func()
}

// close shuts the rig down, shards before their coordinator.
func (r *rig) close() {
	for i := len(r.closers) - 1; i >= 0; i-- {
		r.closers[i]()
	}
}

// bootCluster serves cfg's recipe. Zero shards boots the single-node
// reference; otherwise shards workers, scenario j on worker j%shards, each
// registered over the wire with a fresh coordinator the rig's client talks
// to.
func bootCluster(shards int, cfg timingd.Config) (*rig, error) {
	r := &rig{}
	boot := func(cfg timingd.Config) (*timingd.Server, string, error) {
		srv, err := timingd.NewServer(cfg)
		if err != nil {
			return nil, "", err
		}
		hs := httptest.NewServer(srv)
		r.closers = append(r.closers, func() { hs.Close(); srv.Close() })
		return srv, hs.URL, nil
	}
	if shards == 0 {
		_, url, err := boot(cfg)
		if err != nil {
			return nil, err
		}
		r.c = client.New(url)
		return r, nil
	}
	names := make([]string, len(cfg.Recipe.Scenarios))
	for i, sc := range cfg.Recipe.Scenarios {
		names[i] = sc.Name
	}
	c, err := cluster.New(cluster.Config{
		Scenarios:         names,
		HeartbeatInterval: time.Hour, // the laws drive membership explicitly
		RetryDelay:        time.Millisecond,
		Seed:              7,
	})
	if err != nil {
		return nil, err
	}
	chs := httptest.NewServer(c.Handler())
	r.closers = append(r.closers, func() { chs.Close(); c.Close() })
	r.c = client.New(chs.URL)
	for i := 0; i < shards; i++ {
		wc := cfg
		wc.Role, wc.ScenarioFilter = "worker", []string{}
		for j := i; j < len(names); j += shards {
			wc.ScenarioFilter = append(wc.ScenarioFilter, names[j])
		}
		srv, url, err := boot(wc)
		if err == nil {
			err = r.c.Do(context.Background(), "POST", "/cluster/register", cluster.RegisterRequest{
				ID: fmt.Sprintf("w%d", i), URL: url, Epoch: srv.Epoch(), Scenarios: srv.ScenarioSet(),
			}, nil)
		}
		if err != nil {
			r.close()
			return nil, fmt.Errorf("worker w%d: %v", i, err)
		}
	}
	return r, nil
}

// acrossShards boots cfg's recipe at 1, 2 and 4 shards in turn and checks
// each cluster.
func acrossShards(cfg timingd.Config, check func(*rig) error) error {
	for _, shards := range []int{1, 2, 4} {
		r, err := bootCluster(shards, cfg)
		if err == nil {
			err = check(r)
			r.close()
		}
		if err != nil {
			return fmt.Errorf("shards=%d: %v", shards, err)
		}
	}
	return nil
}

// Options shapes one registry sweep.
type Options struct {
	// Designs is the number of random designs per-design laws quantify
	// over (default 25).
	Designs int
	// Edits is the edit-script length for incremental laws (default 8).
	Edits int
	// Seed keys the whole sweep.
	Seed int64
	// Only, when non-empty, restricts the sweep to the named laws.
	Only map[string]bool
	// Out, when non-nil, receives per-law progress lines.
	Out io.Writer
	// Verbose adds per-design lines to Out.
	Verbose bool
}

// LawResult aggregates one law's sweep outcome.
type LawResult struct {
	Invariant Invariant
	Checks    int
	Failures  []Failure
	Elapsed   time.Duration
}

// Failure is one violated (or crashed) law instance, with enough state
// to replay it.
type Failure struct {
	Invariant string
	Err       string
	Repro     Repro
}

// Result is the outcome of one sweep.
type Result struct {
	Designs int
	Laws    []LawResult
	Elapsed time.Duration
}

// Failures flattens every law's failures.
func (r Result) Failures() []Failure {
	var out []Failure
	for _, lr := range r.Laws {
		out = append(out, lr.Failures...)
	}
	return out
}

// String renders the operator-facing summary table.
func (r Result) String() string {
	var b []byte
	b = append(b, fmt.Sprintf("conformance: %d designs, %d laws in %.1fs\n",
		r.Designs, len(r.Laws), r.Elapsed.Seconds())...)
	for _, lr := range r.Laws {
		status := "ok"
		if len(lr.Failures) > 0 {
			status = fmt.Sprintf("FAIL x%d", len(lr.Failures))
		}
		b = append(b, fmt.Sprintf("  %-32s %4d checks %8s  %s\n",
			lr.Invariant.Name, lr.Checks, lr.Elapsed.Round(time.Millisecond), status)...)
	}
	return string(b)
}

// Run executes the registry sweep: every per-design law over Designs
// generated blocks, every per-run law once.
func Run(opts Options) Result {
	if opts.Designs <= 0 {
		opts.Designs = 25
	}
	if opts.Edits <= 0 {
		opts.Edits = 8
	}
	laws := Registry()
	if len(opts.Only) > 0 {
		kept := laws[:0]
		for _, law := range laws {
			if opts.Only[law.Name] {
				kept = append(kept, law)
			}
		}
		laws = kept
	}
	results := make([]LawResult, len(laws))
	for i, law := range laws {
		results[i].Invariant = law
	}

	start := time.Now()
	// Per-run laws first: they gate everything else (a non-deterministic
	// library would invalidate every per-design comparison).
	runCtx := newCtx(PerRun, DesignSpec{}, opts.Edits)
	for i, law := range laws {
		if law.Scope != PerRun {
			continue
		}
		t0 := time.Now()
		if err := law.Check(runCtx); err != nil {
			results[i].Failures = append(results[i].Failures, Failure{
				Invariant: law.Name, Err: err.Error(),
				Repro: Repro{Invariant: law.Name},
			})
		}
		results[i].Checks++
		results[i].Elapsed += time.Since(t0)
		progress(opts, "law %s: done (%s)", law.Name, time.Since(t0).Round(time.Millisecond))
	}

	for d := 0; d < opts.Designs; d++ {
		spec := SpecFor(mix(opts.Seed, int64(d)))
		cx := newCtx(PerDesign, spec, opts.Edits)
		if opts.Verbose {
			progress(opts, "design %d/%d: %+v", d+1, opts.Designs, spec)
		}
		for i, law := range laws {
			if law.Scope != PerDesign {
				continue
			}
			t0 := time.Now()
			cx.AppliedEdits = nil
			if err := law.Check(cx); err != nil {
				results[i].Failures = append(results[i].Failures, Failure{
					Invariant: law.Name, Err: err.Error(),
					Repro: Repro{Invariant: law.Name, Design: spec, Edits: cx.AppliedEdits},
				})
			}
			results[i].Checks++
			results[i].Elapsed += time.Since(t0)
		}
	}
	return Result{Designs: opts.Designs, Laws: results, Elapsed: time.Since(start)}
}

func progress(opts Options, format string, args ...any) {
	if opts.Out != nil {
		fmt.Fprintf(opts.Out, format+"\n", args...)
	}
}

// mix derives independent sub-seeds (splitmix64 finalizer) so every
// design and law sees an uncorrelated deterministic stream.
func mix(seed, i int64) int64 {
	z := uint64(seed) + uint64(i)*0x9E3779B97F4A7C15 + 0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return int64(z ^ (z >> 31))
}

// sortedEndpoints returns both check kinds' endpoint lists; shared by
// several laws.
func sortedEndpoints(a *sta.Analyzer) []sta.EndpointSlack {
	out := a.EndpointSlacks(sta.Setup)
	out = append(out, a.EndpointSlacks(sta.Hold)...)
	sort.SliceStable(out, func(i, j int) bool { return out[i].Slack < out[j].Slack })
	return out
}
