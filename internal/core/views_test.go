package core_test

import (
	"context"
	"errors"
	"runtime"
	"slices"
	"strings"
	"sync/atomic"
	"testing"

	"newgame/internal/circuits"
	"newgame/internal/conformance"
	"newgame/internal/core"
	"newgame/internal/liberty"
	"newgame/internal/netlist"
	"newgame/internal/obs"
	"newgame/internal/parasitics"
	"newgame/internal/sta"
)

// viewsOver describes a four-scenario set over d: the old recipe's two
// corners, each at a tight and a loose margin, so the pool has three
// scenarios to spread. The keyed binder makes a net's tree a function of its
// name and fanout alone, so sets over clones of one netlist are comparable
// bit for bit whatever each has computed before.
func viewsOver(d *netlist.Design, recipe core.Recipe, workers int) *core.Views {
	var scen []core.Scenario
	for _, s := range recipe.Scenarios {
		loose := s
		loose.Name += "_loose"
		loose.SetupUncertainty, loose.HoldUncertainty = s.SetupUncertainty/2, s.HoldUncertainty/2
		scen = append(scen, s, loose)
	}
	return &core.Views{
		D: d, ClockPort: d.Port("clk"), BasePeriod: 560, Scenarios: scen,
		Parasitics: sta.NewKeyedNetBinder(parasitics.Stack16(), 42),
		Workers:    workers,
	}
}

func fingerprints(v *core.Views) []string {
	out := make([]string, len(v.Analyzers()))
	for i, a := range v.Analyzers() {
		out[i] = conformance.Fingerprint(a)
	}
	return out
}

// Every operation leaves each analyzer in the state a freshly built one
// reaches on the same netlist, at any worker count — a buffer going in and
// coming out again included, which only Build replaces analyzers for; a
// cancelled Build leaves the set exactly as it was.
func TestViewsMatchFreshBuild(t *testing.T) {
	recipe := core.OldGoalPosts(liberty.Node16, parasitics.Stack16())
	lib := recipe.Scenarios[0].Lib
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()

	for _, workers := range []int{1, 4} {
		d := circuits.Block(lib, circuits.BlockSpec{
			Name: "views", Inputs: 10, Outputs: 10, FFs: 24, Gates: 260,
			MaxDepth: 9, Seed: 42, ClockBufferLevels: 2,
			VtMix: [3]float64{0.1, 0.5, 0.4},
		})
		v := viewsOver(d, recipe, workers)
		// busy[g] is set while worker g runs a scenario: a hook that finds
		// it set saw a g that another scenario is running on.
		var hooked, finished atomic.Int32
		var busy [8]atomic.Bool
		v.Each = func(s core.Scenario, g int, _ *sta.Constraints, _ *sta.Config) func() {
			hooked.Add(1)
			if !busy[g].CompareAndSwap(false, true) {
				t.Errorf("workers %d: scenario %s overlaps another on worker %d", workers, s.Name, g)
			}
			return func() {
				busy[g].Store(false)
				finished.Add(1)
			}
		}
		// retype swaps the Vt of up to n combinational cells not yet swapped
		// and returns them.
		swapped := map[*netlist.Cell]bool{}
		retype := func(n int) []*netlist.Cell {
			var cells []*netlist.Cell
			for _, c := range d.Cells {
				m := lib.Cell(c.TypeName)
				to := lib.Variant(m, m.Drive, liberty.LVT)
				if len(cells) < n && !swapped[c] && !m.IsSequential() && to != nil && to != m {
					c.SetType(to.Name)
					swapped[c] = true
					cells = append(cells, c)
				}
			}
			if len(cells) == 0 {
				t.Fatal("no cell to retype")
			}
			return cells
		}

		var buf *conformance.BufferEdit
		for _, step := range []struct {
			name   string
			hooked bool // the step passes every scenario through Each
			kept   bool // the step re-times the analyzers it found
			run    func() error
		}{
			{"build", true, false, func() error { return v.Build(context.Background()) }},
			{"update", false, true, func() error {
				for _, c := range retype(10) {
					for _, a := range v.Analyzers() {
						a.InvalidateCell(c)
					}
				}
				return v.Update(context.Background())
			}},
			{"re-run", true, true, func() error {
				retype(10)
				return v.Rerun(context.Background())
			}},
			{"re-run after InsertBuffer", true, true, func() (err error) {
				for _, n := range d.Nets {
					if n.Driver != nil && len(n.Loads) >= 2 {
						if buf, err = conformance.InsertBuffer(d, n, n.Loads[:1], "BUF_X1_SVT"); err != nil {
							return err
						}
						break
					}
				}
				return v.Rerun(context.Background())
			}},
			{"re-run after removing it", true, true, func() error {
				buf.Undo(d)
				return v.Rerun(context.Background())
			}},
		} {
			hooked.Store(0)
			finished.Store(0)
			found := append([]*sta.Analyzer(nil), v.Analyzers()...)
			if err := step.run(); err != nil {
				t.Fatalf("workers %d, %s: %v", workers, step.name, err)
			}
			for i, a := range v.Analyzers() {
				if step.kept && a != found[i] {
					t.Errorf("workers %d, %s: scenario %d's analyzer was replaced", workers, step.name, i)
				}
				if i > 0 && a.Topology() != v.Analyzers()[0].Topology() {
					t.Errorf("workers %d, %s: scenario %d does not share scenario 0's topology", workers, step.name, i)
				}
			}
			if want := int32(len(v.Scenarios)); step.hooked && (hooked.Load() != want || finished.Load() != want) {
				t.Errorf("workers %d, %s: Each ran %d times and finished %d, want %d each",
					workers, step.name, hooked.Load(), finished.Load(), want)
			}
			fresh := viewsOver(d.Clone(), recipe, 1)
			if err := fresh.Build(context.Background()); err != nil {
				t.Fatal(err)
			}
			got, want := fingerprints(v), fingerprints(fresh)
			for i := range want {
				if got[i] != want[i] {
					t.Errorf("workers %d, %s: scenario %s differs from a fresh build", workers, step.name, v.Scenarios[i].Name)
				}
			}

			before := append([]*sta.Analyzer(nil), v.Analyzers()...)
			err := v.Build(cancelled)
			if !errors.Is(err, context.Canceled) || !strings.Contains(err.Error(), "scenario "+v.Scenarios[0].Name) {
				t.Errorf("workers %d, %s: cancelled Build returned %v", workers, step.name, err)
			}
			for i, a := range v.Analyzers() {
				if a != before[i] || conformance.Fingerprint(a) != got[i] {
					t.Errorf("workers %d, %s: cancelled Build disturbed scenario %d", workers, step.name, i)
				}
			}
		}

		// A Build in which scenarios 1 and 3 fail names the first of them,
		// keeps the old set and ends every hook it started.
		before, want := append([]*sta.Analyzer(nil), v.Analyzers()...), fingerprints(v)
		good := v.Scenarios
		v.Scenarios = slices.Clone(good)
		v.Scenarios[1].Lib, v.Scenarios[3].Lib = nil, nil
		hooked.Store(0)
		finished.Store(0)
		err := v.Build(context.Background())
		if err == nil || !strings.HasPrefix(err.Error(), "scenario "+good[1].Name+":") {
			t.Errorf("workers %d: Build with scenarios 1 and 3 broken returned %v", workers, err)
		}
		if hooked.Load() != 4 || finished.Load() != 4 {
			t.Errorf("workers %d: failed Build ran Each %d times and finished %d, want 4 each", workers, hooked.Load(), finished.Load())
		}
		v.Scenarios = good
		for i, a := range v.Analyzers() {
			if a != before[i] || conformance.Fingerprint(a) != want[i] {
				t.Errorf("workers %d: failed Build disturbed scenario %d", workers, i)
			}
		}
	}
}

// A hook that panics in scenario 2 of a Build panics on the caller once the
// other scenarios are done, whatever worker ran it, and leaves the set as it
// was; every hook that returned has been ended.
func TestViewsBuildPanicReachesCaller(t *testing.T) {
	recipe := core.OldGoalPosts(liberty.Node16, parasitics.Stack16())
	d := circuits.Block(recipe.Scenarios[0].Lib, circuits.BlockSpec{
		Name: "views", Inputs: 6, Outputs: 6, FFs: 8, Gates: 60, MaxDepth: 6, Seed: 3, ClockBufferLevels: 1,
	})
	for _, workers := range []int{1, 4} {
		v := viewsOver(d, recipe, workers)
		if err := v.Build(context.Background()); err != nil {
			t.Fatal(err)
		}
		before, want := append([]*sta.Analyzer(nil), v.Analyzers()...), fingerprints(v)
		var started, ended atomic.Int32
		v.Each = func(s core.Scenario, _ int, _ *sta.Constraints, _ *sta.Config) func() {
			if s.Name == v.Scenarios[2].Name {
				panic("hook " + s.Name)
			}
			started.Add(1)
			return func() { ended.Add(1) }
		}
		r := func() (r any) {
			defer func() { r = recover() }()
			v.Build(context.Background())
			return nil
		}()
		if r != "hook "+v.Scenarios[2].Name {
			t.Errorf("workers %d: Build's caller recovered %v", workers, r)
		}
		if started.Load() != 3 || ended.Load() != 3 {
			t.Errorf("workers %d: %d hooks returned and %d ended, want 3 each", workers, started.Load(), ended.Load())
		}
		for i, a := range v.Analyzers() {
			if a != before[i] || conformance.Fingerprint(a) != want[i] {
				t.Errorf("workers %d: a panicking Build disturbed scenario %d", workers, i)
			}
		}
	}
}

// A failing scenario is named, whichever worker ran it, and costs nothing
// already built; Find resolves scenario names.
func TestViewsBuildErrorAndFind(t *testing.T) {
	recipe := core.OldGoalPosts(liberty.Node16, parasitics.Stack16())
	d := circuits.Block(recipe.Scenarios[0].Lib, circuits.BlockSpec{
		Name: "views", Inputs: 6, Outputs: 6, FFs: 8, Gates: 60, MaxDepth: 6, Seed: 3, ClockBufferLevels: 1,
	})
	v := viewsOver(d, recipe, 4)
	if err := v.Build(context.Background()); err != nil {
		t.Fatal(err)
	}
	built := append([]*sta.Analyzer(nil), v.Analyzers()...)

	good := v.Scenarios
	v.Scenarios = append([]core.Scenario(nil), good...)
	v.Scenarios[2].Lib = nil
	if err := v.Build(context.Background()); err == nil || !strings.Contains(err.Error(), "scenario "+good[2].Name+":") {
		t.Errorf("Build with scenario %s broken returned %v", good[2].Name, err)
	}
	for i, a := range v.Analyzers() {
		if a != built[i] {
			t.Errorf("failed Build replaced scenario %d", i)
		}
	}
	v.Scenarios = good

	for name, want := range map[string]int{"": 0, good[0].Name: 0, good[3].Name: 3} {
		if i, err := v.Find(name); err != nil || i != want {
			t.Errorf("Find(%q) = %d, %v, want %d", name, i, err, want)
		}
	}
	if _, err := v.Find("nope"); err == nil || err.Error() != `unknown scenario "nope"` {
		t.Errorf("Find of an unknown scenario returned %v", err)
	}
}

// heapAfterGC is the live heap once two collections have run.
func heapAfterGC() float64 {
	var m runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc)
}

// What one more resident scenario costs, per vertex: the difference between
// a one- and a four-scenario set over the same block, over three. The set's
// gauges count the analyzers' slabs by owner; the heap (median of three
// builds) holds those plus the endpoint lists and the scratch, so it may
// exceed the gauges but only by a little.
func TestViewsRetainedBytesPerScenario(t *testing.T) {
	recipe := core.OldGoalPosts(liberty.Node16, parasitics.Stack16())
	d := circuits.Block(recipe.Scenarios[0].Lib, circuits.BlockSpec{
		Name: "retained", Inputs: 24, Outputs: 24, FFs: 96, Gates: 1400,
		MaxDepth: 13, Seed: 7, ClockBufferLevels: 3, VtMix: [3]float64{0, 0.4, 0.6},
	})
	retained := func(n int) (heap, gauges float64, verts int) {
		var trials [3]float64
		for i := range trials {
			v := viewsOver(d.Clone(), recipe, 1)
			v.Scenarios, v.Obs = v.Scenarios[:n], obs.NewRecorder()
			before := heapAfterGC()
			if err := v.Build(context.Background()); err != nil {
				t.Fatal(err)
			}
			trials[i] = heapAfterGC() - before
			gauges = 0
			for _, g := range []string{"planes_bytes", "net_cache_bytes", "arc_group_bytes"} {
				gauges += v.Obs.Gauge("core.views." + g).Value()
			}
			verts = v.Analyzers()[0].NumVerts()
			runtime.KeepAlive(v)
		}
		slices.Sort(trials[:])
		return trials[1], gauges, verts
	}
	heap1, gauges1, verts := retained(1)
	heap4, gauges4, _ := retained(4)
	heap := (heap4 - heap1) / 3 / float64(verts)
	gauges := (gauges4 - gauges1) / 3 / float64(verts)
	t.Logf("one more scenario over %d vertices: %.0f B per vertex on the heap, %.0f by the gauges", verts, heap, gauges)
	if heap > 310 {
		t.Errorf("a scenario retains %.0f B per vertex, want ≤ 310", heap)
	}
	if heap < gauges || heap > 1.1*gauges {
		t.Errorf("the heap holds %.0f B per vertex per scenario, the gauges count %.0f: want within 10 %%", heap, gauges)
	}
}

// Views splits its one budget itself, and exact counters show where it
// went: at 2 workers over four scenarios, two lanes time one scenario each
// with a serial Run, so Build and Rerun split no level wave, whatever a hook
// asks for; an analyzer re-timed alone afterwards has both workers, and so
// does each Run of a one-scenario set, or of two scenarios at 4 workers.
// Budgets are explicit: 0 would follow GOMAXPROCS.
func TestViewsSplitOneWorkerBudget(t *testing.T) {
	recipe := core.OldGoalPosts(liberty.Node16, parasitics.Stack16())
	d := circuits.Block(recipe.Scenarios[0].Lib, circuits.BlockSpec{
		Name: "budget", Inputs: 16, Outputs: 16, FFs: 48, Gates: 600,
		MaxDepth: 9, Seed: 5, ClockBufferLevels: 2,
	})
	ctx := context.Background()
	// waves is how many level waves run splits across workers.
	waves := func(v *core.Views, run func() error) int64 {
		t.Helper()
		c := v.Obs.Counter("sta.levels_parallel")
		before := c.Value()
		if err := run(); err != nil {
			t.Fatal(err)
		}
		return c.Value() - before
	}
	set := func(workers, scenarios int) *core.Views {
		v := viewsOver(d, recipe, workers)
		v.Scenarios, v.Obs = v.Scenarios[:scenarios], obs.NewRecorder()
		return v
	}

	v := set(2, 4)
	v.Each = func(_ core.Scenario, _ int, _ *sta.Constraints, cfg *sta.Config) func() {
		cfg.Workers = 4
		return nil
	}
	if n := waves(v, func() error { return v.Build(ctx) }); n != 0 {
		t.Errorf("Build of 4 scenarios at 2 workers split %d level waves, want 0", n)
	}
	if w := v.Analyzers()[0].LastRunStats().WidestWave; w < 32 {
		t.Fatalf("fixture's widest wave is %d, too narrow to split", w)
	}
	if n := waves(v, func() error { return v.Rerun(ctx) }); n != 0 {
		t.Errorf("Rerun of 4 scenarios at 2 workers split %d level waves, want 0", n)
	}
	if n := waves(v, v.Analyzers()[2].Run); n == 0 {
		t.Error("a Run of one analyzer of the set, alone, split no level wave")
	}

	for _, c := range []struct{ workers, scenarios int }{{2, 1}, {4, 2}} {
		v := set(c.workers, c.scenarios)
		if n := waves(v, func() error { return v.Build(ctx) }); n == 0 {
			t.Errorf("Build of %d scenarios at %d workers split no level wave", c.scenarios, c.workers)
		}
		if n := waves(v, func() error { return v.Rerun(ctx) }); n == 0 {
			t.Errorf("Rerun of %d scenarios at %d workers split no level wave", c.scenarios, c.workers)
		}
	}
}
