package main

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	"newgame/internal/circuits"
	"newgame/internal/core"
	"newgame/internal/liberty"
	"newgame/internal/netlist"
	"newgame/internal/parasitics"
	"newgame/internal/timingd"
	"newgame/internal/variation"
)

const (
	basePeriod = 560
	// designSeed keys parasitics synthesis. It is fixed: --seed picks URIs
	// and op order only, never the timing problem itself.
	designSeed = 42
)

// scale sizes the designs. "full" is the benchmark; "tiny" exists so the
// test can run every workload in about a second.
type scale struct {
	name    string
	setups  int                                    // set-ups per run, each in a process of its own; setup_s is their median
	serve   func(*liberty.Library) *netlist.Design // both node workloads and the cluster
	survey  func(*liberty.Library) *netlist.Design // batch_signoff Survey()
	closure func(*liberty.Library) *netlist.Design // batch_signoff Close()
}

func tinyBlock(name string) func(*liberty.Library) *netlist.Design {
	return func(lib *liberty.Library) *netlist.Design {
		return circuits.Block(lib, circuits.BlockSpec{
			Name: name, Inputs: 8, Outputs: 8, FFs: 20, Gates: 240,
			MaxDepth: 8, Seed: 13, ClockBufferLevels: 2,
			VtMix: [3]float64{0.1, 0.7, 0.2},
		})
	}
}

var scales = map[string]scale{
	"full": {"full", 5, circuits.SoCBlock, circuits.AES, circuits.C5315},
	"tiny": {"tiny", 2, tinyBlock("serve"), tinyBlock("survey"), tinyBlock("close")},
}

// fixture is everything a workload loads before it can answer: the corner
// libraries with their LVF tables, the 4-scenario recipe and the BEOL
// stack. Building it is part of setup_s.
type fixture struct {
	recipe core.Recipe
	stack  *parasitics.Stack
	lib    *liberty.Library // scenario 0's, the one designs are mapped to

	libsDur time.Duration // liberty.generate_ms: libraries + LVF
}

func newFixture() *fixture {
	t := time.Now()
	libs := core.GenerateNewLibs(liberty.Node16)
	for _, l := range []*liberty.Library{libs.SlowHot, libs.SlowCold, libs.FastCold} {
		variation.CharacterizeLVF(l, 0.02, 2000, 5)
	}
	stack := parasitics.Stack16()
	recipe := core.NewGoalPosts(libs, stack)
	return &fixture{recipe: recipe, stack: stack, lib: recipe.Scenarios[0].Lib, libsDur: time.Since(t)}
}

func (fx *fixture) scenarioNames() []string {
	names := make([]string, len(fx.recipe.Scenarios))
	for i, sc := range fx.recipe.Scenarios {
		names[i] = sc.Name
	}
	return names
}

// serverConfig is the one timingd configuration every serving workload
// uses; callers add Design/Restore, Obs, ScenarioFilter and SnapshotDir.
func (fx *fixture) serverConfig() timingd.Config {
	return timingd.Config{
		Recipe: fx.recipe, Stack: fx.stack,
		BasePeriod: basePeriod, Seed: designSeed,
		Workers: nproc, QueryWorkers: nproc, QueueDepth: 256,
	}
}

// ecoCandidates is how many cells the eco loops edit. The set is the same
// for every seed — the seed only orders it — and small enough that a run
// goes round it several times, so every run times the same population of
// edits. Which cell is resized decides how much of the graph re-times, so
// a per-seed sample of the design's 2 427 swappable gates would make the
// seed a part of what is measured.
const ecoCandidates = 64

// ecoPlan is the seeded edit schedule of the eco loops: ecoCandidates
// combinational cells that have both an SVT and an LVT master, spread evenly
// over the netlist, shuffled by the seed and toggled in turn. A pass flips
// every candidate once, the next pass flips them back, so the netlist stays
// bounded however long the loop runs.
type ecoPlan struct {
	cells  []string
	master map[string][2]string // cell → {SVT master, LVT master}
	isLVT  map[string]bool      // current state
	next   int
}

func newECOPlan(d *netlist.Design, lib *liberty.Library, seed int64) (*ecoPlan, error) {
	p := &ecoPlan{master: map[string][2]string{}, isLVT: map[string]bool{}}
	for _, c := range d.Cells {
		// "u<n>" are the logic gates; clock buffers, flops and output
		// drivers are left alone.
		if !strings.HasPrefix(c.Name, "u") {
			continue
		}
		m := lib.Cell(c.TypeName)
		if m == nil || m.IsSequential() || (m.Vt != liberty.SVT && m.Vt != liberty.LVT) {
			continue
		}
		svt, lvt := lib.Variant(m, m.Drive, liberty.SVT), lib.Variant(m, m.Drive, liberty.LVT)
		if svt == nil || lvt == nil {
			continue
		}
		p.cells = append(p.cells, c.Name)
		p.master[c.Name] = [2]string{svt.Name, lvt.Name}
		p.isLVT[c.Name] = m.Vt == liberty.LVT
	}
	if len(p.cells) == 0 {
		return nil, fmt.Errorf("design %s has no SVT/LVT-swappable gate", d.Name)
	}
	if all := p.cells; len(all) > ecoCandidates {
		p.cells = make([]string, ecoCandidates)
		for i := range p.cells {
			p.cells[i] = all[i*len(all)/ecoCandidates]
		}
	}
	rand.New(rand.NewSource(seed)).Shuffle(len(p.cells), func(i, j int) {
		p.cells[i], p.cells[j] = p.cells[j], p.cells[i]
	})
	return p, nil
}

// peek returns the next toggle without consuming it (the what-if half of
// an iteration); advance consumes it once the commit went through.
func (p *ecoPlan) peek() timingd.Op {
	cell := p.cells[p.next%len(p.cells)]
	to := p.master[cell][1]
	if p.isLVT[cell] {
		to = p.master[cell][0]
	}
	return timingd.Op{Kind: "resize", Cell: cell, To: to}
}

func (p *ecoPlan) advance() {
	cell := p.cells[p.next%len(p.cells)]
	p.isLVT[cell] = !p.isLVT[cell]
	p.next++
}

// netOps is the shortest edit batch that takes the original design to the
// plan's current state: one resize per cell toggled an odd number of times.
func (p *ecoPlan) netOps(d *netlist.Design) []timingd.Op {
	var ops []timingd.Op
	for _, cell := range p.cells {
		want := p.master[cell][0]
		if p.isLVT[cell] {
			want = p.master[cell][1]
		}
		if d.Cell(cell).TypeName != want {
			ops = append(ops, timingd.Op{Kind: "resize", Cell: cell, To: want})
		}
	}
	return ops
}
