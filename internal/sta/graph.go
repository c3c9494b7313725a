package sta

import (
	"context"
	"fmt"
	"math"

	"newgame/internal/liberty"
	"newgame/internal/netlist"
	"newgame/internal/obs"
	"newgame/internal/parasitics"
)

// WireModel selects the interconnect delay metric.
type WireModel int

const (
	// WireElmore uses the Elmore first moment (upper-bound-ish).
	WireElmore WireModel = iota
	// WireD2M uses the two-moment D2M metric.
	WireD2M
	// WireLumped ignores wire resistance: delay 0, load = total cap. The
	// "lumped-C" ancestor in the paper's model-history list.
	WireLumped
)

// SIConfig controls crosstalk delta-delay analysis.
type SIConfig struct {
	Enabled bool
	// SwitchingFraction is the assumed fraction of coupling capacitance
	// with adversely switching aggressors (0..1): late delays see a Miller
	// factor 1+f, early delays 1−f. A virtual-aggressor aggregate model.
	SwitchingFraction float64
	// NoiseThreshold is the failure threshold for glitch bumps as a
	// fraction of VDD.
	NoiseThreshold float64
}

// DefaultSI is a moderate SI recipe.
func DefaultSI() SIConfig {
	return SIConfig{Enabled: true, SwitchingFraction: 0.35, NoiseThreshold: 0.35}
}

// Config assembles one analysis view: library (PVT), parasitics source,
// BEOL corner scaling, wire model, variation model, SI and MIS switches.
type Config struct {
	Lib *liberty.Library
	// Parasitics holds each net's RC tree (pin caps excluded); a net it has
	// no tree for, or a nil table, is lumped pin capacitance only. Analyzers
	// of one design share it.
	Parasitics *Parasitics
	// Scaling is the BEOL corner applied to all trees (nil = typical).
	Scaling *parasitics.Scaling
	Wire    WireModel
	Derate  Derater
	SI      SIConfig
	// MIS enables multi-input-switching derates on multi-input cell arcs:
	// early delays shrink by the arc's fast factor, late delays stretch by
	// the slow factor (paper §2.1; Lutkemeyer-style margin).
	MIS bool
	// CKLatencyScale scales Constraints.ExtraCKLatency for this view
	// (0 means 1). Useful-skew offsets are implemented with buffer chains,
	// whose delay tracks the corner: a 40 ps offset scheduled at the slow
	// setup corner is only ~15 ps of real silicon at the fast hold corner.
	CKLatencyScale float64
	// LibFor, when non-nil, selects the characterization library per cell
	// instance — the multi-voltage-domain binding of paper §1.2. Cells it
	// returns nil for fall back to Lib. All libraries must share master
	// naming; Lib remains the reference for noise/aggressor device data.
	LibFor func(*netlist.Cell) *liberty.Library
	// CellDerate, when non-nil, multiplies every delay arc of a cell by a
	// per-instance factor — the hook dynamic IR-drop analysis uses to feed
	// supply-droop-induced slowdown into timing (the "-dynamic" signoff
	// option of paper §4 Comment 1). Factors < 1 are clamped to 1 on late
	// analysis and factors > 1 to 1 on early (droop only ever slows late
	// paths and cannot be credited to early ones).
	CellDerate func(*netlist.Cell) float64
	// Workers bounds the goroutines one Run uses for delay calculation and
	// level-parallel propagation: 0 means one per available CPU
	// (runtime.GOMAXPROCS), 1 forces fully serial execution. Results are
	// bit-identical at every setting — each vertex is recomputed by exactly
	// one goroutine from already-finalized earlier levels.
	Workers int
	// Topology, when non-nil, is a frozen graph another analyzer derived
	// over the same design (or a Clone of it) under shape-compatible
	// libraries and constraints. Adopting it skips CSR construction,
	// levelization and clock marking — the per-scenario cost MCMM surveys
	// and timingd's dual-session snapshots avoid by sharing one read-only
	// Topology. It is consulted whenever the graph is derived: at New, and
	// again by the Run that follows a structural edit. An incompatible
	// value is detected and ignored (a private topology is built), so
	// sharing can never change results.
	Topology *Topology
	// Obs, when non-nil, records spans and metrics for this analyzer's
	// runs and incremental updates (see internal/obs). Recording never
	// alters analysis results; nil disables it at ~zero cost.
	Obs *obs.Recorder
	// ObsSpan optionally parents this analyzer's spans — e.g. the scenario
	// span of a concurrent MCMM survey. Its trace track is inherited.
	ObsSpan *obs.Span
}

const (
	rise  = 0
	fall  = 1
	early = 0
	late  = 1
)

// ix4 flattens (vertex, rf, el) into the 4-plane state arrays.
func ix4(i, rf, el int) int { return i<<2 | rf<<1 | el }

// ix2 flattens (vertex, rf) into the 2-plane endpoint-seed arrays.
func ix2(i, rf int) int { return i<<1 | rf }

// timeVar is an arrival value with accumulated variance (POCV/LVF).
type timeVar struct {
	T   float64
	Var float64
}

// corner returns the sigma-adjusted value used for comparisons and slacks.
func (tv timeVar) corner(lateSide bool, n float64) float64 {
	if n == 0 || tv.Var == 0 {
		return tv.T
	}
	s := n * math.Sqrt(tv.Var)
	if lateSide {
		return tv.T + s
	}
	return tv.T - s
}

// pred records which edge produced a vertex's worst arrival, for backtrace:
// the choice only. What the edge cost is the delay rule's answer (edgeDelay),
// asked again by whoever walks the chain.
type pred struct {
	from int32 // source vertex and transition, v<<1 | rf; -1 at a seed
	arc  int32 // index in Analyzer.arcs of the cell arc taken; -1 = the net edge
}

// seedPred marks an arrival that was seeded, not relaxed.
var seedPred = pred{from: -1, arc: -1}

// source returns the vertex and transition the edge leaves (v = -1 at a
// seed).
func (p pred) source() (v, rf int) { return int(p.from >> 1), int(p.from & 1) }

// cell reports whether the edge is a cell arc.
func (p pred) cell() bool { return p.arc >= 0 }

// vref binds a vertex index back to its netlist object: a cell pin or a
// design port. It is the only per-vertex pointer state left — everything
// hot lives in the flat SoA arrays and the shared Topology.
type vref struct {
	pin  *netlist.Pin
	port *netlist.Port
}

// vname returns a printable vertex name.
func (a *Analyzer) vname(i int) string {
	if v := a.verts[i]; v.port != nil {
		return "port:" + v.port.Name
	}
	return a.verts[i].pin.FullName()
}

// netData caches per-net delay-calculation results for one Run, plus the
// inputs they were computed from so an unchanged net skips the whole moment
// computation on the next Run (the results are a pure function of the
// source tree, the gathered sink caps and the analyzer's fixed config, so
// reuse is bit-identical to recomputation).
type netData struct {
	// net is the net this entry was last bound to (buildNets); dirtyGen is
	// Analyzer.dirtyGen while the net sits on the dirty list.
	net      *netlist.Net
	dirtyGen uint64

	totalCap [2]float64 // [early|late] (differ when SI enabled)
	// per sink (net load order): wire delay and slew degradation. On a
	// routed net they are views into buf; a lumped net's all point at the
	// analyzer's shared zero slice.
	sinkDelay [2][]float64
	sinkSlew  []float64
	coupling  float64
	buf       []float64 // the net's own result storage, reused across fills

	// Delay-calc input key of the last fill.
	srcTree  *parasitics.Tree
	capsIn   []float64 // sink caps in load order (+ port load when bound)
	capsTmp  []float64 // gather scratch, swapped with capsIn on refill
	portSink bool
	filled   bool
}

// arcRef is one prebuilt cell-arc binding: the timing arc plus the vertex
// at its other end (the input pin for an output pin's group, the output pin
// for an input pin's group).
type arcRef struct {
	arc   *liberty.TimingArc
	other int32
}

// Analyzer binds a design + constraints + config and runs timing.
//
// The analysis state is split structure-of-arrays style: the frozen
// Topology holds connectivity, levels and clock marking (shareable across
// scenario analyzers and design clones); the Analyzer holds the per-library
// caches (resolved masters, arc groups, pin caps) and one contiguous flat
// array per mutable quantity across all [rf][el] planes, reset by memclr
// instead of per-vertex loops.
type Analyzer struct {
	D    *netlist.Design
	Cons *Constraints
	Cfg  Config

	// verts binds vertex numbers to netlist objects. The numbering is the
	// netlist's own: cell c's pin p is vertex cellBase[c.Index()]+p.Index(),
	// port q is cellBase[len(cells)]+q.Index() (see pinVertex, portVertex).
	verts    []vref
	cellBase []int32

	// topo is nil only after a failed regraph; revision is D.Revision() as of
	// the graph's derivation.
	topo       *Topology
	sharedTopo bool
	revision   uint64

	// Per-cell master caches: masters[i] is the resolved library cell for
	// D.Cells[i], refreshed at every full Run and through InvalidateCell so
	// in-place Vt/drive swaps never leave stale tables behind.
	cells   []*netlist.Cell
	masters []*liberty.Cell
	// Cell-arc groups per vertex (CSR): an output pin's group lists the
	// arcs into it (in master Arcs order), an input pin's group the arcs
	// out of it. Replaces the per-relax O(arcs) master scans.
	arcOff []int32
	arcs   []arcRef
	// pinCap caches input-pin capacitance per vertex (master-resolved).
	pinCap []float64

	// Flat mutable per-run state, 4 planes per vertex (ix4 layout).
	fValid []bool
	fArr   []timeVar
	fSlew  []float64
	fDepth []int32
	fPred  []pred
	rValid []bool
	fReq   []float64
	// Endpoint-check seeds, 2 planes per vertex (ix2 layout), recorded so
	// incremental updates can detect when an endpoint's check moved.
	seedReq   []float64
	seedValid []bool

	// vnd binds each vertex to its relevant per-run net data: the driven
	// net for output pins and input ports (pull side), the fanin net for
	// input pins and output ports (relax side). Rebound every buildNets,
	// which also keeps nets — the per-net delay-calc cache — one entry per
	// D.Nets position.
	vnd  []*netData
	nets []*netData

	zeroBuf []float64 // shared all-zero slice for lumped-net sink delays

	// Delay-calc kernel scratch: calc[0] serves every serial fill (small
	// designs, incremental Updates), buildNets' fan-out gives chunk k calc[k].
	calc []parasitics.Scratch

	// Endpoint checks (see checks.go): the site table is rebuilt with the
	// masters at every full Run; the lists and summaries are refilled by
	// every Run and Update and only read in between.
	sites  []checkSite
	checks [2]residentChecks

	// Reusable scratch of the exclusive writer (Run/Update); readers never
	// touch it.
	btLaunch, btCapture []int   // CRPR backtraces
	siteSeen            []bool  // per-site TNS dedupe
	seedMoved           []int32 // data vertices whose seed the last sweep changed
	fwQ, bwQ            *levelQueue
	changedList         []int
	topoScratch         []int32 // buildTopologyCSR's cursors, in-degrees and Kahn queue

	// Incremental re-timing state (see incremental.go): what was
	// invalidated since the last Run or Update, in invalidation order.
	dirtyNets   []*netData
	dirtyGen    uint64
	dirtyVerts  []int
	dirtyReq    []int
	structDirty bool

	ran bool

	// runCtx carries the in-flight RunCtx/UpdateCtx context (see ctx.go);
	// nil when running without cancellation.
	runCtx context.Context

	// stats accumulates per-run propagation statistics in plain fields on
	// the hot path, published to obs once per Run/Update (see stats.go).
	stats RunStats

	// Observability instruments, cached at New so hot loops skip the
	// name lookup (all nil and no-ops when Cfg.Obs is nil).
	obsWidestWave      *obs.Histogram // widest forward wavefront per run
	obsLevelsSerial    *obs.Counter   // levels below the parallel threshold despite Workers > 1
	obsLevelsParallel  *obs.Counter
	obsNodesRelaxed    *obs.Counter // vertex relaxations across both sweeps
	obsNetCacheHits    *obs.Counter // delay calcs served by the per-net input-keyed cache
	obsNetsFilled      *obs.Counter // delay calcs recomputed
	obsFullRunFallback *obs.Counter // Update calls that fell back to a full Run
	obsIncUpdates      *obs.Counter
	obsConeVerts       *obs.Histogram // vertices recomputed per incremental Update
	obsConeRatio       *obs.Histogram // recomputed / graph size per incremental Update
	obsVertsRecomputed *obs.Counter
	obsTopoShared      *obs.Counter // graph derivations that adopted a shared Topology
	obsRegraphs        *obs.Counter // full Runs that re-derived the graph in place
	obsGraphVerts      *obs.Gauge
	obsGraphLevels     *obs.Gauge
}

// New builds the analysis graph. It fails on unknown cell masters or
// structural problems (combinational cycles, undriven logic).
func New(d *netlist.Design, cons *Constraints, cfg Config) (*Analyzer, error) {
	if cfg.Derate == nil {
		cfg.Derate = NoDerate{}
	}
	if cfg.Lib == nil {
		return nil, fmt.Errorf("sta: no library")
	}
	a := &Analyzer{D: d, Cons: cons, Cfg: cfg, dirtyGen: 1}
	a.bindObs()
	if err := a.regraph(); err != nil {
		return nil, err
	}
	return a, nil
}

// resize returns s with length n on s's own storage when it fits. A first
// allocation is exact; only a slab that has been outgrown is replaced with
// headroom (n/8), so a netlist that keeps growing by a buffer at a time does
// not reallocate per buffer and one that never grows carries no slack. The
// contents are unspecified: callers overwrite or clear.
func resize[T any](s []T, n int) []T {
	switch {
	case n <= cap(s):
		return s[:n]
	case s == nil:
		return make([]T, n)
	}
	return make([]T, n, n+n/8)
}

// regraph derives the graph half of the analyzer — everything that depends
// on which cells, pins, nets and ports the design has and how they connect —
// from the design as it stands, on the receiver's own storage. It is the one
// graph derivation: New runs it on an empty analyzer, and a full Run runs it
// again whenever the design's structural revision has moved since (see
// refreshGraph), which is what lets an inserted or removed buffer be
// answered by re-timing the analyzer that exists.
//
// Rebuilt: the vertex table and the cellBase prefix sum (in design order, so
// numbering stays the pure function of design order the Topology sharing
// contract needs), the resolved masters, the Topology (Cfg.Topology adopted
// when compatible, else built — always a new value, since the old one may be
// shared), arc groups and pin caps, and the length of every per-vertex plane
// (the check-site table follows in Run). Everything keyed by vertex number is
// dropped. What survives is the per-net delay-calc cache: fillNetData reuses
// an entry only when its tree pointer, sink caps and port load match exactly,
// so a full Run over a regraphed analyzer is bit-identical to a fresh New +
// Run while refilling only the nets whose loads actually moved.
//
// On error the analyzer is left with no graph at all — nothing indexed into
// a numbering that no longer exists — and the next Run derives it again.
func (a *Analyzer) regraph() (err error) {
	defer func() {
		if err != nil {
			a.dropGraph()
		}
	}()
	d := a.D
	nv := len(d.Ports)
	for _, c := range d.Cells {
		nv += len(c.Pins)
	}
	a.verts = resize(a.verts, nv)
	a.cellBase = resize(a.cellBase, len(d.Cells)+1)
	a.cells = resize(a.cells, len(d.Cells))
	a.masters = resize(a.masters, len(d.Cells))
	// Vertices: every cell pin, every port — in design iteration order, so
	// numbering is identical across Clones (the sharing contract).
	vi := 0
	for ci, c := range d.Cells {
		master := a.resolveMaster(c)
		if master == nil {
			return unknownMaster(c)
		}
		a.cells[ci], a.masters[ci], a.cellBase[ci] = c, master, int32(vi)
		for _, p := range c.Pins {
			a.verts[vi] = vref{pin: p}
			vi++
		}
	}
	a.cellBase[len(d.Cells)] = int32(vi)
	for _, p := range d.Ports {
		a.verts[vi] = vref{port: p}
		vi++
	}
	if t := a.Cfg.Topology; t != nil && t.compatible(a) {
		a.topo, a.sharedTopo = t, true
		a.obsTopoShared.Add(1)
	} else {
		if t, err = a.buildTopologyCSR(); err != nil {
			return err
		}
		a.topo, a.sharedTopo = t, false
	}
	a.buildArcGroups()
	// Per-vertex planes: Run clears the nine state arrays and rebinds vnd
	// before reading any of them.
	a.fValid = resize(a.fValid, 4*nv)
	a.fArr = resize(a.fArr, 4*nv)
	a.fSlew = resize(a.fSlew, 4*nv)
	a.fDepth = resize(a.fDepth, 4*nv)
	a.fPred = resize(a.fPred, 4*nv)
	a.rValid = resize(a.rValid, 4*nv)
	a.fReq = resize(a.fReq, 4*nv)
	a.seedReq = resize(a.seedReq, 2*nv)
	a.seedValid = resize(a.seedValid, 2*nv)
	a.vnd = resize(a.vnd, nv)
	// The incremental worklists are sized by vertex and level count and the
	// dirty lists hold vertex numbers.
	a.fwQ, a.bwQ = nil, nil
	a.clearDirty()
	a.revision = d.Revision()
	a.obsGraphVerts.Set(float64(nv))
	a.obsGraphLevels.Set(float64(a.topo.numLevels()))
	return nil
}

// dropGraph forgets a half-derived graph: no vertex, cell or check site
// resolves, so every query answers "not in the design" instead of indexing
// planes sized for another numbering, and topo == nil makes the next Run
// derive the graph again.
func (a *Analyzer) dropGraph() {
	a.verts, a.cells, a.masters = a.verts[:0], a.cells[:0], a.masters[:0]
	a.topo, a.sharedTopo = nil, false
	a.sites = a.sites[:0]
	for k := range a.checks {
		a.checks[k].list = a.checks[k].list[:0]
	}
}

// The four lookups from a netlist object to its place in the graph. Each
// trusts the object's Index only after finding the object itself there, so
// one that is not in this graph — it belongs to another Clone, was added
// after the graph was derived, or was removed or renumbered by a removal
// since — answers "not here" (-1, nil), never a neighbour's numbers. None
// allocates.

// cellOf returns c's position in cells and masters, or -1.
func (a *Analyzer) cellOf(c *netlist.Cell) int {
	if i := c.Index(); i >= 0 && i < len(a.cells) && a.cells[i] == c {
		return i
	}
	return -1
}

// pinVertex returns p's vertex, or -1. A cell's pin list never changes, so
// the cell being in the graph puts its pins there.
func (a *Analyzer) pinVertex(p *netlist.Pin) int {
	if ci := a.cellOf(p.Cell); ci >= 0 {
		return int(a.cellBase[ci]) + p.Index()
	}
	return -1
}

// portVertex returns p's vertex, or -1.
func (a *Analyzer) portVertex(p *netlist.Port) int {
	if i := int(a.cellBase[len(a.cells)]) + p.Index(); i < len(a.verts) && a.verts[i].port == p {
		return i
	}
	return -1
}

// netDataOf returns n's delay-calc entry as of the last buildNets, or nil
// (n itself may be nil: an unconnected pin's net).
func (a *Analyzer) netDataOf(n *netlist.Net) *netData {
	if n == nil {
		return nil
	}
	if i := n.Index(); i >= 0 && i < len(a.nets) && a.nets[i].net == n {
		return a.nets[i]
	}
	return nil
}

func unknownMaster(c *netlist.Cell) error {
	return fmt.Errorf("sta: cell %q has unknown master %q", c.Name, c.TypeName)
}

// Topology returns the analyzer's frozen graph half, for sharing with
// other analyzers over the same design (or Clones of it) via
// Config.Topology.
func (a *Analyzer) Topology() *Topology { return a.topo }

// SharedTopology reports whether this analyzer adopted a Config.Topology
// rather than building its own (test/diagnostic hook).
func (a *Analyzer) SharedTopology() bool { return a.sharedTopo }

// bindObs registers and caches this analyzer's instruments. Registration
// at New (not first hit) makes every metric name appear in exports even
// when its count stays zero — a dump that says full_run_fallback=0 is a
// stronger statement than one that omits the key. Bucket boundaries are
// fixed here for deterministic bucket counts.
func (a *Analyzer) bindObs() {
	r := a.Cfg.Obs
	if r == nil {
		return // instruments stay nil; every probe is a nil-check no-op
	}
	a.obsWidestWave = r.Histogram("sta.run.widest_wave", 1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024)
	a.obsLevelsSerial = r.Counter("sta.levels_serial_fallback")
	a.obsLevelsParallel = r.Counter("sta.levels_parallel")
	a.obsNodesRelaxed = r.Counter("sta.run.nodes_relaxed")
	a.obsNetCacheHits = r.Counter("sta.run.net_cache_hits")
	a.obsNetsFilled = r.Counter("sta.run.nets_filled")
	a.obsFullRunFallback = r.Counter("sta.update.full_run_fallback")
	a.obsIncUpdates = r.Counter("sta.update.incremental")
	a.obsConeVerts = r.Histogram("sta.update.cone_vertices", 1, 4, 16, 64, 256, 1024, 4096, 16384)
	a.obsConeRatio = r.Histogram("sta.update.cone_ratio", 0.001, 0.005, 0.01, 0.05, 0.1, 0.25, 0.5, 1)
	a.obsVertsRecomputed = r.Counter("sta.update.vertices_recomputed")
	a.obsTopoShared = r.Counter("sta.topology_shared")
	a.obsRegraphs = r.Counter("sta.run.regraphs")
	a.obsGraphVerts = r.Gauge("sta.graph_vertices")
	a.obsGraphLevels = r.Gauge("sta.graph_levels")
}

// resolveMaster looks up a cell's library master, honoring per-cell
// (voltage-domain) library bindings — the one place the LibFor/Lib.Cell
// fallback dance lives.
func (a *Analyzer) resolveMaster(c *netlist.Cell) *liberty.Cell {
	if a.Cfg.LibFor != nil {
		if l := a.Cfg.LibFor(c); l != nil {
			if m := l.Cell(c.TypeName); m != nil {
				return m
			}
		}
	}
	return a.Cfg.Lib.Cell(c.TypeName)
}

// master returns the library master of a cell (known valid after New) from
// the per-cell cache; cells outside the analyzed design resolve live.
func (a *Analyzer) master(c *netlist.Cell) *liberty.Cell {
	if i := a.cellOf(c); i >= 0 {
		return a.masters[i]
	}
	return a.resolveMaster(c)
}

// refreshGraph brings the graph half current at the start of a full Run.
// While the design's structural revision stands where regraph recorded it,
// that is refreshMasters; a moved revision — cells, nets or pins added,
// removed or reconnected — or a retype that changes a cell's arc shape
// re-derives the graph in place.
func (a *Analyzer) refreshGraph() error {
	if a.topo != nil && a.D.Revision() == a.revision {
		if reshaped, err := a.refreshMasters(); err != nil || !reshaped {
			return err
		}
	}
	a.obsRegraphs.Add(1)
	return a.regraph()
}

// refreshMasters re-resolves every cell's master, preserving the pre-SoA
// live-resolution semantics: a SetType that was never flagged through
// InvalidateCell is still picked up by the next Run. A changed master with
// the same arc shape patches its arc groups and pin caps in place; a shape
// change (different From/To pairs or check binding) is reported, since the
// CSR and the site table no longer describe the cell. An unknown master
// fails the Run with the cell's caches still on its last known one.
func (a *Analyzer) refreshMasters() (reshaped bool, err error) {
	for ci, c := range a.cells {
		m := a.resolveMaster(c)
		if m == a.masters[ci] {
			continue
		}
		if m == nil {
			return false, unknownMaster(c)
		}
		if !sameArcShape(a.masters[ci], m) {
			return true, nil
		}
		a.masters[ci] = m
		a.refreshCellCaches(ci, m)
	}
	return false, nil
}

// refreshCellCaches re-derives one cell's pin caps and arc-group pointers
// from master m, which must have the same arc shape as the group was built
// from.
func (a *Analyzer) refreshCellCaches(ci int, m *liberty.Cell) {
	for k, p := range a.cells[ci].Pins {
		i := int(a.cellBase[ci]) + k
		if p.Dir == netlist.Input {
			a.pinCap[i] = m.InputCap(p.Name)
		}
		a.fillVertexArcs(i, m)
	}
}

// fillVertexArcs rewrites vertex i's prebuilt arc group in place from
// master m. Group sizes cannot change under sameArcShape with an unchanged
// pin set, so the CSR layout stays valid.
func (a *Analyzer) fillVertexArcs(i int, m *liberty.Cell) {
	v := a.verts[i]
	k := a.arcOff[i]
	end := a.arcOff[i+1]
	if v.pin.Dir == netlist.Output {
		for ai := range m.Arcs {
			arc := &m.Arcs[ai]
			if arc.To != v.pin.Name {
				continue
			}
			in := v.pin.Cell.Pin(arc.From)
			if in == nil {
				continue
			}
			if k < end {
				a.arcs[k] = arcRef{arc: arc, other: int32(a.pinVertex(in))}
			}
			k++
		}
	} else {
		for ai := range m.Arcs {
			arc := &m.Arcs[ai]
			if arc.From != v.pin.Name {
				continue
			}
			out := v.pin.Cell.Pin(arc.To)
			if out == nil {
				continue
			}
			if k < end {
				a.arcs[k] = arcRef{arc: arc, other: int32(a.pinVertex(out))}
			}
			k++
		}
	}
	if k != end {
		// Resolvable arc count moved (renamed pins): the prebuilt groups no
		// longer describe the cell; force the next Update to a full Run,
		// which rebuilds them.
		a.structDirty = true
	}
}

// buildArcGroups lays out the combined cell-arc CSR and the input-pin cap
// cache from the current masters.
func (a *Analyzer) buildArcGroups() {
	n := len(a.verts)
	a.arcOff = resize(a.arcOff, n+1)
	a.pinCap = resize(a.pinCap, n)
	clear(a.pinCap) // only input pins are written below
	a.arcs = a.arcs[:0]
	for i := 0; i < n; i++ {
		a.arcOff[i] = int32(len(a.arcs))
		v := a.verts[i]
		if v.pin == nil {
			continue
		}
		m := a.masters[a.topo.cellOf[i]]
		if v.pin.Dir == netlist.Input {
			a.pinCap[i] = m.InputCap(v.pin.Name)
			for ai := range m.Arcs {
				arc := &m.Arcs[ai]
				if arc.From != v.pin.Name {
					continue
				}
				if out := v.pin.Cell.Pin(arc.To); out != nil {
					a.arcs = append(a.arcs, arcRef{arc: arc, other: int32(a.pinVertex(out))})
				}
			}
		} else {
			for ai := range m.Arcs {
				arc := &m.Arcs[ai]
				if arc.To != v.pin.Name {
					continue
				}
				if in := v.pin.Cell.Pin(arc.From); in != nil {
					a.arcs = append(a.arcs, arcRef{arc: arc, other: int32(a.pinVertex(in))})
				}
			}
		}
	}
	a.arcOff[n] = int32(len(a.arcs))
}

// successors invokes fn for every timing edge out of vertex i, from the
// frozen CSR.
func (a *Analyzer) successors(i int, fn func(j int)) {
	t := a.topo
	for _, j := range t.succ[t.succOff[i]:t.succOff[i+1]] {
		fn(int(j))
	}
}

// successorsPointerWalk enumerates vertex i's timing edges by walking the
// netlist and master-arc pointers — the pre-SoA enumeration the CSR is
// frozen from. Kept as the independent reference for the CSR equivalence
// property test.
func (a *Analyzer) successorsPointerWalk(i int, fn func(j int)) {
	v := a.verts[i]
	switch {
	case v.port != nil && v.port.Dir == netlist.Input:
		for _, l := range v.port.Net.Loads {
			fn(a.pinVertex(l))
		}
	case v.pin != nil && v.pin.Dir == netlist.Output:
		if v.pin.Net == nil {
			return
		}
		for _, l := range v.pin.Net.Loads {
			fn(a.pinVertex(l))
		}
		if p := v.pin.Net.Port; p != nil && p.Dir == netlist.Output {
			fn(a.portVertex(p))
		}
	case v.pin != nil && v.pin.Dir == netlist.Input:
		m := a.master(v.pin.Cell)
		for k := range m.Arcs {
			if m.Arcs[k].From == v.pin.Name {
				if out := v.pin.Cell.Pin(m.Arcs[k].To); out != nil {
					fn(a.pinVertex(out))
				}
			}
		}
	}
}

// SuccessorsCSR invokes fn for every edge out of vertex i from the frozen
// CSR (test hook).
func (a *Analyzer) SuccessorsCSR(i int, fn func(j int)) { a.successors(i, fn) }

// SuccessorsPointerWalk invokes fn for every edge out of vertex i by the
// pre-SoA pointer walk (test hook; reference for CSR equivalence).
func (a *Analyzer) SuccessorsPointerWalk(i int, fn func(j int)) { a.successorsPointerWalk(i, fn) }

// NumVerts returns the analyzer's vertex count (test hook).
func (a *Analyzer) NumVerts() int { return len(a.verts) }

// FaninEdge returns the net edge feeding vertex i: the driver vertex, the
// net, and i's sink index in that net's delay results (driver -1 when the
// vertex is fed by cell arcs or seeds only). Test hook for the CSR fanin
// equivalence property.
func (a *Analyzer) FaninEdge(i int) (driver int, net *netlist.Net, sink int) {
	t := a.topo
	if ni := t.faninNet[i]; ni >= 0 {
		net = a.D.Nets[ni]
	}
	return int(t.faninDriver[i]), net, int(t.faninSink[i])
}
