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
	// levelization and clock marking — the per-scenario cost an MCMM
	// scenario set (core.Views) avoids by sharing one read-only Topology.
	// It is consulted whenever the graph is derived: at New, and again by
	// the Run that follows a structural edit. An incompatible
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

// vertexName prints a vertex from its netlist object, exactly one of p and
// q being non-nil.
func vertexName(p *netlist.Pin, q *netlist.Port) string {
	if q != nil {
		return "port:" + q.Name
	}
	return p.FullName()
}

// vname returns a printable vertex name.
func (a *Analyzer) vname(i int) string { return vertexName(a.vertex(a.topo.cellOf, i)) }

// netData is one net's entry in the per-net delay-calc cache: the results
// of its last fill, plus the inputs they were computed from, so that an
// unchanged net skips the whole moment computation on the next Run (the
// results are a pure function of the source tree, the gathered sink caps and
// the analyzer's fixed config, so reuse is bit-identical to recomputation).
type netData struct {
	// net is the net this entry was last bound to (buildNets).
	net *netlist.Net
	// srcTree, portSink and the sink caps at the end of res are the input
	// key of the last fill.
	srcTree *parasitics.Tree
	// res is the entry's own storage, reused across fills. For the k sinks
	// of a routed net it holds their early wire delays, late wire delays
	// and wire slews, k of each, then the sink caps in load order (plus the
	// port load when bound). A lumped net (k = 0) holds only the caps: its
	// wire delays and slews are 0.
	res      []float64
	totalCap [2]float64 // [early|late] (differ when SI enabled)
	// dirtyGen is Analyzer.dirtyGen while the net sits on the dirty list.
	dirtyGen uint32
	k        int32
	portSink bool
	filled   bool
}

// sinkDelay is sink s's wire delay on side el.
func (nd *netData) sinkDelay(el, s int) float64 {
	if nd.k == 0 {
		return 0
	}
	return nd.res[el*int(nd.k)+s]
}

// sinkSlew is sink s's wire slew degradation.
func (nd *netData) sinkSlew(s int) float64 {
	if nd.k == 0 {
		return 0
	}
	return nd.res[2*int(nd.k)+s]
}

// caps is the sink caps the entry's results were computed for.
func (nd *netData) caps() []float64 { return nd.res[3*nd.k:] }

// setResults sizes res for k sinks' results and the key caps, on its own
// storage when that fits, and copies the key in.
func (nd *netData) setResults(k int, caps []float64) {
	n := 3*k + len(caps)
	if cap(nd.res) < n {
		nd.res = make([]float64, n)
	}
	nd.res, nd.k = nd.res[:n], int32(k)
	copy(nd.res[3*k:], caps)
}

// calcScratch is one delay-calc worker's storage: the moment kernel's work
// area and the buffer a net's sink caps are gathered into, which reaches the
// net's own entry only when the gather misses its key.
type calcScratch struct {
	parasitics.Scratch
	gather []float64
	// hits and fills are a buildNets chunk's cache outcomes.
	hits, fills int64
}

// arcRef is one prebuilt cell-arc binding: the vertex at the arc's other
// end (the input pin for an output pin's group, the output pin for an input
// pin's group) and the arc's index in the cell's master. A group belongs to
// one cell, so its master resolves the arc — after an in-place master swap
// too, since a swap keeps the arc shape (sameArcShape).
type arcRef struct {
	other int32
	arc   int32
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

	// The netlist objects behind the vertex numbers, which are the
	// netlist's own: cell c's pin p is vertex cellBase[c.Index()]+p.Index(),
	// port q is portBase+q.Index() (see pinVertex, portVertex and, back,
	// vertex). The first baseCells cells come before the ports, the cells
	// a patch appended after them (see number); cellBase[len(cells)] is nv,
	// the vertex count.
	cellBase  []int32
	ports     []*netlist.Port
	baseCells int
	portBase  int32

	// topo is nil only after a failed regraph; revision is D.Revision() as of
	// the graph's derivation or its last patch.
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
	arcOff slab[int32]
	arcs   slab[arcRef]
	// pinCap caches input-pin capacitance per vertex (master-resolved).
	pinCap slab[float64]

	// Flat mutable per-run state, 4 planes per vertex (ix4 layout).
	fValid slab[bool]
	fArr   slab[timeVar]
	fSlew  slab[float64]
	fDepth slab[int32]
	fPred  slab[pred]
	rValid slab[bool]
	fReq   slab[float64]
	// Endpoint-check seeds, 2 planes per vertex (ix2 layout), recorded so
	// incremental updates can detect when an endpoint's check moved.
	seedReq   slab[float64]
	seedValid slab[bool]

	// vnd binds each vertex to its relevant entry of nets, the per-net
	// delay-calc cache (-1 for none): the driven net for output pins and
	// input ports (pull side), the fanin net for input pins and output ports
	// (relax side). buildNets keeps nets one entry per D.Nets position and
	// rebinds vnd.
	vnd  slab[int32]
	nets slab[netData]

	// Delay-calc scratch: calc[0] serves every serial fill (small designs,
	// incremental Updates), buildNets' fan-out gives chunk k calc[k].
	calc []calcScratch

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
	fwQ, bwQ            levelQueue
	changedList         []int
	wave                []int32 // the level a full Run's gang is splitting
	topoScratch         []int32 // buildTopologyCSR's cursors, in-degrees and Kahn queue; patchTopology's marks
	coneScratch         []int32 // patchTopology's cone
	coneOrder           []int32 // and the cone in the order it levelized

	// Incremental re-timing state (see incremental.go): what was
	// invalidated since the last Run or Update, in invalidation order.
	dirtyNets   []int32 // indices into nets
	dirtyGen    uint32
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
	obsTopoBuilt       *obs.Counter // graph derivations that levelized a Topology of their own
	obsTopoPatched     *obs.Counter // journaled buffer edits patched into a new Topology
	obsRegraphs        *obs.Counter // full Runs that re-derived the graph in place
	obsGraphVerts      *obs.Gauge
	obsGraphLevels     *obs.Gauge
}

// New builds the analysis graph. It fails on a clock period that is not a
// positive finite number, unknown cell masters or structural problems
// (combinational cycles, undriven logic).
func New(d *netlist.Design, cons *Constraints, cfg Config) (*Analyzer, error) {
	if cfg.Derate == nil {
		cfg.Derate = NoDerate{}
	}
	if cfg.Lib == nil {
		return nil, fmt.Errorf("sta: no library")
	}
	for _, ck := range cons.Clocks {
		if p := float64(ck.Period); !(p > 0) || math.IsInf(p, 1) {
			return nil, fmt.Errorf("sta: clock %q period %v ps is not a positive finite number", ck.Name, ck.Period)
		}
	}
	if err := checkDerate(cfg.Derate); err != nil {
		return nil, err
	}
	a := &Analyzer{D: d, Cons: cons, Cfg: cfg, dirtyGen: 1}
	cfg.Obs.Counter("sta.analyzers_built").Add(1)
	a.bindObs()
	if err := a.regraph(); err != nil {
		return nil, err
	}
	return a, nil
}

// resize returns s with length n on s's own storage when it fits. A first
// allocation is exact, so a slab that never grows carries no slack; one
// that has been outgrown is replaced with headroom (n/8), as at a
// derivation of a larger design. The slabs a patch grows — the per-vertex
// planes, the arc groups, the net cache — append in a segment of their own
// instead (slab.grow), so their exact first allocation is never replaced.
// The first min(len(s), n) elements are kept; callers overwrite or clear
// the rest.
func resize[T any](s []T, n int) []T {
	switch {
	case n <= cap(s):
		return s[:n]
	case s == nil:
		return make([]T, n)
	}
	return append(make([]T, 0, n+n/8), s...)[:n]
}

// regraph derives the graph half of the analyzer — everything that depends
// on which cells, pins, nets and ports the design has and how they connect —
// from the design as it stands, on the receiver's own storage. It is the one
// graph derivation: New runs it on an empty analyzer, and a full Run runs it
// again whenever the design's structural revision has moved since by an
// edit a patch cannot follow (see RefreshGraph).
//
// Rebuilt: the cell and port tables and the numbering (every cell before
// the ports, in design order, so numbering stays the pure function of
// design order the Topology sharing contract needs — or, adopting a
// Topology a patch grew, numbered as it is), the resolved masters, the
// Topology (Cfg.Topology adopted when compatible, else built — always a new
// value, since the old one may be shared), arc groups and pin caps, and the
// length of every per-vertex plane (the check-site table follows in Run),
// each slab folded into one segment (see slab). The dirty lists are
// dropped; the incremental worklists keep their storage and are resized by
// the next Update. What survives is the per-net delay-calc cache, folded
// too and resized to the design's nets: fillNetData reuses an entry only
// when its tree pointer, sink caps and port load match exactly, so a full
// Run over a regraphed analyzer is bit-identical to a fresh New + Run while
// refilling only the nets whose loads actually moved.
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
	a.cells = resize(a.cells, len(d.Cells))
	a.masters = resize(a.masters, len(d.Cells))
	a.ports = resize(a.ports, len(d.Ports))
	for ci, c := range d.Cells {
		master := a.resolveMaster(c)
		if master == nil {
			return unknownMaster(c)
		}
		a.cells[ci], a.masters[ci] = c, master
	}
	copy(a.ports, d.Ports)
	// Vertices: every cell pin, every port — in design iteration order, so
	// numbering is identical across Clones (the sharing contract). A shared
	// topology that a patch grew numbers its appended cells after the ports;
	// adopting it means numbering as it does.
	t := a.Cfg.Topology
	if t != nil && t.baseCells <= len(d.Cells) {
		a.number(t.baseCells)
	} else {
		a.number(len(d.Cells))
	}
	if t != nil && t.compatible(a) {
		a.topo, a.sharedTopo = t, true
		a.obsTopoShared.Add(1)
	} else {
		a.number(len(d.Cells))
		if t, err = a.buildTopologyCSR(); err != nil {
			return err
		}
		a.topo, a.sharedTopo = t, false
	}
	a.growArcGroups(0)
	a.resizePlanes(true)
	a.nets.fold(len(d.Nets))
	// The dirty lists hold vertex numbers.
	a.clearDirty()
	a.revision = d.Revision()
	a.obsGraphVerts.Set(float64(a.NumVerts()))
	a.obsGraphLevels.Set(float64(a.topo.numLevels()))
	return nil
}

// number lays out the vertex numbers: the pins of the first base cells in
// design order, then the ports, then the pins of the cells after them. A
// derivation numbers every cell before the ports (base = len(cells)); a
// patch keeps the base it found, so the cells it appends are numbered after
// the ports and nothing numbered before moves.
func (a *Analyzer) number(base int) {
	a.baseCells = base
	a.cellBase = resize(a.cellBase, len(a.cells)+1)
	vi := int32(0)
	for ci, c := range a.cells {
		if ci == base {
			a.portBase = vi
			vi += int32(len(a.ports))
		}
		a.cellBase[ci] = vi
		vi += int32(len(c.Pins))
	}
	if base == len(a.cells) {
		a.portBase = vi
		vi += int32(len(a.ports))
	}
	a.cellBase[len(a.cells)] = vi
}

// resizePlanes sizes every per-vertex plane to the graph: folded into one
// segment at a derivation, grown behind the kept one at a patch (see slab).
// Run clears the nine state arrays and rebinds vnd before reading any of
// them; a patch clears what it appended.
func (a *Analyzer) resizePlanes(fold bool) {
	nv := a.NumVerts()
	a.fValid.resize(4*nv, fold)
	a.fArr.resize(4*nv, fold)
	a.fSlew.resize(4*nv, fold)
	a.fDepth.resize(4*nv, fold)
	a.fPred.resize(4*nv, fold)
	a.rValid.resize(4*nv, fold)
	a.fReq.resize(4*nv, fold)
	a.seedReq.resize(2*nv, fold)
	a.seedValid.resize(2*nv, fold)
	a.vnd.resize(nv, fold)
}

// dropGraph forgets a half-derived graph: no vertex, cell or check site
// resolves, so every query answers "not in the design" instead of indexing
// planes sized for another numbering, and topo == nil makes the next Run
// derive the graph again.
func (a *Analyzer) dropGraph() {
	a.cells, a.masters, a.ports = a.cells[:0], a.masters[:0], a.ports[:0]
	a.cellBase, a.baseCells, a.portBase = append(a.cellBase[:0], 0), 0, 0
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
	if k := p.Index(); k >= 0 && k < len(a.ports) && a.ports[k] == p {
		return int(a.portBase) + k
	}
	return -1
}

// vertex returns the pin or the port behind vertex i, under cellOf — the
// current Topology's, or one being built.
func (a *Analyzer) vertex(cellOf []int32, i int) (*netlist.Pin, *netlist.Port) {
	if ci := cellOf[i]; ci >= 0 {
		return a.cells[ci].Pins[i-int(a.cellBase[ci])], nil
	}
	return nil, a.ports[i-int(a.portBase)]
}

// pinAt returns vertex i's pin, or nil for a port's vertex.
func (a *Analyzer) pinAt(i int) *netlist.Pin {
	p, _ := a.vertex(a.topo.cellOf, i)
	return p
}

// portAt returns vertex i's port, or nil for a pin's vertex.
func (a *Analyzer) portAt(i int) *netlist.Port {
	if k := i - int(a.portBase); k >= 0 && k < len(a.ports) {
		return a.ports[k]
	}
	return nil
}

// netIndex returns n's entry in nets as of the last buildNets, or -1 (n
// itself may be nil: an unconnected pin's net).
func (a *Analyzer) netIndex(n *netlist.Net) int32 {
	if n == nil {
		return -1
	}
	if i := n.Index(); i >= 0 && i < a.nets.len() && a.nets.at(i).net == n {
		return int32(i)
	}
	return -1
}

// netDataOf returns n's delay-calc entry as of the last buildNets, or nil.
func (a *Analyzer) netDataOf(n *netlist.Net) *netData {
	if i := a.netIndex(n); i >= 0 {
		return a.nets.at(int(i))
	}
	return nil
}

// vnet returns the delay-calc entry vertex i's rules read (see vnd), or nil.
func (a *Analyzer) vnet(i int) *netData {
	if ni := *a.vnd.at(i); ni >= 0 {
		return a.nets.at(int(ni))
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
	a.obsTopoBuilt = r.Counter("sta.topologies_built")
	a.obsTopoPatched = r.Counter("sta.topologies_patched")
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

// RefreshGraph brings the graph half current with the design: the first
// step of a full Run. While the design's structural revision stands where
// the graph recorded it, that is refreshMasters. A moved revision that the
// design's journal carries — buffers inserted, the newest ones taken out —
// is patched in (see patch), adopting Cfg.Topology when it already describes
// the result; any other structural edit, or a retype that changes a cell's
// arc shape, re-derives the graph in place, adopting Cfg.Topology when it
// fits. Either way the analyzer is left untimed until its next Run. It is
// exported for a set of analyzers over one design (core.Views.Rerun): one
// brings its graph current alone, the rest adopt its Topology as they run,
// and the first's own Run then finds nothing left to re-derive.
func (a *Analyzer) RefreshGraph() error {
	if a.topo != nil && a.D.Revision() == a.revision {
		if reshaped, err := a.refreshMasters(); err != nil || !reshaped {
			return err
		}
	} else if a.patch(false) {
		a.ran = false
		return nil
	}
	a.ran = false
	a.obsRegraphs.Add(1)
	return a.regraph()
}

// refreshMasters re-resolves every cell's master, preserving the pre-SoA
// live-resolution semantics: a SetType that was never flagged through
// InvalidateCell is still picked up by the next Run. A changed master with
// the same arc shape patches its pin caps in place (its arc groups name arcs
// by index, which the new master resolves alike); a shape change (different
// From/To pairs or check binding) is reported, since the CSR and the site
// table no longer describe the cell. An unknown master fails the Run with
// the cell's caches still on its last known one.
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
		a.refreshPinCaps(ci, m)
	}
	return false, nil
}

// refreshPinCaps re-reads one cell's input-pin caps from master m.
func (a *Analyzer) refreshPinCaps(ci int, m *liberty.Cell) {
	for k, p := range a.cells[ci].Pins {
		if p.Dir == netlist.Input {
			*a.pinCap.at(int(a.cellBase[ci]) + k) = m.InputCap(p.Name)
		}
	}
}

// eachArc calls fn for every arc in pin p's group under p's master m, in
// master order: the arcs into an output pin, the arcs out of an input pin,
// each with its index in m.Arcs and the pin at its other end. An arc whose
// other end the cell lacks is skipped.
func eachArc(m *liberty.Cell, p *netlist.Pin, fn func(k int, other *netlist.Pin)) {
	for k := range m.Arcs {
		arc := &m.Arcs[k]
		from, to := arc.From, arc.To
		if p.Dir == netlist.Output {
			from, to = to, from
		}
		if from != p.Name {
			continue
		}
		if other := p.Cell.Pin(to); other != nil {
			fn(k, other)
		}
	}
}

// growArcGroups lays out the combined cell-arc CSR and the input-pin cap
// cache from the current masters for vertices from..nv, in vertex order,
// behind the groups of the vertices before from, which it keeps: from 0 at
// a derivation, which folds the slabs into one segment, from the first
// appended vertex at a patch, which grows them behind the kept segment
// (see slab). A kept vertex's group lies below every appended one's, so each
// group is in one segment. One pass counts every group, so the entry slab
// is sized to its total before the second fills it.
func (a *Analyzer) growArcGroups(from int) {
	n, fold := a.NumVerts(), from == 0
	a.arcOff.resize(n+1, fold)
	a.pinCap.resize(n, fold)
	a.pinCap.clearFrom(from) // only input pins are written below
	total := int32(0)
	if from > 0 {
		total = *a.arcOff.at(from)
	}
	each := func(fn func(i int, m *liberty.Cell, p *netlist.Pin)) {
		for i := from; i < n; {
			if ci := a.topo.cellOf[i]; ci >= 0 {
				for k, p := range a.cells[ci].Pins {
					fn(i+k, a.masters[ci], p)
				}
				i += len(a.cells[ci].Pins)
				continue
			}
			fn(i, nil, nil)
			i++
		}
	}
	each(func(i int, m *liberty.Cell, p *netlist.Pin) {
		*a.arcOff.at(i) = total
		if p == nil {
			return
		}
		if p.Dir == netlist.Input {
			*a.pinCap.at(i) = m.InputCap(p.Name)
		}
		eachArc(m, p, func(int, *netlist.Pin) { total++ })
	})
	*a.arcOff.at(n) = total
	a.arcs.resize(int(total), fold)
	each(func(i int, m *liberty.Cell, p *netlist.Pin) {
		if p == nil {
			return
		}
		at := *a.arcOff.at(i)
		eachArc(m, p, func(arc int, other *netlist.Pin) {
			*a.arcs.at(int(at)) = arcRef{other: int32(a.pinVertex(other)), arc: int32(arc)}
			at++
		})
	})
}

// arcOf returns the timing arc of group entry ai, which belongs to vertex
// i's cell.
func (a *Analyzer) arcOf(i int, ai int32) *liberty.TimingArc {
	return &a.masters[a.topo.cellOf[i]].Arcs[a.arcs.at(int(ai)).arc]
}

// group returns vertex i's cell-arc group.
func (a *Analyzer) group(i int) []arcRef {
	return a.arcs.span(int(*a.arcOff.at(i)), int(*a.arcOff.at(i + 1)))
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
// frozen from (under the cellOf of the Topology being built). Kept as the
// independent reference for the CSR equivalence property test.
func (a *Analyzer) successorsPointerWalk(cellOf []int32, i int, fn func(j int)) {
	pin, port := a.vertex(cellOf, i)
	switch {
	case port != nil && port.Dir == netlist.Input:
		for _, l := range port.Net.Loads {
			fn(a.pinVertex(l))
		}
	case pin != nil && pin.Dir == netlist.Output:
		if pin.Net == nil {
			return
		}
		for _, l := range pin.Net.Loads {
			fn(a.pinVertex(l))
		}
		if p := pin.Net.Port; p != nil && p.Dir == netlist.Output {
			fn(a.portVertex(p))
		}
	case pin != nil && pin.Dir == netlist.Input:
		eachArc(a.master(pin.Cell), pin, func(_ int, out *netlist.Pin) { fn(a.pinVertex(out)) })
	}
}

// SuccessorsCSR invokes fn for every edge out of vertex i from the frozen
// CSR (test hook).
func (a *Analyzer) SuccessorsCSR(i int, fn func(j int)) { a.successors(i, fn) }

// SuccessorsPointerWalk invokes fn for every edge out of vertex i by the
// pre-SoA pointer walk (test hook; reference for CSR equivalence).
func (a *Analyzer) SuccessorsPointerWalk(i int, fn func(j int)) {
	a.successorsPointerWalk(a.topo.cellOf, i, fn)
}

// NumVerts returns the analyzer's vertex count.
func (a *Analyzer) NumVerts() int { return int(a.cellBase[len(a.cells)]) }

// FaninEdge returns the net edge feeding vertex i: the driver vertex, the
// net, and i's sink index in that net's delay results (driver -1 when the
// vertex is fed by cell arcs or seeds only). Test hook for the CSR fanin
// equivalence property.
func (a *Analyzer) FaninEdge(i int) (driver int, net *netlist.Net, sink int) {
	t := a.topo
	if t.faninDriver[i] >= 0 {
		if p, q := a.vertex(t.cellOf, i); p != nil {
			net = p.Net
		} else {
			net = q.Net
		}
	}
	return int(t.faninDriver[i]), net, int(t.faninSink[i])
}
