package sta

// Per-run propagation statistics, accumulated in plain struct fields
// inside the SoA hot loops and published to obs exactly once per
// Run/Update. The forward and backward sweeps drive their levels from one
// serial outer loop (only the intra-level relaxation fans out), so plain
// increments are race-free there; the one parallel accumulation site —
// net-cache hits under a concurrent buildNets — folds per-chunk local
// counts through one atomic add per chunk (see buildNets). Keeping
// per-level atomic histogram traffic out of the wave loops is what holds
// the obs-on overhead of a warm Run inside the <5% budget.

// RunStats summarizes the last completed Run or Update.
type RunStats struct {
	// Levels is the number of level wavefronts the forward sweep visited.
	Levels int
	// WidestWave is the widest forward wavefront.
	WidestWave int
	// SerialLevels counts sub-threshold wavefronts swept serially despite
	// Workers > 1; ParallelLevels counts wavefronts fanned out across
	// workers. Both sweeps contribute.
	SerialLevels   int
	ParallelLevels int
	// NodesRelaxed counts vertex relaxations across both sweeps (for an
	// incremental Update: cone vertices recomputed).
	NodesRelaxed int64
	// NetCacheHits counts nets whose delay calculation was served by the
	// input-keyed per-net cache; NetsFilled counts nets recomputed.
	NetCacheHits int64
	NetsFilled   int64
}

// LastRunStats returns the statistics of the analyzer's last completed
// Run or Update. Not synchronized with a concurrent Run — read it from
// the goroutine that ran the analysis.
func (a *Analyzer) LastRunStats() RunStats { return a.stats }

// publishRunStats folds the per-run stats into the recorder's cumulative
// instruments — the single obs interaction per run on the stats path.
func (a *Analyzer) publishRunStats() {
	if a.Cfg.Obs == nil {
		return
	}
	a.obsWidestWave.Observe(float64(a.stats.WidestWave))
	a.obsLevelsSerial.Add(int64(a.stats.SerialLevels))
	a.obsLevelsParallel.Add(int64(a.stats.ParallelLevels))
	a.obsNodesRelaxed.Add(a.stats.NodesRelaxed)
	a.publishNetCacheStats()
}

// publishNetCacheStats publishes just the delay-calc cache counters —
// the subset an incremental Update contributes beyond its existing cone
// metrics.
func (a *Analyzer) publishNetCacheStats() {
	a.obsNetCacheHits.Add(a.stats.NetCacheHits)
	a.obsNetsFilled.Add(a.stats.NetsFilled)
}

// Resident is what one analyzer holds, in bytes, by owner, counted from the
// capacities of its slabs. The shared Topology and the parasitics table are
// not in it; neither are the endpoint lists and the writer's scratch.
type Resident struct {
	// Planes is the per-vertex and per-cell state: the arrival, slew, depth,
	// predecessor and required-time planes, the endpoint seeds, the pin-cap
	// cache and the cell and port tables behind the vertex numbers.
	Planes int
	// NetCache is the per-net delay-calc cache: its entries, each entry's
	// results and input key, and the vertex-to-entry binding.
	NetCache int
	// ArcGroups is the cell-arc CSR: the group offsets and the entries.
	ArcGroups int
}

// ResidentBytes reports what the analyzer holds by owner. Like the other
// readers it must not run concurrently with a Run or Update.
func (a *Analyzer) ResidentBytes() Resident {
	r := Resident{
		Planes: a.fValid.bytes() + a.fArr.bytes() + a.fSlew.bytes() + a.fDepth.bytes() +
			a.fPred.bytes() + a.rValid.bytes() + a.fReq.bytes() +
			a.seedReq.bytes() + a.seedValid.bytes() + a.pinCap.bytes() +
			slabBytes(a.cellBase) + slabBytes(a.cells) + slabBytes(a.masters) + slabBytes(a.ports),
		NetCache:  a.nets.bytes() + a.vnd.bytes(),
		ArcGroups: a.arcOff.bytes() + a.arcs.bytes(),
	}
	for i := range a.nets.len() {
		r.NetCache += slabBytes(a.nets.at(i).res)
	}
	return r
}
