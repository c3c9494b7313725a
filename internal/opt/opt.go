// Package opt implements the timing-closure fix arsenal in the order the
// paper's Figure 1 recommends ("apply simplest optimizations first:
// Vt-swap first, followed by gate sizing, buffer insertion, non-default
// routing rule application, and useful skew"), plus the DRC/noise fixes of
// the final manual-ECO phase, leakage recovery, and the MinIA-aware swap
// variant that §2.4 shows is mandatory below 20nm.
package opt

import (
	"fmt"
	"math"
	"sort"

	"newgame/internal/liberty"
	"newgame/internal/netlist"
	"newgame/internal/place"
	"newgame/internal/sta"
	"newgame/internal/units"
)

// Context carries the design state a fix pass operates on.
type Context struct {
	// A is the analyzer a pass re-times. Non-default rules go on its
	// parasitics table; without one, passes assign none.
	A   *sta.Analyzer
	Lib *liberty.Library
	// Place, when non-nil, enables MinIA-aware Vt moves (paper §2.4: below
	// 20nm, post-route Vt swap is no longer placement-independent).
	Place *place.Placement
	// SetupGuard, when non-nil, is a second analysis view (typically the
	// slow setup corner) that hold fixing must not break — the cross-corner
	// ping-pong guard of paper §2.3 ("fix timing violations without
	// ping-pong effects across multiple modes and/or corners").
	SetupGuard *sta.Analyzer
	// Verify, when non-nil, is the caller's cross-scenario acceptance test
	// run after each recovery batch (e.g. a full MCMM re-survey): a false
	// return reverts the batch, and an error ends the pass with it. Local
	// single-view checks still apply.
	Verify func() (bool, error)
}

// Report summarizes one fix pass.
type Report struct {
	Pass    string
	Changed int
	// WNS/TNS before and after (setup unless the pass is hold-directed).
	WNSBefore, WNSAfter units.Ps
	TNSBefore, TNSAfter units.Ps
	// LeakageDelta (nW) and AreaDelta (µm²) record the cost.
	LeakageDelta float64
	AreaDelta    float64
	// MinIACreated counts implant violations introduced (MinIA-blind
	// moves) or left behind.
	MinIACreated int
}

func (r Report) String() string {
	return fmt.Sprintf("%-12s changed=%-4d WNS %7.1f -> %7.1f  TNS %8.1f -> %8.1f",
		r.Pass, r.Changed, r.WNSBefore, r.WNSAfter, r.TNSBefore, r.TNSAfter)
}

// vtFaster returns the next faster Vt class, or -1.
func vtFaster(v liberty.VtClass) liberty.VtClass {
	switch v {
	case liberty.HVT:
		return liberty.SVT
	case liberty.SVT:
		return liberty.LVT
	}
	return -1
}

// vtSlower returns the next slower Vt class, or -1.
func vtSlower(v liberty.VtClass) liberty.VtClass {
	switch v {
	case liberty.LVT:
		return liberty.SVT
	case liberty.SVT:
		return liberty.HVT
	}
	return -1
}

// VtSwapOptions tunes the timing-driven swap.
type VtSwapOptions struct {
	// MaxMoves bounds swaps per invocation.
	MaxMoves int
	// MinIAAware rejects swaps that would create implant violations
	// (requires ctx.Place).
	MinIAAware bool
	// Rule is the implant rule used when MinIAAware.
	Rule place.MinIARule
}

// DefaultVtSwap is the standard recipe.
func DefaultVtSwap() VtSwapOptions {
	return VtSwapOptions{MaxMoves: 200, MinIAAware: true, Rule: place.DefaultMinIA}
}

// VtSwap speeds up negative-slack cells by stepping them toward LVT — the
// first and cheapest fix (no placement or routing disturbance... until
// MinIA makes it placement-dependent).
func VtSwap(ctx *Context, opts VtSwapOptions) (Report, error) {
	rep := Report{Pass: "vt_swap"}
	if err := ctx.A.Run(); err != nil {
		return rep, err
	}
	rep.WNSBefore = ctx.A.WorstSlack(sta.Setup)
	rep.TNSBefore = ctx.A.TNS(sta.Setup)
	var baseViol int
	if ctx.Place != nil {
		baseViol = len(ctx.Place.Violations(opts.Rule))
	}
	for iter := 0; iter < 6 && rep.Changed < opts.MaxMoves; iter++ {
		cands := negativeSlackCells(ctx)
		if len(cands) == 0 {
			break
		}
		moved := 0
		for _, c := range cands {
			if rep.Changed >= opts.MaxMoves {
				break
			}
			m := ctx.Lib.Cell(c.TypeName)
			faster := vtFaster(m.Vt)
			if faster < 0 {
				continue
			}
			variant := ctx.Lib.Variant(m, m.Drive, faster)
			if variant == nil {
				continue
			}
			if opts.MinIAAware && ctx.Place != nil {
				if createsMinIA(ctx.Place, c, variant.Name, opts.Rule) {
					continue
				}
			}
			rep.LeakageDelta += variant.Leakage - m.Leakage
			rep.AreaDelta += variant.Area - m.Area
			c.SetType(variant.Name)
			ctx.A.InvalidateCell(c)
			rep.Changed++
			moved++
		}
		if moved == 0 {
			break
		}
		// Master swaps are non-structural: incremental re-timing only
		// touches the swapped cells' cones instead of the whole graph.
		if err := ctx.A.Update(); err != nil {
			return rep, err
		}
	}
	rep.WNSAfter = ctx.A.WorstSlack(sta.Setup)
	rep.TNSAfter = ctx.A.TNS(sta.Setup)
	if ctx.Place != nil {
		rep.MinIACreated = len(ctx.Place.Violations(opts.Rule)) - baseViol
	}
	return rep, nil
}

// createsMinIA checks whether retyping cell c to master would leave an
// implant violation in c's row (trial change, scan, revert).
func createsMinIA(p *place.Placement, c *netlist.Cell, master string, rule place.MinIARule) bool {
	old := c.TypeName
	c.SetType(master)
	bad := rowHasViolationWith(p, c, rule)
	c.SetType(old)
	return bad
}

func rowHasViolationWith(p *place.Placement, c *netlist.Cell, rule place.MinIARule) bool {
	loc := p.Loc(c)
	if loc == nil {
		return false
	}
	for _, v := range p.Violations(rule) {
		if v.Row == loc.Row {
			return true
		}
	}
	return false
}

// negativeSlackCells returns combinational cells on violating paths, worst
// slack first, deduplicated.
func negativeSlackCells(ctx *Context) []*netlist.Cell {
	type cs struct {
		c *netlist.Cell
		s float64
	}
	var cands []cs
	seen := map[*netlist.Cell]bool{}
	for _, p := range ctx.A.WorstPaths(sta.Setup, min(40, ctx.A.Summary(sta.Setup).Violations)) {
		if p.GBASlack >= 0 {
			break
		}
		for _, st := range p.Steps {
			if !st.IsCell || st.Cell == nil || seen[st.Cell] {
				continue
			}
			m := ctx.Lib.Cell(st.Cell.TypeName)
			if m.IsSequential() {
				continue
			}
			seen[st.Cell] = true
			cands = append(cands, cs{st.Cell, p.GBASlack})
		}
	}
	sort.SliceStable(cands, func(i, j int) bool { return cands[i].s < cands[j].s })
	out := make([]*netlist.Cell, len(cands))
	for i, x := range cands {
		out[i] = x.c
	}
	return out
}

// recoveryMove is one candidate downgrade with its revert data.
type recoveryMove struct {
	c        *netlist.Cell
	from, to string
}

// slackCell is a recovery candidate: a cell and its setup slack.
type slackCell struct {
	c *netlist.Cell
	s float64
}

// runRecovery is the shared batched engine under leakage and area
// recovery: apply a batch of downgrades, re-time, and revert the whole
// batch if setup WNS dips below the safety floor or DRC violations grow —
// per-cell slack floors do not compose along shared paths, so verification
// is the only safe acceptance test.
func runRecovery(ctx *Context, rep *Report, pick func(limit int) []recoveryMove) error {
	if err := ctx.A.Run(); err != nil {
		return err
	}
	rep.WNSBefore = ctx.A.WorstSlack(sta.Setup)
	rep.TNSBefore = ctx.A.TNS(sta.Setup)
	// Recovery may spend slack down to a small positive guard, but must
	// never push a met design into violation nor worsen an unmet one.
	const guard = 0.5
	floorWNS := math.Min(rep.WNSBefore, guard)
	floorHold := math.Min(ctx.A.WorstSlack(sta.Hold), 0)
	baseDRC := len(ctx.A.DRCViolations())
	batchSize := 40
	for iter := 0; iter < 40 && batchSize >= 1; iter++ {
		batch := pick(batchSize)
		if len(batch) == 0 {
			break
		}
		var dLeak, dArea float64
		for _, mv := range batch {
			from := ctx.Lib.Cell(mv.from)
			to := ctx.Lib.Cell(mv.to)
			dLeak += to.Leakage - from.Leakage
			dArea += to.Area - from.Area
			mv.c.SetType(mv.to)
			ctx.A.InvalidateCell(mv.c)
		}
		if err := ctx.A.Update(); err != nil {
			return err
		}
		bad := ctx.A.WorstSlack(sta.Setup) < floorWNS-1e-9 ||
			ctx.A.WorstSlack(sta.Hold) < floorHold-1e-9 ||
			len(ctx.A.DRCViolations()) > baseDRC
		if !bad && ctx.Verify != nil {
			ok, err := ctx.Verify()
			if err != nil {
				return err
			}
			bad = !ok
		}
		if bad {
			// Revert and shrink the batch to isolate safe moves.
			for _, mv := range batch {
				mv.c.SetType(mv.from)
				ctx.A.InvalidateCell(mv.c)
			}
			if err := ctx.A.Update(); err != nil {
				return err
			}
			batchSize /= 2
			continue
		}
		rep.LeakageDelta += dLeak
		rep.AreaDelta += dArea
		rep.Changed += len(batch)
	}
	rep.WNSAfter = ctx.A.WorstSlack(sta.Setup)
	rep.TNSAfter = ctx.A.TNS(sta.Setup)
	return nil
}

// LeakageRecovery downswaps cells with comfortable slack toward HVT —
// the power-recovery flipside run after timing is met ("relentless pursuit
// of margin recovery", paper §1.3). Moves are applied in verified batches.
func LeakageRecovery(ctx *Context, slackFloor units.Ps, maxMoves int) (Report, error) {
	rep := Report{Pass: "leak_recover"}
	tried := map[*netlist.Cell]bool{}
	var cands []slackCell // one list per pass, refilled per batch
	pick := func(limit int) []recoveryMove {
		if rep.Changed >= maxMoves {
			return nil
		}
		cands = cands[:0]
		for _, c := range ctx.A.D.Cells {
			m := ctx.Lib.Cell(c.TypeName)
			if tried[c] || m.IsSequential() || vtSlower(m.Vt) < 0 {
				continue
			}
			s := ctx.A.CellSetupSlack(c)
			if !math.IsInf(s, 0) && s > slackFloor {
				cands = append(cands, slackCell{c, s})
			}
		}
		sort.Slice(cands, func(i, j int) bool { return cands[i].s > cands[j].s })
		var batch []recoveryMove
		for _, x := range cands {
			if len(batch) >= limit || rep.Changed+len(batch) >= maxMoves {
				break
			}
			m := ctx.Lib.Cell(x.c.TypeName)
			variant := ctx.Lib.Variant(m, m.Drive, vtSlower(m.Vt))
			if variant == nil {
				continue
			}
			if ctx.Place != nil && createsMinIA(ctx.Place, x.c, variant.Name, place.DefaultMinIA) {
				continue
			}
			tried[x.c] = true
			batch = append(batch, recoveryMove{c: x.c, from: x.c.TypeName, to: variant.Name})
		}
		return batch
	}
	err := runRecovery(ctx, &rep, pick)
	return rep, err
}

// WideSpaced is the classic 2W2S non-default rule: half the resistance,
// modestly more ground cap, much less coupling.
var WideSpaced = sta.NDR{Name: "2W2S", R: 0.52, C: 1.12, Cc: 0.45}

// Shielded adds grounded shield wires alongside the net: coupling nearly
// eliminated, ground cap up — the escalation for nets whose coupling
// fraction no spacing rule can save.
var Shielded = sta.NDR{Name: "shield", R: 0.52, C: 1.30, Cc: 0.10}
