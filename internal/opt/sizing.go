package opt

import (
	"math"
	"sort"

	"newgame/internal/netlist"
	"newgame/internal/sta"
)

// ResizeOptions tunes gate sizing.
type ResizeOptions struct {
	MaxMoves int
	// Iterations of size-recompute-size.
	Iterations int
}

// DefaultResize is the standard recipe.
func DefaultResize() ResizeOptions { return ResizeOptions{MaxMoves: 300, Iterations: 5} }

// Resize upsizes drivers on violating paths one drive step at a time,
// re-timing between batches and reverting a batch that made WNS worse
// (upsizing raises input cap, which can backfire on the upstream stage —
// the classic sizing ping-pong).
func Resize(ctx *Context, opts ResizeOptions) (Report, error) {
	rep := Report{Pass: "resize"}
	rep.WNSBefore = ctx.A.WorstSlack(sta.Setup)
	rep.TNSBefore = ctx.A.TNS(sta.Setup)
	for iter := 0; iter < opts.Iterations && rep.Changed < opts.MaxMoves; iter++ {
		prevWNS := ctx.A.WorstSlack(sta.Setup)
		prevTNS := ctx.A.TNS(sta.Setup)
		cands := negativeSlackCells(ctx)
		if len(cands) == 0 {
			break
		}
		type move struct {
			c        *netlist.Cell
			from, to string
		}
		var batch []move
		for _, c := range cands {
			if rep.Changed+len(batch) >= opts.MaxMoves || len(batch) >= 40 {
				break
			}
			m := ctx.Lib.Cell(c.TypeName)
			drives := ctx.Lib.Drives(m.Function)
			next := -1.0
			for _, d := range drives {
				if d > m.Drive {
					next = d
					break
				}
			}
			if next < 0 {
				continue
			}
			variant := ctx.Lib.Variant(m, next, m.Vt)
			if variant == nil {
				continue
			}
			batch = append(batch, move{c, c.TypeName, variant.Name})
		}
		if len(batch) == 0 {
			break
		}
		for _, mv := range batch {
			from := ctx.Lib.Cell(mv.from)
			to := ctx.Lib.Cell(mv.to)
			rep.AreaDelta += to.Area - from.Area
			rep.LeakageDelta += to.Leakage - from.Leakage
			mv.c.SetType(mv.to)
			ctx.A.InvalidateCell(mv.c)
		}
		if err := ctx.A.Update(); err != nil {
			return rep, err
		}
		if ctx.A.WorstSlack(sta.Setup) < prevWNS-1e-9 && ctx.A.TNS(sta.Setup) < prevTNS {
			// Batch hurt: revert and stop.
			for _, mv := range batch {
				from := ctx.Lib.Cell(mv.from)
				to := ctx.Lib.Cell(mv.to)
				rep.AreaDelta -= to.Area - from.Area
				rep.LeakageDelta -= to.Leakage - from.Leakage
				mv.c.SetType(mv.from)
				ctx.A.InvalidateCell(mv.c)
			}
			if err := ctx.A.Update(); err != nil {
				return rep, err
			}
			break
		}
		rep.Changed += len(batch)
	}
	rep.WNSAfter = ctx.A.WorstSlack(sta.Setup)
	rep.TNSAfter = ctx.A.TNS(sta.Setup)
	return rep, nil
}

// AreaRecovery downsizes cells with comfortable slack (run after closure,
// paired with LeakageRecovery). Moves are applied in verified batches that
// revert when timing or DRC degrades — downsizing a loaded driver can cost
// far more than any per-cell slack heuristic predicts.
func AreaRecovery(ctx *Context, slackFloor float64, maxMoves int) (Report, error) {
	rep := Report{Pass: "area_recover"}
	tried := map[*netlist.Cell]bool{}
	var cands []slackCell // one list per pass, refilled per batch
	pick := func(limit int) []recoveryMove {
		if rep.Changed >= maxMoves {
			return nil
		}
		cands = cands[:0]
		for _, c := range ctx.A.D.Cells {
			m := ctx.Lib.Cell(c.TypeName)
			if tried[c] || m.IsSequential() {
				continue
			}
			if s := ctx.A.CellSetupSlack(c); !math.IsInf(s, 0) && s > slackFloor {
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
			drives := ctx.Lib.Drives(m.Function)
			prev := -1.0
			for _, d := range drives {
				if d < m.Drive {
					prev = d
				}
			}
			if prev < 0 {
				continue
			}
			variant := ctx.Lib.Variant(m, prev, m.Vt)
			if variant == nil {
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
