package conformance

import (
	"fmt"
	"math/rand"
	"reflect"

	"newgame/internal/core"
	"newgame/internal/netlist"
	"newgame/internal/opt"
	"newgame/internal/sta"
	"newgame/internal/units"
)

// checkSurveyResident: a closure engine keeps its scenario analyzers from
// one survey to the next and re-times them in place. That is only an
// optimization if nobody can tell: after every kind of edit the closure loop
// makes between surveys — retyped cells, a non-default routing rule,
// useful-skew offsets, an inserted buffer — the long-lived engine's survey
// and each of its analyzers' full timing state must equal those of an engine
// built for that one survey. The law also insists the long-lived engine
// really did keep its analyzers through every one of them — only the initial
// survey may construct — so it cannot pass by rebuilding.
func checkSurveyResident(cx *Ctx) error {
	recipe := labRecipe()
	// Recipe libraries share master naming with the lab library the design
	// was mapped to, so the clone and the edit scripts carry over.
	d := cx.Design.Clone()
	rng := rand.New(rand.NewSource(mix(cx.Spec.Seed, 0x5e51de)))
	// Both engines share one parasitics table (so an NDR is an edit to the
	// parasitics they share) and survey the same netlist object.
	trees := sta.NewNetBinder(cx.Stack, cx.Spec.Seed)
	var skew map[*netlist.Cell]units.Ps
	engine := func() *core.Engine {
		e := &core.Engine{
			D: d, Recipe: recipe, BasePeriod: units.Ps(cx.Spec.Period),
			ClockPort: d.Port("clk"), Parasitics: trees, Workers: 1,
		}
		e.SetUsefulSkew(skew)
		return e
	}
	resident := engine()

	type step struct {
		name  string
		apply func() error
	}
	script := cx.script(d)
	steps := []step{{name: "initial survey", apply: func() error { return nil }}}
	for i, op := range script {
		op := op
		steps = append(steps, step{name: fmt.Sprintf("edit %d (%s -> %s)", i, op.Cell, op.To), apply: func() error {
			c := d.Cell(op.Cell)
			if c == nil {
				return fmt.Errorf("no cell %q in design", op.Cell)
			}
			c.SetType(op.To)
			return nil
		}})
	}
	insert := func(at int, s step) {
		at++ // after the initial survey
		steps = append(steps[:at], append([]step{s}, steps[at:]...)...)
	}
	routed := func(min int) *netlist.Net { return routedNet(rng, d, trees, min) }
	// Inserted back to front so the earlier positions stay put.
	insert(3*len(script)/4, step{name: "insert buffer", apply: func() error {
		n := routed(2)
		if n == nil {
			return fmt.Errorf("no multi-load net to buffer")
		}
		_, err := d.InsertBuffer(n, n.Loads[:1], "BUF_X1_SVT")
		return err
	}})
	insert(len(script)/2, step{name: "useful skew", apply: func() error {
		skew = map[*netlist.Cell]units.Ps{}
		for _, c := range d.Cells {
			if m := cx.Lib.Cell(c.TypeName); m != nil && m.IsSequential() && len(skew) < 3 {
				skew[c] = units.Ps(15 + 10*len(skew))
			}
		}
		if len(skew) == 0 {
			return fmt.Errorf("no flip-flop to skew")
		}
		resident.SetUsefulSkew(skew)
		return nil
	}})
	insert(len(script)/4, step{name: "ndr", apply: func() error {
		n := routed(1)
		if n == nil {
			return fmt.Errorf("no routed net for an NDR")
		}
		trees.SetNDR(n, opt.WideSpaced)
		return nil
	}})

	var before []*sta.Analyzer
	for _, s := range steps {
		if err := s.apply(); err != nil {
			return fmt.Errorf("%s: %v", s.name, err)
		}
		got, err := resident.Survey()
		if err != nil {
			return fmt.Errorf("%s: resident survey: %v", s.name, err)
		}
		fresh := engine()
		want, err := fresh.Survey()
		if err != nil {
			return fmt.Errorf("%s: fresh survey: %v", s.name, err)
		}
		if !reflect.DeepEqual(got, want) {
			return fmt.Errorf("%s: resident engine surveys\n  %+v\nfresh engine\n  %+v", s.name, got, want)
		}
		as := resident.Analyzers()
		for i, a := range as {
			if err := sameState(fmt.Sprintf("%s: scenario %s: resident analyzer", s.name, recipe.Scenarios[i].Name), a, fresh.Analyzers()[i]); err != nil {
				return err
			}
			if before != nil && before[i] != a {
				return fmt.Errorf("%s: scenario %s: the resident engine replaced its analyzer", s.name, recipe.Scenarios[i].Name)
			}
		}
		before = append(before[:0], as...)
	}
	return nil
}

// routedNet picks, in rng order, a cell-driven net with at least min loads
// that trees routes — a target for an NDR or a buffer insertion.
func routedNet(rng *rand.Rand, d *netlist.Design, trees *sta.Parasitics, min int) *netlist.Net {
	for _, i := range rng.Perm(len(d.Nets)) {
		if n := d.Nets[i]; n.Driver != nil && len(n.Loads) >= min && trees.Tree(n) != nil {
			return n
		}
	}
	return nil
}
