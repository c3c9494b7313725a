package sta

import (
	"fmt"
	"math"
	"sort"

	"newgame/internal/liberty"
	"newgame/internal/netlist"
	"newgame/internal/units"
)

// CheckKind identifies the constraint a slack refers to.
type CheckKind int

const (
	Setup CheckKind = iota
	Hold
)

func (k CheckKind) String() string {
	if k == Setup {
		return "setup"
	}
	return "hold"
}

// side is the arrival plane the check's data path is timed on: late for
// setup, early for hold.
func (k CheckKind) side() int {
	if k == Hold {
		return early
	}
	return late
}

// EndpointSlack is a timing check result at one endpoint.
type EndpointSlack struct {
	Kind CheckKind
	// Pin is the endpoint: a flip-flop D pin, or nil for a port endpoint.
	Pin *netlist.Pin
	// Port is the endpoint port for output checks (nil for FF endpoints).
	Port *netlist.Port
	// RF is the data transition at the endpoint (rise/fall index).
	RF int
	// Slack in ps (negative = violation).
	Slack units.Ps
	// Arrival is the endpoint data arrival used in the check.
	Arrival units.Ps
	// Required is the data required time.
	Required units.Ps
	// CRPR is the reconvergence pessimism credit applied.
	CRPR units.Ps

	// site indexes the analyzer's check-site table: the endpoint's identity
	// for per-endpoint dedupe, with no name to build.
	site int32
}

// Name returns a printable endpoint name.
func (e EndpointSlack) Name() string {
	if e.Pin != nil {
		return e.Pin.FullName()
	}
	return "port:" + e.Port.Name
}

// CheckSummary is the report header of one check kind, derived from the
// resident endpoint list at every re-time.
type CheckSummary struct {
	// Worst is the worst endpoint slack, unclamped; +Inf with no endpoints.
	Worst units.Ps
	// TNS sums the negative slacks, each endpoint's worst transition once,
	// in worst-first order (summing in map order gave a run-to-run ULP
	// wobble that broke bit-exact determinism).
	TNS units.Ps
	// Violations counts checks with negative slack, Endpoints all checks
	// evaluated; an endpoint contributes one check per valid transition.
	Violations, Endpoints int
}

// Check sites. A site is one place a setup/hold pair is evaluated: a
// flip-flop's data pin against its clock pin, an ICG's enable against its
// clock (paper §1.2: clock gating adds closure burden), or a constrained
// output port against its external requirement.
type siteClass uint8

const (
	siteNone siteClass = iota
	siteFF
	siteGate
	sitePort
)

// checkSite is one row of the frozen site table: vertex indices resolved
// once, so a sweep needs no map, pin-name scan or master filter.
type checkSite struct {
	data, clock int32 // vertices; clock is -1 at a port site
	cell        int32 // index into cells/masters; -1 at a port site
	class       siteClass
}

// checkBinding is what a master contributes to the site table.
type checkBinding struct {
	class       siteClass
	data, clock string
}

func bindingOf(m *liberty.Cell) checkBinding {
	switch {
	case m.FF != nil:
		return checkBinding{siteFF, m.FF.Data, m.FF.Clock}
	case m.Gate != nil:
		return checkBinding{siteGate, m.Gate.Enable, m.Gate.Clock}
	}
	return checkBinding{}
}

// residentChecks is one kind's endpoint list (worst first) and summary.
// Only Run and Update write it; everything else reads.
type residentChecks struct {
	list []EndpointSlack
	sum  CheckSummary
}

// buildSites freezes the check-site table in emission order: flip-flops in
// cell order, then ICG enables in cell order, then constrained output ports
// in port order. Every full Run rebuilds it, once the masters are re-resolved
// and the graph is current: a retype Update can absorb keeps its cell's
// binding (sameArcShape), anything else — and a constraint added since —
// waits for the next Run, as it always has for the graph itself.
func (a *Analyzer) buildSites() {
	a.sites = a.sites[:0]
	for _, class := range [...]siteClass{siteFF, siteGate} {
		for ci, c := range a.cells {
			b := bindingOf(a.masters[ci])
			if b.class != class {
				continue
			}
			d, ck := c.Pin(b.data), c.Pin(b.clock)
			if d == nil || ck == nil || d.Net == nil || ck.Net == nil {
				continue
			}
			a.sites = append(a.sites, checkSite{
				data: int32(a.pinVertex(d)), clock: int32(a.pinVertex(ck)), cell: int32(ci), class: class,
			})
		}
	}
	if a.Cons != nil {
		for _, p := range a.D.Ports {
			if io, ok := a.Cons.OutputDelay[p]; ok && io.Clock != nil && p.Dir == netlist.Output {
				a.sites = append(a.sites, checkSite{data: int32(a.portVertex(p)), clock: -1, cell: -1, class: sitePort})
			}
		}
	}
	if cap(a.siteSeen) < len(a.sites) {
		a.siteSeen = make([]bool, len(a.sites))
	}
	a.siteSeen = a.siteSeen[:len(a.sites)]
}

// leadEdge returns the valid leading clock transition at a CK vertex (rise
// preferred), or -1 if the clock never arrives.
func (a *Analyzer) leadEdge(i int, el int) int {
	if *a.fValid.at(ix4(i, rise, el)) {
		return rise
	}
	if *a.fValid.at(ix4(i, fall, el)) {
		return fall
	}
	return -1
}

// refreshChecks re-evaluates every setup and hold check from the current
// arrivals into the analyzer-owned lists, worst first, with their summaries.
// It runs at the one place arrivals change — Run and Update, the exclusive
// writer — so every reader between two re-times sees the same numbers for
// free. seedMoved collects the data vertices whose required-time seed the
// sweep changed.
func (a *Analyzer) refreshChecks() {
	for k := range a.checks {
		a.checks[k].list = a.checks[k].list[:0]
	}
	a.seedMoved = a.seedMoved[:0]
	if a.Cons != nil {
		a.sweepSites()
	}
	for k := range a.checks {
		a.checks[k].summarize(a.siteSeen)
	}
}

// sweepSites is refreshChecks' one pass over the site table: both kinds of
// every site appended in table order, and each site's seed re-derived from
// its setup checks.
func (a *Analyzer) sweepSites() {
	setup, hold := a.checks[Setup].list, a.checks[Hold].list
	n := a.Cfg.Derate.NSigma()
	clk := a.Cons.DefaultClock()
	holdUnc := 0.0
	if clk != nil {
		holdUnc = clk.HoldUncertainty
	}
	for si := range a.sites {
		s := a.sites[si]
		di, ci := int(s.data), int(s.clock)
		var seed seedRec
		if s.class == sitePort {
			p := a.portAt(di)
			io := a.Cons.OutputDelay[p]
			// A constraint dropped since the table was built checks
			// nothing and loses its seed.
			for rf := 0; rf < 2 && io.Clock != nil; rf++ {
				if k := ix4(di, rf, late); *a.fValid.at(k) {
					arr := a.fArr.at(k).corner(true, n)
					req := io.Clock.Period - io.Max - io.Clock.SetupUncertainty
					slack := req - arr
					setup = append(setup, EndpointSlack{
						Kind: Setup, Port: p, RF: rf,
						Slack: slack, Arrival: arr, Required: req, site: int32(si),
					})
					seed.set(rf, a.fArr.at(k).T+slack)
				}
				if k := ix4(di, rf, early); *a.fValid.at(k) {
					arr := a.fArr.at(k).corner(false, n)
					hold = append(hold, EndpointSlack{
						Kind: Hold, Port: p, RF: rf,
						Slack: arr - io.Min, Arrival: arr, Required: io.Min, site: int32(si),
					})
				}
			}
			a.reseed(di, seed)
			continue
		}
		// A flip-flop constrains each data transition with its own table
		// and honours multicycle exceptions; an ICG enable has one table
		// per check and is always single-cycle.
		m := a.masters[s.cell]
		var suTab, hoTab [2]*liberty.Table2D
		cycles := 1.0
		if s.class == siteFF {
			suTab = [2]*liberty.Table2D{m.FF.SetupRise, m.FF.SetupFall}
			hoTab = [2]*liberty.Table2D{m.FF.HoldRise, m.FF.HoldFall}
			if mc, ok := a.Cons.MulticycleSetup[a.cells[s.cell]]; ok && mc > 1 {
				cycles = float64(mc)
			}
		} else {
			suTab = [2]*liberty.Table2D{m.Gate.SetupRise, m.Gate.SetupRise}
			hoTab = [2]*liberty.Table2D{m.Gate.HoldRise, m.Gate.HoldRise}
		}
		pin := a.pinAt(di)
		ce, cl := a.leadEdge(ci, early), a.leadEdge(ci, late)
		for rf := 0; rf < 2; rf++ {
			if kd := ix4(di, rf, late); *a.fValid.at(kd) && ce >= 0 && clk != nil {
				kc := ix4(ci, ce, early)
				crpr := a.crprCredit(di, rf, late, ci, ce)
				arrD := a.fArr.at(kd).corner(true, n)
				ckArr := a.fArr.at(kc).corner(false, n)
				su := suTab[rf].Lookup(*a.fSlew.at(kd), *a.fSlew.at(kc))
				req := cycles*clk.Period + ckArr - su - clk.SetupUncertainty + crpr
				slack := req - arrD
				setup = append(setup, EndpointSlack{
					Kind: Setup, Pin: pin, RF: rf,
					Slack: slack, Arrival: arrD, Required: req, CRPR: crpr, site: int32(si),
				})
				seed.set(rf, a.fArr.at(kd).T+slack)
			}
			if kd := ix4(di, rf, early); *a.fValid.at(kd) && cl >= 0 {
				kc := ix4(ci, cl, late)
				crpr := a.crprCredit(di, rf, early, ci, cl)
				arrD := a.fArr.at(kd).corner(false, n)
				ckArr := a.fArr.at(kc).corner(true, n)
				h := hoTab[rf].Lookup(*a.fSlew.at(kd), *a.fSlew.at(kc))
				req := ckArr + h + holdUnc - crpr
				hold = append(hold, EndpointSlack{
					Kind: Hold, Pin: pin, RF: rf,
					Slack: arrD - req, Arrival: arrD, Required: req, CRPR: crpr, site: int32(si),
				})
			}
		}
		a.reseed(di, seed)
	}
	a.checks[Setup].list, a.checks[Hold].list = setup, hold
}

// summarize sorts the freshly filled list worst-first and derives the
// summary from it. seen is the writer's per-site scratch.
func (c *residentChecks) summarize(seen []bool) {
	l := c.list
	sort.Slice(l, func(i, j int) bool { return l[i].Slack < l[j].Slack })
	c.sum = CheckSummary{Worst: math.Inf(1), Endpoints: len(l)}
	if len(l) > 0 {
		c.sum.Worst = l[0].Slack
	}
	clear(seen)
	for _, e := range l {
		if e.Slack < 0 {
			c.sum.Violations++
		}
		if seen[e.site] {
			continue
		}
		seen[e.site] = true
		if e.Slack < 0 {
			c.sum.TNS += e.Slack
		}
	}
}

// seedRec is one site's required-time seed per data transition: the
// mean-based required (slack + mean arrival) that keeps pin slack consistent
// with the endpoint's sigma-adjusted slack.
type seedRec struct {
	val   [2]float64
	valid [2]bool
}

func (r *seedRec) set(rf int, v float64) { r.val[rf], r.valid[rf] = v, true }

// reseed records vertex i's re-derived seed, noting the vertex in seedMoved
// when it differs from the recorded one — the backward cone an incremental
// Update must redo.
func (a *Analyzer) reseed(i int, r seedRec) {
	k := ix2(i, rise)
	valid, req := a.seedValid.span(k, k+2), a.seedReq.span(k, k+2)
	if [2]bool(valid) == r.valid && [2]float64(req) == r.val {
		return
	}
	copy(valid, r.valid[:])
	copy(req, r.val[:])
	a.seedMoved = append(a.seedMoved, int32(i))
}

// resident returns kind's endpoint list, worst first, for read-only use;
// nil until a Run has completed.
func (a *Analyzer) resident(kind CheckKind) []EndpointSlack {
	if !a.ran {
		return nil
	}
	return a.checks[kind].list
}

// EndpointSlacks returns all setup or hold endpoint slacks, worst first: a
// private copy of the list the last Run/Update left, so callers may keep or
// reorder it. Readers share the analyzer under the same contract as every
// other query — concurrently with each other, never with a re-time.
func (a *Analyzer) EndpointSlacks(kind CheckKind) []EndpointSlack {
	src := a.resident(kind)
	if len(src) == 0 {
		return nil
	}
	out := make([]EndpointSlack, len(src))
	copy(out, src)
	return out
}

// EachEndpoint calls yield with kind's endpoint slacks, worst first, until it
// returns false: EndpointSlacks for a reader that wants a prefix of the list
// and keeps none of it, without the copy.
func (a *Analyzer) EachEndpoint(kind CheckKind, yield func(EndpointSlack) bool) {
	for _, e := range a.resident(kind) {
		if !yield(e) {
			return
		}
	}
}

// Summary returns kind's worst slack, TNS and counts as of the last
// Run/Update.
func (a *Analyzer) Summary(kind CheckKind) CheckSummary {
	if !a.ran {
		return CheckSummary{Worst: math.Inf(1)}
	}
	return a.checks[kind].sum
}

// backtraceChain returns the worst-path vertex chain ending at (i, rf, el),
// root-first, appended into buf's storage.
func (a *Analyzer) backtraceChain(buf []int, i, rf, el int) []int {
	rev := buf[:0]
	for i >= 0 {
		rev = append(rev, i)
		k := ix4(i, rf, el)
		if !*a.fValid.at(k) {
			break
		}
		i, rf = a.fPred.at(k).source()
	}
	// Reverse to root-first.
	for l, r := 0, len(rev)-1; l < r; l, r = l+1, r-1 {
		rev[l], rev[r] = rev[r], rev[l]
	}
	return rev
}

// crprCredit computes the clock-reconvergence pessimism credit of one check:
// the late−early arrival difference at the deepest clock-network vertex
// shared by the launch path (inside the data backtrace from the D pin on
// side el — late for setup, early for hold) and the capture clock path
// (backtrace from the CK pin's edge ce on the opposite side). It reuses the
// writer's backtrace buffers, so only Run/Update may call it.
func (a *Analyzer) crprCredit(di, rf, el, ci, ce int) units.Ps {
	a.btLaunch = a.backtraceChain(a.btLaunch, di, rf, el)
	a.btCapture = a.backtraceChain(a.btCapture, ci, ce, 1-el)
	launch, capture := a.btLaunch, a.btCapture
	// Find the deepest common prefix vertex that is on the clock network.
	nc := len(capture)
	if len(launch) < nc {
		nc = len(launch)
	}
	common := -1
	for k := 0; k < nc; k++ {
		if launch[k] != capture[k] {
			break
		}
		if a.topo.clockPath[launch[k]] {
			common = launch[k]
		}
	}
	if common < 0 {
		return 0
	}
	le := a.leadEdge(common, late)
	ee := a.leadEdge(common, early)
	if le < 0 || ee < 0 {
		return 0
	}
	credit := a.fArr.at(ix4(common, le, late)).T - a.fArr.at(ix4(common, ee, early)).T
	if credit < 0 {
		return 0
	}
	return credit
}

// WNS returns the worst negative slack for a check (0 if all positive, or
// +Inf if there are no endpoints).
func (a *Analyzer) WNS(kind CheckKind) units.Ps {
	w := a.WorstSlack(kind)
	if w > 0 {
		return 0
	}
	return w
}

// WorstSlack returns the single worst endpoint slack (or +Inf when there
// are no endpoints), without clamping at zero.
func (a *Analyzer) WorstSlack(kind CheckKind) units.Ps { return a.Summary(kind).Worst }

// TNS returns the total negative slack (sum over violating endpoints,
// counting each endpoint's worst transition once).
func (a *Analyzer) TNS(kind CheckKind) units.Ps { return a.Summary(kind).TNS }

// DRCViolation is a max-transition or max-capacitance breach.
type DRCViolation struct {
	Kind string // "max_tran" or "max_cap"
	Pin  *netlist.Pin
	// Value and Limit in the check's unit (ps or fF).
	Value, Limit float64
}

// DRCViolations reports max-transition (at cell inputs) and max-cap (at
// driver outputs) violations — the "several hundred manual noise and DRC
// fixes" of the paper's introduction are this list plus noise.
func (a *Analyzer) DRCViolations() []DRCViolation {
	var out []DRCViolation
	if !a.ran {
		return out
	}
	for ci, c := range a.cells {
		m := a.masters[ci]
		for k, p := range c.Pins {
			i := int(a.cellBase[ci]) + k
			if p.Dir == netlist.Input {
				kr := ix4(i, rise, late)
				kf := ix4(i, fall, late)
				sl := math.Max(*a.fSlew.at(kr), *a.fSlew.at(kf))
				if m.MaxTran > 0 && sl > m.MaxTran && (*a.fValid.at(kr) || *a.fValid.at(kf)) {
					out = append(out, DRCViolation{Kind: "max_tran", Pin: p, Value: sl, Limit: m.MaxTran})
				}
			} else if nd := a.netDataOf(p.Net); nd != nil {
				spec := m.Pin(p.Name)
				if spec == nil || spec.MaxCap <= 0 {
					continue
				}
				load := nd.totalCap[late]
				if load > spec.MaxCap {
					out = append(out, DRCViolation{Kind: "max_cap", Pin: p, Value: load, Limit: spec.MaxCap})
				}
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		ri := out[i].Value / out[i].Limit
		rj := out[j].Value / out[j].Limit
		return ri > rj
	})
	return out
}

// PinArrival returns the (mean) arrival at a pin for the given transition
// and side, and whether it is valid.
func (a *Analyzer) PinArrival(p *netlist.Pin, rf, el int) (units.Ps, bool) {
	i := a.pinVertex(p)
	if i < 0 {
		return 0, false
	}
	k := ix4(i, rf, el)
	return a.fArr.at(k).T, *a.fValid.at(k)
}

// PinSlew returns the pin slew for the transition/side.
func (a *Analyzer) PinSlew(p *netlist.Pin, rf, el int) (units.Ps, bool) {
	i := a.pinVertex(p)
	if i < 0 {
		return 0, false
	}
	k := ix4(i, rf, el)
	return *a.fSlew.at(k), *a.fValid.at(k)
}

// PinSetupSlack returns the worst setup (late) slack at a pin from the
// required-time propagation, or +Inf if unconstrained.
func (a *Analyzer) PinSetupSlack(p *netlist.Pin) units.Ps {
	i := a.pinVertex(p)
	if i < 0 {
		return math.Inf(1)
	}
	return a.vertexSetupSlack(i)
}

func (a *Analyzer) vertexSetupSlack(i int) units.Ps {
	s := math.Inf(1)
	for rf := 0; rf < 2; rf++ {
		k := ix4(i, rf, late)
		if *a.fValid.at(k) && *a.rValid.at(k) {
			if sl := *a.fReq.at(k) - a.fArr.at(k).T; sl < s {
				s = sl
			}
		}
	}
	return s
}

// CellSetupSlack returns the worst setup slack across a cell's pins.
func (a *Analyzer) CellSetupSlack(c *netlist.Cell) units.Ps {
	s := math.Inf(1)
	for _, p := range c.Pins {
		if sl := a.PinSetupSlack(p); sl < s {
			s = sl
		}
	}
	return s
}

// NetLoad returns the late total load (fF) on a net.
func (a *Analyzer) NetLoad(n *netlist.Net) units.FF {
	if nd := a.netDataOf(n); nd != nil {
		return nd.totalCap[late]
	}
	return 0
}

// String summarizes analysis results.
func (a *Analyzer) String() string {
	return fmt.Sprintf("sta{cells=%d setupWNS=%.1f holdWNS=%.1f}",
		len(a.D.Cells), a.WNS(Setup), a.WNS(Hold))
}

// PortArrival returns the (mean) arrival at a design port.
func (a *Analyzer) PortArrival(p *netlist.Port, rf, el int) (units.Ps, bool) {
	i := a.portVertex(p)
	if i < 0 {
		return 0, false
	}
	k := ix4(i, rf, el)
	return a.fArr.at(k).T, *a.fValid.at(k)
}

// PortSlew returns a design port's slew.
func (a *Analyzer) PortSlew(p *netlist.Port, rf, el int) (units.Ps, bool) {
	i := a.portVertex(p)
	if i < 0 {
		return 0, false
	}
	k := ix4(i, rf, el)
	return *a.fSlew.at(k), *a.fValid.at(k)
}

// PortSetupSlack returns the worst setup slack of all paths launched from an
// input port (from the required-time propagation), or +Inf when the port
// reaches no constrained endpoint.
func (a *Analyzer) PortSetupSlack(p *netlist.Port) units.Ps {
	i := a.portVertex(p)
	if i < 0 {
		return math.Inf(1)
	}
	return a.vertexSetupSlack(i)
}
