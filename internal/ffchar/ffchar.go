// Package ffchar characterizes flip-flop timing at transistor level on the
// mini-SPICE substrate, reproducing the interdependency study of paper §3.4
// / Figure 10: clock-to-q delay versus setup time, c2q versus hold time,
// and the setup-versus-hold feasibility contour of a 65nm master–slave DFF.
// It also implements the margin-recovery optimization of the paper's
// reference [23]: exploiting the setup/hold/c2q trade-off at timing path
// boundaries to recover "free" slack that the fixed 10%-pushout
// characterization discards.
package ffchar

import (
	"fmt"
	"math"
	"sync"

	"newgame/internal/spice"
	"newgame/internal/units"
	"newgame/internal/workpool"
)

// Config drives the characterization bench.
type Config struct {
	Tech spice.Tech
	// Slew is the data and clock transition time, ps.
	Slew units.Ps
	// Step is the transient step, ps.
	Step units.Ps
	// SettleTime before the measured edge, ps.
	SettleTime units.Ps
	// Pushout is the c2q degradation fraction defining the constraint
	// (0.10 = the conventional 10% pushout criterion).
	Pushout float64
	// Workers bounds the pool that evaluates sweep points and search
	// probes (0 = one per CPU, 1 = serial). Probe positions and sweep
	// points are fixed before evaluation, so results never depend on the
	// worker count.
	Workers int

	// memo caches capture trials across searches and sweeps; shared by all
	// copies of a Default65 Config. Keys carry every bench parameter, so
	// copies with modified fields can never read a stale entry.
	memo *captureMemo
}

// Default65 characterizes the paper's 65nm-class flip-flop.
func Default65() Config {
	return Config{Tech: spice.Tech65, Slew: 40, Step: 0.5, SettleTime: 400, Pushout: 0.10,
		memo: &captureMemo{m: map[captureKey]captureVal{}}}
}

// captureKey identifies one capture trial: the full bench configuration
// plus the trial's setup/hold offsets. Setup, hold and c2q searches probe
// overlapping trial points (every search starts from the same reference
// corner), so memoizing on this key simulates each point once.
type captureKey struct {
	tech               string
	slew, step, settle float64
	setup, hold        float64
}

type captureVal struct {
	c2q float64
	err error
}

type captureMemo struct {
	mu sync.Mutex
	m  map[captureKey]captureVal
}

// bench builds the DFF testbench: clock rises at tEdge; D follows the
// given waveform; Q observed.
func (c Config) bench(dWave, ckWave spice.Waveform) *spice.Builder {
	b := spice.NewBuilder(c.Tech)
	b.C.V("d", spice.Ground, dWave)
	b.C.V("ck", spice.Ground, ckWave)
	b.DFF("d", "ck", "q", spice.CellOpts{})
	// A small output load.
	b.C.C("q", spice.Ground, 4*c.Tech.CgPerW)
	return b
}

// captureRise runs one trial: D rises setup ps before the clock edge and
// falls hold ps after it (a data pulse); returns the c2q delay if Q
// captured high, or NaN if capture failed. Trials are memoized on the full
// bench configuration (see captureKey); concurrent duplicate computation
// is harmless since equal keys give equal results.
func (c Config) captureRise(setup, hold units.Ps) (units.Ps, error) {
	if c.memo != nil {
		k := captureKey{tech: c.Tech.Name, slew: c.Slew, step: c.Step,
			settle: c.SettleTime, setup: setup, hold: hold}
		c.memo.mu.Lock()
		v, ok := c.memo.m[k]
		c.memo.mu.Unlock()
		if ok {
			return v.c2q, v.err
		}
		d, err := c.captureRiseUncached(setup, hold)
		c.memo.mu.Lock()
		c.memo.m[k] = captureVal{c2q: d, err: err}
		c.memo.mu.Unlock()
		return d, err
	}
	return c.captureRiseUncached(setup, hold)
}

func (c Config) captureRiseUncached(setup, hold units.Ps) (units.Ps, error) {
	vdd := c.Tech.VDD
	tEdge := c.SettleTime
	// Data pulse: low, rise at tEdge−setup, fall at tEdge+hold.
	d := spice.PWL{
		T: []float64{tEdge - setup, tEdge - setup + c.Slew, tEdge + hold, tEdge + hold + c.Slew},
		V: []float64{0, vdd, vdd, 0},
	}
	ck := spice.Ramp(0, vdd, tEdge, c.Slew)
	b := c.bench(d, ck)
	stop := tEdge + 600
	res, err := b.C.Transient(spice.TranOpts{Stop: stop, Step: c.Step})
	if err != nil {
		return math.NaN(), err
	}
	tCk := res.Cross("ck", vdd/2, true, tEdge-1)
	tQ := res.Cross("q", vdd/2, true, tEdge-1)
	if math.IsNaN(tQ) {
		return math.NaN(), nil
	}
	// Q must remain captured at the end (no runt pulse).
	if res.Final("q") < 0.8*vdd {
		return math.NaN(), nil
	}
	return tQ - tCk, nil
}

// Point is one characterized operating point.
type Point struct {
	Setup, Hold, C2Q units.Ps
}

// ReferenceC2Q measures the asymptotic c2q with generous setup and hold.
func (c Config) ReferenceC2Q() (units.Ps, error) {
	d, err := c.captureRise(300, 500)
	if err != nil {
		return 0, err
	}
	if math.IsNaN(d) {
		return 0, fmt.Errorf("ffchar: reference capture failed")
	}
	return d, nil
}

// sweep evaluates capture trials at the given (setup, hold) pairs on the
// worker pool and returns the successful points in input order (failed
// captures omitted, the lowest-index simulation error reported).
func (c Config) sweep(setups, holds []units.Ps) ([]Point, error) {
	n := len(setups)
	c2qs := make([]float64, n)
	errs := make([]error, n)
	workpool.Do(c.Workers, n, func(i int) {
		c2qs[i], errs[i] = c.captureRise(setups[i], holds[i])
	})
	var out []Point
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			return nil, errs[i]
		}
		if !math.IsNaN(c2qs[i]) {
			out = append(out, Point{Setup: setups[i], Hold: holds[i], C2Q: c2qs[i]})
		}
	}
	return out, nil
}

// C2QvsSetup sweeps setup time at generous hold, returning (setup, c2q)
// points — Figure 10's left panel. Points where capture fails are omitted.
func (c Config) C2QvsSetup(setups []units.Ps) ([]Point, error) {
	holds := make([]units.Ps, len(setups))
	for i := range holds {
		holds[i] = 500
	}
	return c.sweep(setups, holds)
}

// C2QvsHold sweeps hold time at generous setup — Figure 10's middle panel.
func (c Config) C2QvsHold(holds []units.Ps) ([]Point, error) {
	setups := make([]units.Ps, len(holds))
	for i := range setups {
		setups[i] = 300
	}
	return c.sweep(setups, holds)
}

// SetupTime finds the minimum setup (at generous hold) meeting the pushout
// criterion, by multi-section search (see searchDown).
func (c Config) SetupTime() (units.Ps, error) {
	ref, err := c.ReferenceC2Q()
	if err != nil {
		return 0, err
	}
	limit := ref * (1 + c.Pushout)
	ok := func(s float64) (bool, error) {
		d, err := c.captureRise(s, 500)
		if err != nil {
			return false, err
		}
		return !math.IsNaN(d) && d <= limit, nil
	}
	return c.searchDown(ok, -20, 300, 0.5)
}

// SetupVsHold traces the interdependency contour — Figure 10's right
// panel: for each hold time, the minimum setup at which the flip-flop still
// captures within the pushout limit. Shrinking hold forces larger setup.
func (c Config) SetupVsHold(holds []units.Ps) ([]Point, error) {
	ref, err := c.ReferenceC2Q()
	if err != nil {
		return nil, err
	}
	limit := ref * (1 + c.Pushout)
	// One search per hold value, fanned across the pool; each search runs
	// its probe rounds serially (inner Workers=1) to keep the pool flat.
	type holdRes struct {
		p    Point
		keep bool
		err  error
	}
	inner := c
	inner.Workers = 1
	rs := make([]holdRes, len(holds))
	workpool.Do(c.Workers, len(holds), func(i int) {
		h := holds[i]
		ok := func(s float64) (bool, error) {
			d, err := inner.captureRise(s, h)
			if err != nil {
				return false, err
			}
			return !math.IsNaN(d) && d <= limit, nil
		}
		s, err := inner.searchDown(ok, -20, 300, 0.5)
		if err != nil {
			return // this hold is infeasible at any setup
		}
		d, err := inner.captureRise(s, h)
		if err != nil {
			rs[i] = holdRes{err: err}
			return
		}
		rs[i] = holdRes{p: Point{Setup: s, Hold: h, C2Q: d}, keep: true}
	})
	var out []Point
	for _, r := range rs {
		if r.err != nil {
			return nil, r.err
		}
		if r.keep {
			out = append(out, r.p)
		}
	}
	return out, nil
}

// searchProbes is the number of interior points each searchDown round
// evaluates concurrently. The probe layout depends only on the bracketing
// interval — never on the worker count — so parallel and serial searches
// visit identical points and converge to identical answers.
const searchProbes = 3

// searchDown finds the smallest x in [lo, hi] with ok(x) true, assuming ok
// is monotone (false below a threshold, true above). It errs when even hi
// fails. Each round splits the bracket with searchProbes equispaced interior
// probes evaluated on the worker pool, shrinking the bracket by
// 1/(searchProbes+1) per round — a multi-section generalization of
// bisection that trades a few extra evaluations for parallel rounds.
func (c Config) searchDown(ok func(float64) (bool, error), lo, hi, tol float64) (float64, error) {
	good, err := ok(hi)
	if err != nil {
		return 0, err
	}
	if !good {
		return 0, fmt.Errorf("ffchar: infeasible even at %v", hi)
	}
	if good, err = ok(lo); err != nil {
		return 0, err
	} else if good {
		return lo, nil
	}
	var (
		xs   [searchProbes]float64
		oks  [searchProbes]bool
		errs [searchProbes]error
	)
	serial := workpool.Workers(c.Workers) == 1
	for hi-lo > tol {
		for k := 0; k < searchProbes; k++ {
			xs[k] = lo + (hi-lo)*float64(k+1)/(searchProbes+1)
			oks[k], errs[k] = false, nil
		}
		if serial {
			// The collapse below only consults probes up to the lowest
			// passing one, so a serial round stops there — on average fewer
			// evaluations than running all probes, approaching bisection
			// cost while keeping the identical probe layout.
			for k := 0; k < searchProbes; k++ {
				oks[k], errs[k] = ok(xs[k])
				if errs[k] != nil || oks[k] {
					break
				}
			}
		} else {
			workpool.Do(c.Workers, searchProbes, func(i int) {
				oks[i], errs[i] = ok(xs[i])
			})
		}
		// The bracket collapses around the lowest passing probe (ok is
		// monotone, so everything right of it passes too). Errors at probes
		// past that point are ignored — the serial path never evaluates
		// them, and both paths must agree exactly.
		next := -1
		for k := 0; k < searchProbes; k++ {
			if errs[k] != nil {
				return 0, errs[k]
			}
			if oks[k] {
				next = k
				break
			}
		}
		switch {
		case next == 0:
			hi = xs[0]
		case next > 0:
			lo, hi = xs[next-1], xs[next]
		default:
			lo = xs[searchProbes-1]
		}
	}
	return hi, nil
}
