package timingd

import (
	"context"
	"fmt"
	"sync"

	"newgame/internal/core"
	"newgame/internal/sta"
	"newgame/internal/triage"
)

// session is the server's one timed state: the scenario set (core.Views)
// over the server's own design and parasitics table.
//
// mu orders readers against the writer: queries hold RLock while rendering,
// and the writer holds Lock while it edits and re-times. Between writer
// steps the session is exactly the published epoch — a what-if's edits are
// rolled back, and a commit's epoch bump, under the same hold of Lock.
type session struct {
	mu    sync.RWMutex
	views *core.Views

	// triage and walkers are what renders borrow under RLock and keep warm
	// for the next: the relation graph's key table and merge scratch, and
	// each scenario's path walker. A render that finds one busy works on a
	// fresh one instead of waiting (triage.Graph does so itself; walk).
	triage  *triage.Graph
	walkers []lentWalker
}

// lentWalker is one scenario's resident path walker and the lock that lends
// it.
type lentWalker struct {
	mu sync.Mutex
	w  *sta.PathWalker
}

// newSession builds the scenario set over trees and the design the session
// will edit in place: a clone of Config.Design, which the server never
// edits, or a restored snapshot's own, which the server has taken over.
func newSession(cfg *Config, trees *sta.Parasitics) (*session, error) {
	d := cfg.Design
	if cfg.Restore == nil {
		d = d.Clone()
	}
	ck := d.Port(cfg.ClockPort)
	if ck == nil {
		return nil, fmt.Errorf("timingd: design has no clock port %q", cfg.ClockPort)
	}
	s := &session{views: &core.Views{
		D: d, ClockPort: ck, BasePeriod: cfg.BasePeriod, InputArrival: cfg.InputArrival,
		Scenarios: cfg.Recipe.Scenarios, Parasitics: trees,
		Workers: cfg.Workers, Obs: cfg.Obs,
	}}
	if err := s.views.Build(context.Background()); err != nil {
		return nil, err
	}
	// A scenario that checks nothing has +Inf for a worst slack, which no
	// report can carry: refuse the design here, not on the first /slack.
	for i, a := range s.views.Analyzers() {
		if a.Summary(sta.Setup).Endpoints+a.Summary(sta.Hold).Endpoints == 0 {
			return nil, fmt.Errorf("timingd: design has no timing endpoints in scenario %q", cfg.Recipe.Scenarios[i].Name)
		}
	}
	s.triage = triage.NewGraph(cfg.Obs)
	s.walkers = make([]lentWalker, len(s.views.Analyzers()))
	for i, a := range s.views.Analyzers() {
		s.walkers[i].w = a.Walker()
	}
	return s, nil
}

// walk lends scenario i's resident walker to fn, or a fresh one when another
// render holds it: what a walk returns is valid only until its walker's
// next, so two renders never share one, and neither waits for the other.
func (s *session) walk(i int, fn func(w *sta.PathWalker)) {
	l := &s.walkers[i]
	if !l.mu.TryLock() {
		fn(l.w.Analyzer().Walker())
		return
	}
	defer l.mu.Unlock()
	fn(l.w)
}

// slacks reports the merged per-scenario timing summary: field reads off
// the summaries each analyzer's last re-time left, so a what-if's before and
// after, a commit's, and a cold /slack cost the same nothing.
func (s *session) slacks() []ScenarioSlack {
	out := make([]ScenarioSlack, len(s.views.Scenarios))
	for i, a := range s.views.Analyzers() {
		setup, hold := a.Summary(sta.Setup), a.Summary(sta.Hold)
		out[i] = ScenarioSlack{
			Scenario: s.views.Scenarios[i].Name,
			SetupWNS: setup.Worst, SetupTNS: setup.TNS, SetupViolations: setup.Violations,
			HoldWNS: hold.Worst, HoldTNS: hold.TNS, HoldViolations: hold.Violations,
		}
	}
	return out
}

// endpoints renders the k worst endpoint checks of one kind in one
// scenario.
func endpoints(a *sta.Analyzer, kind sta.CheckKind, limit int) []EndpointReport {
	n := a.Summary(kind).Endpoints
	if limit > 0 && n > limit {
		n = limit
	}
	out := make([]EndpointReport, 0, n)
	a.EachEndpoint(kind, func(e sta.EndpointSlack) bool {
		if len(out) == n {
			return false
		}
		out = append(out, EndpointReport{
			Endpoint: e.Name(), Kind: kind.String(),
			Slack: e.Slack, Arrival: e.Arrival, Required: e.Required, CRPR: e.CRPR,
		})
		return true
	})
	return out
}

// pathsReport renders scenario i's k worst paths of one kind re-timed
// path-based, with the CRPR credit each endpoint check carried, on the
// scenario's lent walker.
func (s *session) pathsReport(epoch int64, i int, kind sta.CheckKind, k int) PathsReport {
	rep := PathsReport{Epoch: epoch, Scenario: s.views.Scenarios[i].Name}
	s.walk(i, func(w *sta.PathWalker) {
		a := w.Analyzer()
		ps := w.WorstPaths(kind, k)
		rep.Paths = make([]PathReport, len(ps))
		for j, p := range ps {
			r := a.PBA(p)
			rep.Paths[j] = PathReport{
				Endpoint:  p.Endpoint.Name(),
				Depth:     p.Depth(),
				GBASlack:  p.GBASlack,
				PBASlack:  r.Slack,
				Pessimism: r.Pessimism,
				CRPR:      p.Endpoint.CRPR,
				Route:     p.String(),
			}
		}
	})
	return rep
}
