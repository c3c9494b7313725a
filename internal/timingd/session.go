package timingd

import (
	"context"
	"fmt"
	"sync"

	"newgame/internal/core"
	"newgame/internal/netlist"
	"newgame/internal/sta"
)

// session is one epoch snapshot: the timed scenario set (core.Views) over a
// private clone of the design and the server's parasitics table. The
// server keeps exactly two — the current snapshot readers resolve through
// an atomic pointer, and the shadow the writer edits — and flips their
// roles on every commit. Because both are clones of one netlist timed over
// one name-keyed table (sta.NewKeyedNetBinder), they stay bit-identical no
// matter how different their edit/re-time histories are.
//
// mu orders readers against the post-swap replay: queries hold RLock while
// rendering, the writer holds Lock while editing. A reader that loaded the
// pointer just before a swap and acquired RLock just after the replay sees
// a fully consistent newer snapshot — tagged with the newer epoch it
// actually read.
type session struct {
	mu    sync.RWMutex
	epoch int64
	views *core.Views
}

// analysisWorkers is each analyzer's level-parallelism: a session's scenarios
// already run concurrently (Config.Workers), so more would oversubscribe.
const analysisWorkers = 1

// newSession clones the design and builds its scenario set over trees. topo
// seeds the build: the frozen graph of another session over a Clone of the
// same design (the server passes the front session's to the back) or of a
// restored snapshot.
func newSession(cfg *Config, src *netlist.Design, trees *sta.Parasitics, topo *sta.Topology) (*session, error) {
	d := src.Clone()
	ck := d.Port(cfg.ClockPort)
	if ck == nil {
		return nil, fmt.Errorf("timingd: design has no clock port %q", cfg.ClockPort)
	}
	s := &session{views: &core.Views{
		D: d, ClockPort: ck, BasePeriod: cfg.BasePeriod, InputArrival: cfg.InputArrival,
		Scenarios: cfg.Recipe.Scenarios, Parasitics: trees,
		Workers: cfg.Workers, AnalysisWorkers: analysisWorkers, Obs: cfg.Obs,
	}}
	if err := s.views.Build(context.Background(), topo); err != nil {
		return nil, err
	}
	// A scenario that checks nothing has +Inf for a worst slack, which no
	// report can carry: refuse the design here, not on the first /slack.
	for i, a := range s.views.Analyzers() {
		if a.Summary(sta.Setup).Endpoints+a.Summary(sta.Hold).Endpoints == 0 {
			return nil, fmt.Errorf("timingd: design has no timing endpoints in scenario %q", cfg.Recipe.Scenarios[i].Name)
		}
	}
	return s, nil
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

// paths renders the k worst setup paths re-timed path-based, with the CRPR
// credit each endpoint check carried.
func paths(a *sta.Analyzer, kind sta.CheckKind, k int) []PathReport {
	ps := a.WorstPaths(kind, k)
	out := make([]PathReport, len(ps))
	for i, p := range ps {
		r := a.PBA(p)
		out[i] = PathReport{
			Endpoint:  p.Endpoint.Name(),
			Depth:     p.Depth(),
			GBASlack:  p.GBASlack,
			PBASlack:  r.Slack,
			Pessimism: r.Pessimism,
			CRPR:      p.Endpoint.CRPR,
			Route:     p.String(),
		}
	}
	return out
}
