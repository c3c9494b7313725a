package conformance

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"strings"
	"sync"

	"newgame/internal/circuits"
	"newgame/internal/cluster"
	"newgame/internal/core"
	"newgame/internal/liberty"
	"newgame/internal/netlist"
	"newgame/internal/parasitics"
	"newgame/internal/timingd"
)

// clusterFixture is the four-scenario recipe and block the cluster law
// quantifies over, built once. Four scenarios (the two old-goal-posts views
// plus scan-mode variants at a doubled period) give every shard count in
// {1, 2, 4} at least one scenario per worker under round-robin sharding.
var clusterFixture = sync.OnceValues(func() (core.Recipe, *netlist.Design) {
	r := core.OldGoalPosts(liberty.Node16, parasitics.Stack16())
	scanSS := r.Scenarios[0]
	scanSS.Name = "scan_ss_cw"
	scanSS.PeriodScale = 2
	scanSS.ForHold = true
	scanSS.HoldUncertainty = 15
	scanFF := r.Scenarios[1]
	scanFF.Name = "scan_ff_cb"
	scanFF.PeriodScale = 2
	r.Scenarios = append(r.Scenarios, scanSS, scanFF)
	return r, circuits.Block(r.Scenarios[0].Lib, circuits.BlockSpec{
		Name: "clx", Inputs: 6, Outputs: 6, FFs: 12, Gates: 140,
		MaxDepth: 6, Seed: 29, ClockBufferLevels: 2,
		VtMix: [3]float64{0, 0.5, 0.5},
	})
})

// checkClusterMerge: sharding signoff scenarios across a timingd cluster
// is invisible to the caller — for every shard count, the coordinator's
// merged /slack carries byte-identical per-scenario reports (in canonical
// order) to one server holding all scenarios, merged WNS/TNS are exactly
// the min (clamped at 0) and sum over scenarios, per-scenario endpoint
// queries proxy to identical answers, and an epoch-barrier ECO through
// the coordinator lands every shard on the same post-commit state as the
// single node committing directly.
func checkClusterMerge(cx *Ctx) error {
	ctx := context.Background()
	rcp, d := clusterFixture()
	cfg := timingd.Config{
		Design: d, Recipe: rcp, Stack: parasitics.Stack16(),
		BasePeriod: 560, Seed: 13, QueryWorkers: 2,
	}
	endpoints := func(scenario string) string {
		return "/endpoints?scenario=" + scenario + "&kind=setup&limit=5"
	}

	// Single-node reference: every scenario in one session.
	ref, err := bootCluster(0, cfg)
	if err != nil {
		return fmt.Errorf("single-node boot: %v", err)
	}
	defer ref.close()
	refSlack, err := ref.c.Slack(ctx)
	if err != nil {
		return fmt.Errorf("single-node slack: %v", err)
	}
	refScen, _ := json.Marshal(refSlack.Scenarios)
	refEndpoints := make([]json.RawMessage, len(rcp.Scenarios))
	for i, sc := range rcp.Scenarios {
		if err := ref.c.Do(ctx, "GET", endpoints(sc.Name), nil, &refEndpoints[i]); err != nil {
			return fmt.Errorf("single-node endpoints %s: %v", sc.Name, err)
		}
	}

	// Merged aggregates are pure min/sum over the (identical) scenarios.
	var want cluster.MergedSlack
	for _, sc := range refSlack.Scenarios {
		want.SetupWNS, want.HoldWNS = min(want.SetupWNS, sc.SetupWNS), min(want.HoldWNS, sc.HoldWNS)
		want.SetupTNS += sc.SetupTNS
		want.HoldTNS += sc.HoldTNS
	}
	err = acrossShards(cfg, func(r *rig) error {
		var sr cluster.SlackReport
		if err := r.c.Do(ctx, "GET", "/slack", nil, &sr); err != nil {
			return fmt.Errorf("cluster slack: %v", err)
		}
		if sr.Degraded || len(sr.Stale) != 0 {
			return fmt.Errorf("healthy cluster answered degraded: %+v", sr)
		}
		if got, _ := json.Marshal(sr.Scenarios); !bytes.Equal(got, refScen) {
			return fmt.Errorf("scenario reports diverge from single node:\n  single: %s\n  cluster: %s", refScen, got)
		}
		m := sr.Merged
		if m.SetupWNS != want.SetupWNS || m.HoldWNS != want.HoldWNS || m.SetupTNS != want.SetupTNS || m.HoldTNS != want.HoldTNS {
			return fmt.Errorf("merged (%v/%v, %v/%v) is not min/sum (%v/%v, %v/%v)",
				m.SetupWNS, m.SetupTNS, m.HoldWNS, m.HoldTNS,
				want.SetupWNS, want.SetupTNS, want.HoldWNS, want.HoldTNS)
		}
		for i, sc := range rcp.Scenarios {
			var body json.RawMessage
			if err := r.c.Do(ctx, "GET", endpoints(sc.Name), nil, &body); err != nil {
				return fmt.Errorf("cluster endpoints %s: %v", sc.Name, err)
			}
			if !bytes.Equal(body, refEndpoints[i]) {
				return fmt.Errorf("endpoints %s diverge from single node:\n  single: %s\n  cluster: %s",
					sc.Name, refEndpoints[i], body)
			}
		}
		return nil
	})
	if err != nil {
		return err
	}

	// Barrier identity: the same ECO committed through a two-shard
	// coordinator and directly on the single node yields byte-identical
	// scenario reports at the same epoch.
	op, err := clusterResizeOp(rcp, d)
	if err != nil {
		return err
	}
	coord, err := bootCluster(2, cfg)
	if err != nil {
		return err
	}
	defer coord.close()
	var after [2]cluster.SlackReport
	for i, r := range []*rig{ref, coord} {
		if err := r.c.Do(ctx, "POST", "/eco", timingd.OpsBody{Ops: []timingd.Op{op}}, nil); err != nil {
			return fmt.Errorf("eco: %v", err)
		}
		if err := r.c.Do(ctx, "GET", "/slack", nil, &after[i]); err != nil {
			return fmt.Errorf("post-eco slack: %v", err)
		}
	}
	if after[0].Epoch != 1 || after[1].Epoch != 1 {
		return fmt.Errorf("post-eco epochs: single %d, cluster %d, want 1", after[0].Epoch, after[1].Epoch)
	}
	wa, _ := json.Marshal(after[0].Scenarios)
	ca, _ := json.Marshal(after[1].Scenarios)
	if !bytes.Equal(wa, ca) {
		return fmt.Errorf("post-eco scenario reports diverge:\n  single: %s\n  cluster: %s", wa, ca)
	}
	return nil
}

// clusterResizeOp finds a pin-compatible Vt swap in the fixture design.
func clusterResizeOp(rcp core.Recipe, d *netlist.Design) (timingd.Op, error) {
	lib := rcp.Scenarios[0].Lib
	for _, c := range d.Cells {
		m := lib.Cell(c.TypeName)
		if m == nil || m.IsSequential() || !strings.HasSuffix(c.TypeName, "_SVT") {
			continue
		}
		v := strings.TrimSuffix(c.TypeName, "_SVT") + "_LVT"
		if lib.Cell(v) != nil {
			return timingd.Op{Kind: "resize", Cell: c.Name, To: v}, nil
		}
	}
	return timingd.Op{}, fmt.Errorf("no resize target in cluster fixture")
}
