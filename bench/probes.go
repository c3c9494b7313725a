package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"time"

	"newgame/internal/cluster"
	"newgame/internal/core"
	"newgame/internal/netlist"
	"newgame/internal/obs"
	"newgame/internal/pack"
	"newgame/internal/sta"
	"newgame/internal/timingd"
	"newgame/internal/triage"
	"newgame/internal/workpool"
)

// Layer probes time direct calls to a package's public functions on the
// workload's own design. Each runs for probeBudget (at least probeMin
// calls) and reports the median, so the whole set costs a few seconds.
const (
	probeBudget = 120 * time.Millisecond
	probeMin    = 3
)

// analyzerFor builds scenario idx's analyzer over d the way timingd's
// sessions do.
func analyzerFor(fx *fixture, d *netlist.Design, idx, workers int, topo *sta.Topology) (*sta.Analyzer, error) {
	sc := fx.recipe.Scenarios[idx]
	cons := core.ConstraintsFor(d, d.Port("clk"), basePeriod, 0, sc)
	return sta.New(d, cons, sta.Config{
		Lib: sc.Lib, Parasitics: sta.NewKeyedNetBinder(fx.stack, designSeed), Scaling: sc.Scaling,
		Derate: sc.Derate, SI: sc.SI, MIS: sc.MIS,
		Workers: workers, Topology: topo,
	})
}

// probeSTAFull times graph construction and full propagation for one
// scenario, serial and level-parallel. It returns the serial analyzer,
// already run, for the probes that follow.
func probeSTAFull(fx *fixture, d *netlist.Design, res *result) (*sta.Analyzer, error) {
	t := time.Now()
	a, err := analyzerFor(fx, d, 0, 1, nil)
	if err != nil {
		return nil, err
	}
	res.set("sta.new_ms", ms(time.Since(t)), 1)
	if err := a.Run(); err != nil {
		return nil, err
	}
	// The first Run computes every net's delays; later Runs on an unedited
	// netlist are served by the per-net cache. Both counts are reported.
	res.set("sta.run_nets_filled", float64(a.LastRunStats().NetsFilled), 1)
	var runErr error
	run := func(a *sta.Analyzer) func() {
		return func() {
			if err := a.Run(); err != nil {
				runErr = err
			}
		}
	}
	dur, n := timed(probeMin, probeBudget, run(a))
	res.set("sta.run_ms", ms(dur), n)
	st := a.LastRunStats()
	res.set("sta.run_nodes_relaxed", float64(st.NodesRelaxed), 1)
	res.set("sta.run_net_cache_hits", float64(st.NetCacheHits), 1)
	res.set("sta.run_allocs", allocsPer(probeMin, run(a)), probeMin)

	par, err := analyzerFor(fx, d, 0, 0, a.Topology())
	if err != nil {
		return nil, err
	}
	dur, n = timed(probeMin, probeBudget, run(par))
	res.set("sta.run_par_ms", ms(dur), n)
	return a, runErr
}

// probeSTAIncremental times what one resize costs the analyzer — the
// Update behind every what-if and commit — and the read-side walks behind
// every cold /slack, /paths and /triage. It edits d, so d must be a clone.
func probeSTAIncremental(fx *fixture, d *netlist.Design, a *sta.Analyzer, seed int64, res *result) error {
	plan, err := newECOPlan(d, fx.lib, seed)
	if err != nil {
		return err
	}
	var upErr error
	var relaxed, updates int64
	update := func() {
		op := plan.peek()
		c := d.Cell(op.Cell)
		c.SetType(op.To)
		plan.advance()
		a.InvalidateCell(c)
		if err := a.Update(); err != nil {
			upErr = err
		}
		relaxed += a.LastRunStats().NodesRelaxed
		updates++
	}
	dur, n := timed(20, probeBudget, update)
	res.set("sta.update_us", us(dur), n)
	res.set("sta.update_nodes_relaxed", float64(relaxed)/float64(updates), int(updates))
	res.set("sta.update_allocs", allocsPer(20, update), 20)
	if upErr != nil {
		return upErr
	}

	dur, n = timed(probeMin, probeBudget, func() { a.EndpointSlacks(sta.Setup) })
	res.set("sta.endpoint_slacks_us", us(dur), n)
	var paths []sta.Path
	dur, n = timed(probeMin, probeBudget, func() { paths = a.WorstPaths(sta.Setup, 10) })
	res.set("sta.worst_paths_us", us(dur), n)
	if len(paths) == 0 {
		return fmt.Errorf("sta probe: design %s has no setup path", d.Name)
	}
	i := 0
	dur, n = timed(len(paths), probeBudget, func() { a.PBA(paths[i%len(paths)]); i++ })
	res.set("sta.pba_us", us(dur), n)
	worst := a.EndpointSlacks(sta.Setup)
	if len(worst) > 10 {
		worst = worst[:10]
	}
	i = 0
	dur, n = timed(len(worst), probeBudget, func() { a.PathsWithin(worst[i%len(worst)], 10, 3); i++ })
	res.set("sta.paths_within_us", us(dur), n)
	return nil
}

// probeTriage times the triage pipeline's three stages over all four
// scenarios of the unedited design.
func probeTriage(fx *fixture, d *netlist.Design, res *result) error {
	scenarios := fx.recipe.Scenarios
	var plan triage.Plan
	dur, n := timed(probeMin, probeBudget/4, func() { plan = triage.PlanFor(scenarios, basePeriod) })
	res.set("triage.plan_us", us(dur), n)

	as := make([]*sta.Analyzer, len(scenarios))
	var topo *sta.Topology
	for i := range scenarios {
		a, err := analyzerFor(fx, d, i, 1, topo)
		if err == nil {
			err = a.Run()
		}
		if err != nil {
			return err
		}
		as[i], topo = a, a.Topology()
	}
	opts := triage.Options{K: 3, Window: 10} // timingd's /triage defaults
	extracts := make([]triage.ScenarioExtract, len(as))
	dur, n = timed(probeMin, probeBudget, func() {
		for i, a := range as {
			extracts[i] = triage.ExtractScenario(a, plan, i, opts)
		}
	})
	res.set("triage.extract_ms", ms(dur), n)
	var rep triage.Report
	dur, n = timed(probeMin, probeBudget, func() { rep = triage.BuildReport(extracts) })
	res.set("triage.build_report_ms", ms(dur), n)
	res.set("triage.violations", float64(rep.Stats.Violations), 1)
	if pairs := rep.Stats.AnalyzedPairs + rep.Stats.PrunedPairs; pairs > 0 {
		res.set("triage.pruned_walk_share", float64(rep.Stats.PrunedPairs)/float64(pairs), pairs)
	}
	return nil
}

// handlerTime drives h in memory with one reusable request and returns the
// median time per call. Only for GETs whose answer does not change.
func handlerTime(h http.Handler, uri string) (time.Duration, int, error) {
	req := httptest.NewRequest(http.MethodGet, uri, nil)
	status := 0
	dur, n := timed(50, probeBudget, func() {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, req)
		status = w.Code
	})
	if status != http.StatusOK {
		return 0, 0, fmt.Errorf("probe GET %s: status %d", uri, status)
	}
	return dur, n, nil
}

// probeHitPath times what a cached read costs without the wire: admission
// alone, the handler end to end, and the client's decode.
func probeHitPath(tg *target, res *result) error {
	pool := workpool.NewPool(nproc, 256)
	done := make(chan struct{}, 1)
	dur, n := timed(1000, probeBudget, func() {
		pool.TrySubmit(func() { done <- struct{}{} })
		<-done
	})
	pool.Close()
	res.set("workpool.submit_us", us(dur), n)

	dur, n, err := handlerTime(tg.front, "/slack")
	if err != nil {
		return err
	}
	res.set("timingd.handler_hit_us", us(dur), n)
	req := httptest.NewRequest(http.MethodGet, "/slack", nil)
	res.set("timingd.handler_hit_allocs", allocsPer(200, func() {
		tg.front.ServeHTTP(httptest.NewRecorder(), req)
	}), 200)

	_, body := call(tg.front, http.MethodGet, "/slack", nil)
	var rep timingd.SlackReport
	dur, n = timed(200, probeBudget, func() { json.Unmarshal(body, &rep) })
	res.set("client.decode_slack_us", us(dur), n)
	return nil
}

// probeServing times the cold read path and the write path handler by
// handler, with no socket. Each round commits one toggle through the front
// door — which purges every cache — and then asks each question once.
//
// On a cluster every question is asked twice: first of the shard that owns
// it (cold: the timingd.* number), then of the coordinator (its own cache
// cold, the shard's now warm: the cluster.* number is the scatter, merge
// and extra hop alone).
func (l *ecoLoop) probeServing(rounds int) error {
	res, front := l.res, l.tg.front
	shardFor := func(scenario string) http.Handler {
		for _, s := range l.tg.shards {
			for _, ref := range s.ScenarioSet() {
				if ref.Name == scenario {
					return s
				}
			}
		}
		return l.tg.shards[0]
	}
	pathsURI := fmt.Sprintf("/paths?k=10&kind=setup&scenario=%s", l.setupScenario)
	endpointsURI := fmt.Sprintf("/endpoints?kind=hold&limit=50&scenario=%s", l.holdScenario)
	samples := map[string][]float64{}
	get := func(name string, h http.Handler, uri string) ([]byte, error) {
		t := time.Now()
		code, body := call(h, http.MethodGet, uri, nil)
		samples[name] = append(samples[name], float64(time.Since(t)))
		if code != http.StatusOK {
			return nil, fmt.Errorf("probe GET %s: %d %s", uri, code, body)
		}
		return body, nil
	}
	var slackBody, triageBody []byte
	for i := 0; i < rounds; i++ {
		body, err := json.Marshal(opsBody{[]timingd.Op{l.plan.peek()}})
		if err != nil {
			return err
		}
		t := time.Now()
		code, out := call(l.tg.shards[0], http.MethodPost, "/whatif", body)
		samples["timingd.handler_whatif_ms"] = append(samples["timingd.handler_whatif_ms"], float64(time.Since(t)))
		if code != http.StatusOK {
			return fmt.Errorf("probe /whatif: %d %s", code, out)
		}
		if l.tg.coord != nil {
			t = time.Now()
			code, out = call(front, http.MethodPost, "/whatif", body)
			samples["cluster.whatif_ms"] = append(samples["cluster.whatif_ms"], float64(time.Since(t)))
			if code != http.StatusOK {
				return fmt.Errorf("probe coordinator /whatif: %d %s", code, out)
			}
		}
		t = time.Now()
		code, out = call(front, http.MethodPost, "/eco", body)
		if l.tg.coord == nil {
			samples["timingd.handler_eco_ms"] = append(samples["timingd.handler_eco_ms"], float64(time.Since(t)))
		}
		if code != http.StatusOK {
			return fmt.Errorf("probe /eco: %d %s", code, out)
		}
		l.plan.advance()
		l.epoch++

		if slackBody, err = get("timingd.handler_slack_cold_us", l.tg.shards[0], "/slack"); err != nil {
			return err
		}
		if _, err = get("timingd.handler_paths_cold_us", shardFor(l.setupScenario), pathsURI); err != nil {
			return err
		}
		if _, err = get("timingd.handler_endpoints_cold_us", shardFor(l.holdScenario), endpointsURI); err != nil {
			return err
		}
		if triageBody, err = get("timingd.handler_triage_cold_ms", l.tg.shards[0], "/triage"); err != nil {
			return err
		}
		if l.tg.coord != nil {
			// The coordinator gathers /triage/extract per scenario, a URI
			// the direct shard reads above did not warm.
			for _, q := range [][2]string{
				{"cluster.scatter_slack_ms", "/slack"}, {"cluster.proxy_paths_ms", pathsURI}, {"cluster.triage_ms", "/triage"},
			} {
				if _, err = get(q[0], front, q[1]); err != nil {
					return err
				}
			}
		}
	}
	for name, ds := range samples {
		d := time.Duration(median(ds))
		if strings.HasSuffix(name, "_us") {
			res.set(name, us(d), len(ds))
		} else {
			res.set(name, ms(d), len(ds))
		}
	}

	var slack timingd.SlackReport
	if err := json.Unmarshal(slackBody, &slack); err != nil {
		return err
	}
	dur, n := timed(50, probeBudget, func() { json.Marshal(slack) })
	res.set("timingd.json_encode_slack_us", us(dur), n)
	var tri timingd.TriageReport
	if err := json.Unmarshal(triageBody, &tri); err != nil {
		return err
	}
	dur, n = timed(probeMin, probeBudget, func() { json.Marshal(tri) })
	res.set("timingd.json_encode_triage_ms", ms(dur), n)
	return nil
}

// readCommitPhases takes the writer pipeline's per-phase medians from the
// flight recorder of the first shard.
func readCommitPhases(tg *target, res *result) error {
	rep, err := getJSON[timingd.DebugEpochsReport](tg.shards[0], "/debug/epochs")
	if err != nil {
		return err
	}
	var resolve, apply, swap, replay []float64
	for _, c := range rep.Commits {
		if c.Err == "" {
			resolve, apply = append(resolve, c.ResolveMs), append(apply, c.ApplyMs)
			swap, replay = append(swap, c.SwapMs), append(replay, c.ReplayMs)
		}
	}
	res.set("timingd.commit_resolve_ms", median(resolve), len(resolve))
	res.set("timingd.commit_apply_ms", median(apply), len(apply))
	res.set("timingd.commit_swap_ms", median(swap), len(swap))
	res.set("timingd.commit_replay_ms", median(replay), len(replay))
	return nil
}

// readBarrierPhases does the same for the coordinator's epoch barrier, and
// reads its retry and skew counters.
func readBarrierPhases(tg *target, rec *obs.Recorder, res *result) error {
	rep, err := getJSON[cluster.DebugBarriersReport](tg.front, "/debug/barriers")
	if err != nil {
		return err
	}
	var prepare, verify, commit, total []float64
	for _, b := range rep.Barriers {
		if b.Outcome == "committed" {
			prepare, verify = append(prepare, b.PrepareMs), append(verify, b.VerifyMs)
			commit, total = append(commit, b.CommitMs), append(total, b.TotalMs)
		}
	}
	res.set("cluster.barrier_prepare_ms", median(prepare), len(prepare))
	res.set("cluster.barrier_verify_ms", median(verify), len(verify))
	res.set("cluster.barrier_commit_ms", median(commit), len(commit))
	res.set("cluster.barrier_total_ms", median(total), len(total))
	res.set("cluster.replica_retries", float64(rec.Counter("cluster.slack.replica_retries").Value()+
		rec.Counter("cluster.proxy.replica_retries").Value()), 1)
	res.set("cluster.epoch_skew", float64(rec.Counter("cluster.slack.epoch_skew").Value()+
		rec.Counter("cluster.triage.epoch_skew").Value()), 1)
	return nil
}

// probePack times the snapshot codec on the pack the cluster booted from,
// and one fsynced epoch-log append.
func probePack(packPath, dir string, res *result) error {
	snap, err := pack.Load(packPath)
	if err != nil {
		return err
	}
	var data []byte
	var encErr error
	dur, n := timed(probeMin, probeBudget, func() { data, encErr = pack.Encode(snap) })
	if encErr != nil {
		return encErr
	}
	res.set("pack.encode_ms", ms(dur), n)
	res.set("pack.bytes", float64(len(data)), 1)
	dur, n = timed(probeMin, probeBudget, func() { _, encErr = pack.Decode(data) })
	if encErr != nil {
		return encErr
	}
	res.set("pack.decode_ms", ms(dur), n)
	return probeLogAppend(dir, res)
}

func probeLogAppend(dir string, res *result) error {
	log, err := pack.OpenLog(filepath.Join(dir, "probe.log"))
	if err != nil {
		return err
	}
	epoch := int64(0)
	var appErr error
	dur, n := timed(20, probeBudget, func() {
		epoch++
		if err := log.Append(pack.EpochRecord{Epoch: epoch, Ops: []pack.EpochOp{{Kind: "resize", Cell: "u1", To: "INV_X1_LVT"}}}); err != nil {
			appErr = err
		}
	})
	res.set("pack.log_append_us", us(dur), n)
	if err := log.Close(); err != nil {
		return err
	}
	return appErr
}
