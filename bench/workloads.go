package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"newgame/internal/core"
	"newgame/internal/obs"
)

// runOpts is one run of one workload.
type runOpts struct {
	workload  string
	seed      int64
	seconds   float64
	traced    bool
	setupOnly bool // set up, report setup_s alone, and stop (see setUp)
	// withClientView adds the client-view figures an untraced run measured to
	// its result line, which by the driver's contract carries only the
	// end-to-end metrics; the suite and -aa ask their children for them.
	withClientView bool
	sc             scale
}

func (o runOpts) duration() time.Duration {
	return time.Duration(o.seconds * float64(time.Second))
}

// workloads maps each name in BENCHMARK.json to its runner.
var workloads = []struct {
	name string
	run  func(runOpts) (*result, error)
}{
	{"node_read_hot", runReadHot},
	{"node_eco_loop", func(o runOpts) (*result, error) { return runECOLoop(o, false) }},
	{"cluster_eco_loop", func(o runOpts) (*result, error) { return runECOLoop(o, true) }},
	{"batch_signoff", runBatch},
}

// setUp takes an untraced run from nothing to ready and reports setup_s.
// Set-up is everything before the first measured request: libraries with
// LVF, the design, server boot (or pack save and restore, and
// registration), and the warm-up pass. One set-up takes about half a
// second, too little to be steady, so setup_s is the median of o.sc.setups
// of them. Each is made by a process of its own, because a second boot in
// this process would meet a grown heap and warm caches: before its own
// set-up the run starts itself o.sc.setups-1 times with -setup-only, one
// after the other.
func setUp(o runOpts, res *result, boot func(*obs.Recorder) (teardown func(), err error)) (func(), error) {
	var times []float64
	if !o.setupOnly {
		for k := 1; k < o.sc.setups; k++ {
			s, err := setupChild(o)
			if err != nil {
				return nil, err
			}
			times = append(times, s)
		}
	}
	t := time.Now()
	teardown, err := boot(nil)
	if err != nil {
		return nil, err
	}
	times = append(times, time.Since(t).Seconds())
	res.set("setup_s", median(times), len(times))
	return teardown, nil
}

// setupChild is one -setup-only run of this binary: it prints its set-up
// time in seconds and nothing else.
func setupChild(o runOpts) (float64, error) {
	cmd, err := selfCmd("-workload", o.workload, "-seed", fmt.Sprint(o.seed), "-scale", o.sc.name, "-out", outDir, "-setup-only")
	if err != nil {
		return 0, err
	}
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return 0, fmt.Errorf("set-up child: %w", err)
	}
	return strconv.ParseFloat(strings.TrimSpace(string(out)), 64)
}

// setAlloc reports the heap bytes allocated per operation over a measured
// window of ops operations: the one end-to-end figure of work per operation
// that this machine's drifting speed does not touch.
func setAlloc(res *result, before, after goStats, ops int) {
	res.set("alloc_kb_per_op", float64(after.allocBytes-before.allocBytes)/1024/float64(ops), ops)
}

// setGoStats reports the Go runtime's share of a measured window of ops
// operations.
func setGoStats(res *result, before, after goStats, ops int, elapsed time.Duration) {
	res.set("go.allocs_per_op", float64(after.mallocs-before.mallocs)/float64(ops), ops)
	res.set("go.alloc_mb_per_s", float64(after.allocBytes-before.allocBytes)/(1<<20)/elapsed.Seconds(), 1)
	res.set("go.gc_pause_ms_total", float64(after.gcPauseNs-before.gcPauseNs)/1e6, 1)
}

func setSetupStages(res *result, fx *fixture, tg *target) {
	res.set("liberty.generate_ms", ms(fx.libsDur), 1)
	res.set("circuits.block_ms", ms(tg.blockDur), 1)
	res.set("timingd.boot_ms", ms(tg.bootDur), 1)
	if tg.coord != nil {
		n := len(tg.shards)
		res.set("timingd.boot_restore_ms", ms(tg.restoreDur)/float64(n), n)
		res.set("cluster.register_ms", ms(tg.registerDur)/float64(n), n)
		res.set("pack.save_ms", ms(tg.packSaveDur), 1)
	}
}

// cacheCounts reads the servers' query-cache counters.
func cacheCounts(rec *obs.Recorder) (hits, misses int64) {
	return rec.Counter("timingd.cache.hits").Value(), rec.Counter("timingd.cache.misses").Value()
}

// setCacheCounters reports the hit ratio of the replay alone: the counts
// since warm, which the caller read when the warm-up pass had ended.
func setCacheCounters(res *result, rec *obs.Recorder, warmHits, warmMisses int64) {
	hits, misses := cacheCounts(rec)
	hits, misses = hits-warmHits, misses-warmMisses
	if hits+misses > 0 {
		res.set("timingd.cache_hit_ratio", float64(hits)/float64(hits+misses), int(hits+misses))
	}
	res.set("timingd.refused_429", float64(rec.Counter("timingd.backpressure_429").Value()), 1)
}

// overheadPct is how much slower the traced median is than the untraced.
func overheadPct(traced, untraced float64) float64 {
	return (traced/untraced - 1) * 100
}

// ---------------------------------------------------------------------------
// node_read_hot

func setHotMetrics(res *result, st *hotStats) {
	n := len(st.latencyUs)
	res.set("read_qps", float64(n)/st.elapsed.Seconds(), n)
	res.set("read_p50_us", percentile(st.latencyUs, 50), n)
	res.set("read_p99_us", percentile(st.latencyUs, 99), n)
}

func runReadHot(o runOpts) (*result, error) {
	res := newResult(o.workload, o.seed, o.traced)
	var fx *fixture
	var tg *target
	var hot *readHot
	boot := func(rec *obs.Recorder) (func(), error) {
		var err error
		fx = newFixture()
		if tg, err = setupNode(fx, o.sc, rec); err != nil {
			return nil, err
		}
		if hot, err = newReadHot(fx, tg, o.seed, res, rec); err != nil {
			tg.close()
			return nil, err
		}
		return tg.close, nil
	}

	if !o.traced {
		teardown, err := setUp(o, res, boot)
		if err != nil {
			return nil, err
		}
		defer teardown()
		if o.setupOnly {
			return res, nil
		}
		before := readGoStats()
		st := hot.run(o.duration())
		setAlloc(res, before, readGoStats(), len(st.latencyUs))
		setHotMetrics(res, st)
		res.set("peak_rss_mb", peakRSSMB(), 1)
		return res, nil
	}

	// Traced: a quarter-length untraced replay for the client's view, the
	// same again with recording on, then the probes.
	teardown, err := boot(nil)
	if err != nil {
		return nil, err
	}
	before := readGoStats()
	plain := hot.run(o.duration() / 4)
	setGoStats(res, before, readGoStats(), len(plain.latencyUs), plain.elapsed)
	setHotMetrics(res, plain)
	teardown()

	rec := obs.NewRecorder()
	if teardown, err = boot(rec); err != nil {
		return nil, err
	}
	defer teardown()
	warmHits, warmMisses := cacheCounts(rec)
	traced := hot.run(o.duration() / 4)
	res.set("bench.trace_overhead_pct", overheadPct(median(traced.latencyUs), res.values["read_p50_us"]), len(traced.latencyUs))
	setCacheCounters(res, rec, warmHits, warmMisses)
	setSetupStages(res, fx, tg)
	if err := probeHitPath(tg, res); err != nil {
		return nil, err
	}
	res.set("client.wire_overhead_us", res.values["read_p50_us"]-res.values["timingd.handler_hit_us"], 1)
	if _, err := probeSTAFull(fx, tg.design.Clone(), res); err != nil {
		return nil, err
	}
	return res, finishTrace(rec, o.workload, nil)
}

// ---------------------------------------------------------------------------
// node_eco_loop and cluster_eco_loop

const loopWarmup = 2 // unmeasured iterations before the clock starts

func setLoopMetrics(res *result, st *loopStats) {
	res.set("loop_p50_ms", percentile(st.iter, 50), len(st.iter))
	res.set("loop_p99_ms", percentile(st.iter, 99), len(st.iter))
	res.set("whatif_p50_ms", median(st.whatif), len(st.whatif))
	res.set("commit_p50_ms", median(st.commit), len(st.commit))
	res.set("cold_read_p50_ms", median(st.coldRead), len(st.coldRead))
	res.set("triage_p50_ms", median(st.triage), len(st.triage))
	res.set("poll_p99_ms", percentile(st.poll, 99), len(st.poll))
	res.set("bench.poller_lateness_p99_ms", percentile(st.lateness, 99), len(st.lateness))
}

func runECOLoop(o runOpts, clustered bool) (*result, error) {
	res := newResult(o.workload, o.seed, o.traced)
	dir, cleanup, err := scratchDir()
	if err != nil {
		return nil, err
	}
	defer cleanup()

	var fx *fixture
	var tg *target
	var loop *ecoLoop
	boots := 0
	boot := func(rec *obs.Recorder) (func(), error) {
		var err error
		fx = newFixture()
		if clustered {
			boots++
			sub := filepath.Join(dir, fmt.Sprint(boots))
			if err = os.Mkdir(sub, 0o755); err == nil {
				tg, err = setupCluster(fx, o.sc, rec, sub)
			}
		} else {
			tg, err = setupNode(fx, o.sc, rec)
		}
		if err != nil {
			return nil, err
		}
		if loop, err = newECOLoop(fx, tg, o.seed, res, rec); err == nil {
			_, err = loop.run(0, loopWarmup)
		}
		if err != nil {
			tg.close()
			return nil, err
		}
		return tg.close, nil
	}

	if !o.traced {
		teardown, err := setUp(o, res, boot)
		if err != nil {
			return nil, err
		}
		defer teardown()
		if o.setupOnly {
			return res, nil
		}
		before := readGoStats()
		st, err := loop.run(o.duration(), 0)
		if err != nil {
			return nil, err
		}
		setAlloc(res, before, readGoStats(), len(st.iter))
		setLoopMetrics(res, st)
		res.set("peak_rss_mb", peakRSSMB(), 1) // before the reference node below is built
		return res, loop.checkFinalState(fx)
	}

	teardown, err := boot(nil)
	if err != nil {
		return nil, err
	}
	before := readGoStats()
	plain, err := loop.run(o.duration()/4, 0)
	if err != nil {
		return nil, err
	}
	setGoStats(res, before, readGoStats(), len(plain.iter), plain.elapsed)
	setLoopMetrics(res, plain)
	teardown()

	rec := obs.NewRecorder()
	if teardown, err = boot(rec); err != nil {
		return nil, err
	}
	defer teardown()
	warmHits, warmMisses := cacheCounts(rec)
	traced, err := loop.run(o.duration()/4, 0)
	if err != nil {
		return nil, err
	}
	res.set("bench.trace_overhead_pct", overheadPct(median(traced.iter), res.values["loop_p50_ms"]), len(traced.iter))
	// Counters are read before the probes add their own requests.
	setCacheCounters(res, rec, warmHits, warmMisses)
	setSetupStages(res, fx, tg)
	if err := readCommitPhases(tg, res); err != nil {
		return nil, err
	}
	if clustered {
		if err := readBarrierPhases(tg, rec, res); err != nil {
			return nil, err
		}
		dur, n, err := handlerTime(tg.front, "/slack")
		if err != nil {
			return nil, err
		}
		res.set("cluster.handler_slack_hit_us", us(dur), n)
		if err := probePack(tg.packPath, dir, res); err != nil {
			return nil, err
		}
	} else if err := probeLogAppend(dir, res); err != nil {
		return nil, err
	}
	if err := loop.probeServing(12); err != nil {
		return nil, err
	}
	d := tg.design.Clone()
	a, err := probeSTAFull(fx, d, res)
	if err != nil {
		return nil, err
	}
	if err := probeSTAIncremental(fx, d, a, o.seed, res); err != nil {
		return nil, err
	}
	if err := probeTriage(fx, tg.design, res); err != nil {
		return nil, err
	}
	if err := loop.checkFinalState(fx); err != nil {
		return nil, err
	}
	return res, finishTrace(rec, o.workload, loop.sampled)
}

// ---------------------------------------------------------------------------
// batch_signoff

func setBatchMetrics(res *result, fx *fixture, st *batchStats) {
	scenarios := len(fx.recipe.Scenarios)
	res.set("scenarios_per_s", float64(scenarios)/(median(st.surveyMs)/1000), len(st.surveyMs))
	res.set("closure_s", median(st.closeS), len(st.closeS))
}

func runBatch(o runOpts) (*result, error) {
	res := newResult(o.workload, o.seed, o.traced)
	var fx *fixture
	var b *batch
	boot := func(rec *obs.Recorder) (func(), error) {
		var err error
		fx = newFixture()
		b, err = newBatch(fx, o.sc, res, rec)
		return func() {}, err
	}
	if !o.traced {
		if _, err := setUp(o, res, boot); err != nil || o.setupOnly {
			return res, err
		}
		before := readGoStats()
		st, err := b.run(o.duration(), 3)
		if err != nil {
			return nil, err
		}
		setAlloc(res, before, readGoStats(), st.ops(fx))
		setBatchMetrics(res, fx, st)
		res.set("peak_rss_mb", peakRSSMB(), 1)
		return res, nil
	}

	if _, err := boot(nil); err != nil {
		return nil, err
	}
	before := readGoStats()
	start := time.Now()
	plain, err := b.run(o.duration()/4, 1)
	if err != nil {
		return nil, err
	}
	setGoStats(res, before, readGoStats(), plain.ops(fx), time.Since(start))
	setBatchMetrics(res, fx, plain)

	rec := obs.NewRecorder()
	if _, err := boot(rec); err != nil {
		return nil, err
	}
	traced, err := b.run(o.duration()/4, 1)
	if err != nil {
		return nil, err
	}
	res.set("bench.trace_overhead_pct", overheadPct(median(traced.surveyMs), median(plain.surveyMs)), len(traced.surveyMs))
	res.set("liberty.generate_ms", ms(fx.libsDur), 1)
	res.set("circuits.block_ms", ms(b.surveyDur), 1)
	res.set("core.survey_ms", median(plain.surveyMs), len(plain.surveyMs))
	res.set("core.close_iterations", float64(plain.iterations), 1)
	serial := b.engine(b.surveyDesign, 1)
	par := b.engine(b.surveyDesign, 0)
	par.Obs, serial.Obs = nil, nil
	var surveyErr error
	survey := func(e *core.Engine) func() {
		return func() {
			if _, err := e.Survey(); err != nil {
				surveyErr = err
			}
		}
	}
	dur, n := timed(probeMin, probeBudget, survey(serial))
	res.set("core.survey_serial_ms", ms(dur), n)
	res.set("core.survey_allocs", allocsPer(probeMin, survey(par)), probeMin)
	if surveyErr != nil {
		return nil, surveyErr
	}
	if _, err := probeSTAFull(fx, b.surveyDesign.Clone(), res); err != nil {
		return nil, err
	}
	return res, finishTrace(rec, o.workload, nil)
}
