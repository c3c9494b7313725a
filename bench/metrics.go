package main

import (
	"encoding/json"
	"fmt"
	"io"
)

// metricDef mirrors one entry of BENCHMARK.json; bench_test.go holds the
// two lists equal.
type metricDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// endToEnd is what the untraced run reports, and what BENCHMARK.json gates.
// No time but setup_s is among them: on the reference machine every
// throughput and latency spreads 15-20 % between runs of the same code
// (README.md, "What is gated and why"), so those stay per-layer figures
// under the names ISSUE 11 gave them, and the untraced run prints them in
// its table. alloc_kb_per_op is heap bytes allocated per read, loop
// iteration, or scenario analysis and closure.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"peak_rss_mb", "MB", "lower"},
	{"alloc_kb_per_op", "KB", "lower"},
}

// clientView is what each workload's client sees, under the names ISSUE 11
// gave them. The untraced run measures them over the whole run and prints
// them in its table; the traced run reports them from its untraced half.
var clientView = []metricDef{
	{"read_qps", "1/s", "higher"},
	{"read_p50_us", "us", "lower"},
	{"read_p99_us", "us", "lower"},
	{"loop_p50_ms", "ms", "lower"},
	{"loop_p99_ms", "ms", "lower"},
	{"whatif_p50_ms", "ms", "lower"},
	{"commit_p50_ms", "ms", "lower"},
	{"cold_read_p50_ms", "ms", "lower"},
	{"triage_p50_ms", "ms", "lower"},
	{"poll_p99_ms", "ms", "lower"},
	{"scenarios_per_s", "1/s", "higher"},
	{"closure_s", "s", "lower"},
	{"failed_share", "ratio", "lower"},
}

// untracedView is what the suite and -aa tabulate for untraced runs.
var untracedView = append(endToEnd[:len(endToEnd):len(endToEnd)], clientView...)

// perLayer is what the traced run reports: the client's view, then the
// layers. A workload that never enters a layer reports 0 for it.
var perLayer = append(clientView[:len(clientView):len(clientView)], []metricDef{
	// Set-up stages.
	{"liberty.generate_ms", "ms", "lower"},
	{"circuits.block_ms", "ms", "lower"},
	{"timingd.boot_ms", "ms", "lower"},
	{"timingd.boot_restore_ms", "ms", "lower"},
	{"cluster.register_ms", "ms", "lower"},

	// sta: full propagation.
	{"sta.new_ms", "ms", "lower"},
	{"sta.run_ms", "ms", "lower"},
	{"sta.run_par_ms", "ms", "lower"},
	{"sta.run_allocs", "count", "lower"},
	{"sta.run_nodes_relaxed", "count", "lower"},
	{"sta.run_nets_filled", "count", "lower"},
	{"sta.run_net_cache_hits", "count", "higher"},
	// sta: incremental update after one resize.
	{"sta.update_us", "us", "lower"},
	{"sta.update_allocs", "count", "lower"},
	{"sta.update_nodes_relaxed", "count", "lower"},
	// sta: the read-side walks.
	{"sta.endpoint_slacks_us", "us", "lower"},
	{"sta.worst_paths_us", "us", "lower"},
	{"sta.pba_us", "us", "lower"},
	{"sta.paths_within_us", "us", "lower"},

	// core: the batch engine.
	{"core.survey_ms", "ms", "lower"},
	{"core.survey_serial_ms", "ms", "lower"},
	{"core.survey_allocs", "count", "lower"},
	{"core.close_iterations", "count", "lower"},

	// Admission and the hit path.
	{"workpool.submit_us", "us", "lower"},
	{"timingd.refused_429", "count", "lower"},
	{"timingd.handler_hit_us", "us", "lower"},
	{"timingd.handler_hit_allocs", "count", "lower"},
	{"timingd.cache_hit_ratio", "ratio", "higher"},
	{"client.wire_overhead_us", "us", "lower"},
	{"client.decode_slack_us", "us", "lower"},

	// The cold read path.
	{"timingd.handler_slack_cold_us", "us", "lower"},
	{"timingd.handler_paths_cold_us", "us", "lower"},
	{"timingd.handler_endpoints_cold_us", "us", "lower"},
	{"timingd.handler_triage_cold_ms", "ms", "lower"},
	{"timingd.json_encode_slack_us", "us", "lower"},
	{"timingd.json_encode_triage_ms", "ms", "lower"},

	// The write path.
	{"timingd.handler_whatif_ms", "ms", "lower"},
	{"timingd.handler_eco_ms", "ms", "lower"},
	{"timingd.commit_resolve_ms", "ms", "lower"},
	{"timingd.commit_apply_ms", "ms", "lower"},
	{"timingd.commit_swap_ms", "ms", "lower"},
	{"timingd.commit_replay_ms", "ms", "lower"},

	// triage.
	{"triage.plan_us", "us", "lower"},
	{"triage.extract_ms", "ms", "lower"},
	{"triage.build_report_ms", "ms", "lower"},
	{"triage.violations", "count", "lower"},
	{"triage.pruned_walk_share", "ratio", "higher"},

	// pack.
	{"pack.encode_ms", "ms", "lower"},
	{"pack.save_ms", "ms", "lower"},
	{"pack.decode_ms", "ms", "lower"},
	{"pack.bytes", "count", "lower"},
	{"pack.log_append_us", "us", "lower"},

	// cluster: the coordinator's own handlers and the barrier.
	{"cluster.handler_slack_hit_us", "us", "lower"},
	{"cluster.scatter_slack_ms", "ms", "lower"},
	{"cluster.proxy_paths_ms", "ms", "lower"},
	{"cluster.whatif_ms", "ms", "lower"},
	{"cluster.triage_ms", "ms", "lower"},
	{"cluster.barrier_prepare_ms", "ms", "lower"},
	{"cluster.barrier_verify_ms", "ms", "lower"},
	{"cluster.barrier_commit_ms", "ms", "lower"},
	{"cluster.barrier_total_ms", "ms", "lower"},
	{"cluster.replica_retries", "count", "lower"},
	{"cluster.epoch_skew", "count", "lower"},

	// The Go runtime's share of the measured window.
	{"go.allocs_per_op", "count", "lower"},
	{"go.alloc_mb_per_s", "MB/s", "lower"},
	{"go.gc_pause_ms_total", "ms", "lower"},

	// The harness itself.
	{"bench.trace_overhead_pct", "%", "lower"},
	{"bench.poller_lateness_p99_ms", "ms", "lower"},
}...)

// result is one run of one workload.
type result struct {
	Workload  string
	Seed      int64
	Traced    bool
	Attempted int
	Failed    int
	values    map[string]float64
	samples   map[string]int // how many measurements stand behind each value
	notes     []string       // first few failures, for the log
}

func newResult(workload string, seed int64, traced bool) *result {
	return &result{Workload: workload, Seed: seed, Traced: traced,
		values: map[string]float64{}, samples: map[string]int{}}
}

func (r *result) set(name string, v float64, n int) {
	r.values[name] = v
	r.samples[name] = n
}

// check counts one correctness assertion; failures land in failed_share.
func (r *result) check(ok bool, format string, args ...any) bool {
	r.Attempted++
	if !ok {
		r.failf(format, args...)
	}
	return ok
}

func (r *result) failf(format string, args ...any) {
	r.Failed++
	if len(r.notes) < 8 {
		r.notes = append(r.notes, fmt.Sprintf(format, args...))
	}
}

func (r *result) defs() []metricDef {
	if r.Traced {
		return perLayer
	}
	return endToEnd
}

// validate enforces the output contract before anything is printed: only
// registered names, and every end-to-end metric measured and non-zero.
func (r *result) validate() error {
	known := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		known[d.Name] = true
	}
	for name := range r.values {
		if !known[name] {
			return fmt.Errorf("%s: metric %s is not registered in metrics.go", r.Workload, name)
		}
	}
	if !r.Traced {
		for _, d := range endToEnd {
			if r.values[d.Name] <= 0 {
				return fmt.Errorf("%s: end-to-end metric %s was not measured", r.Workload, d.Name)
			}
		}
	}
	return nil
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// wireResult is the one-line JSON object a run ends with.
type wireResult struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func (r *result) wire(withClientView bool) wireResult {
	out := wireResult{Correct: r.Failed == 0, Attempted: r.Attempted, Failed: r.Failed,
		Metrics: map[string]metricValue{}}
	for _, d := range r.defs() {
		out.Metrics[d.Name] = metricValue{r.values[d.Name], d.Unit}
	}
	if withClientView {
		for _, d := range clientView {
			if v, ok := r.values[d.Name]; ok {
				out.Metrics[d.Name] = metricValue{v, d.Unit}
			}
		}
	}
	return out
}

// printTable lists every metric the run measured with unit and sample
// count — more than the result line carries: an untraced run also shows
// its workload's own client-side numbers.
func (r *result) printTable(w io.Writer) {
	fmt.Fprintf(w, "workload %s seed %d traced %v: attempted %d failed %d\n",
		r.Workload, r.Seed, r.Traced, r.Attempted, r.Failed)
	for _, note := range r.notes {
		fmt.Fprintf(w, "  FAILED: %s\n", note)
	}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if _, ok := r.values[d.Name]; ok {
			fmt.Fprintf(w, "  %-34s %14.4f %-6s n=%d\n", d.Name, r.values[d.Name], d.Unit, r.samples[d.Name])
		}
	}
}

func (r *result) printJSON(w io.Writer, withClientView bool) error {
	b, err := json.Marshal(r.wire(withClientView))
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}
