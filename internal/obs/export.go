package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"
	"time"

	"newgame/internal/report"
)

// snapshot copies the recorder's state under the lock so exporters can
// walk it without racing live instrumentation.
func (r *Recorder) snapshot() (spans []*Span, counters map[string]*Counter, gauges map[string]*Gauge, hists map[string]*Histogram, wall time.Duration) {
	r.mu.Lock()
	defer r.mu.Unlock()
	spans = append([]*Span(nil), r.spans...)
	counters = make(map[string]*Counter, len(r.counters))
	for k, v := range r.counters {
		counters[k] = v
	}
	gauges = make(map[string]*Gauge, len(r.gauges))
	for k, v := range r.gauges {
		gauges[k] = v
	}
	hists = make(map[string]*Histogram, len(r.hists))
	for k, v := range r.hists {
		hists[k] = v
	}
	return spans, counters, gauges, hists, time.Since(r.start)
}

// jsonSafe clamps non-finite values, which encoding/json refuses to
// marshal, to the largest finite float (NaN to 0).
func jsonSafe(v float64) float64 {
	switch {
	case math.IsNaN(v):
		return 0
	case math.IsInf(v, 1):
		return math.MaxFloat64
	case math.IsInf(v, -1):
		return -math.MaxFloat64
	}
	return v
}

// spanDur is the span's duration, closing still-open spans at wall.
func spanDur(s *Span, wall time.Duration) time.Duration {
	if s.done {
		return s.dur
	}
	return wall - s.start
}

// spanStat is the per-name rollup shared by the summary and JSON exports.
type spanStat struct {
	Count   int     `json:"count"`
	TotalMs float64 `json:"total_ms"`
	MeanMs  float64 `json:"mean_ms"`
	MaxMs   float64 `json:"max_ms"`
}

func rollupSpans(spans []*Span, wall time.Duration) map[string]*spanStat {
	stats := map[string]*spanStat{}
	for _, s := range spans {
		st := stats[s.name]
		if st == nil {
			st = &spanStat{}
			stats[s.name] = st
		}
		ms := float64(spanDur(s, wall)) / float64(time.Millisecond)
		st.Count++
		st.TotalMs += ms
		if ms > st.MaxMs {
			st.MaxMs = ms
		}
	}
	for _, st := range stats {
		st.MeanMs = st.TotalMs / float64(st.Count)
	}
	return stats
}

// WriteSummary renders the human-readable rollup: spans by total time,
// then counters, gauges and histograms. A nil Recorder writes nothing.
func (r *Recorder) WriteSummary(w io.Writer) {
	if r == nil {
		return
	}
	spans, counters, gauges, hists, wall := r.snapshot()

	stats := rollupSpans(spans, wall)
	names := make([]string, 0, len(stats))
	for n := range stats {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool {
		a, b := stats[names[i]], stats[names[j]]
		if a.TotalMs != b.TotalMs {
			return a.TotalMs > b.TotalMs
		}
		return names[i] < names[j]
	})
	tb := report.NewTable(fmt.Sprintf("obs spans (wall %.1f ms)", float64(wall)/float64(time.Millisecond)),
		"span", "count", "total ms", "mean ms", "max ms")
	for _, n := range names {
		st := stats[n]
		tb.Row(n, st.Count, st.TotalMs, st.MeanMs, st.MaxMs)
	}
	tb.Render(w)

	mt := report.NewTable("obs metrics", "metric", "kind", "value")
	for _, n := range sortedKeys(counters) {
		mt.Row(n, "counter", counters[n].Value())
	}
	for _, n := range sortedKeys(gauges) {
		mt.Row(n, "gauge", gauges[n].Value())
	}
	for _, n := range sortedKeys(hists) {
		h := hists[n]
		mt.Row(n, "histogram", histLine(h))
	}
	fmt.Fprintln(w)
	mt.Render(w)
}

// histLine renders a histogram as "n=12 mean=3.4 | ≤4:7 ≤16:5".
func histLine(h *Histogram) string {
	n := h.n.Load()
	var b strings.Builder
	mean := 0.0
	if n > 0 {
		mean = h.sum.load() / float64(n)
	}
	fmt.Fprintf(&b, "n=%d mean=%.3g |", n, mean)
	for i := range h.counts {
		c := h.counts[i].Load()
		if c == 0 {
			continue
		}
		if i < len(h.bounds) {
			fmt.Fprintf(&b, " <=%g:%d", h.bounds[i], c)
		} else {
			fmt.Fprintf(&b, " inf:%d", c)
		}
	}
	return b.String()
}

func sortedKeys[V any](m map[string]V) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}

// histDump is the JSON form of a histogram: parallel bounds/counts plus
// the overflow bucket as the final count.
type histDump struct {
	Bounds []float64 `json:"bounds"`
	Counts []int64   `json:"counts"`
	Count  int64     `json:"count"`
	Sum    float64   `json:"sum"`
	Mean   float64   `json:"mean"`
}

type metricsDump struct {
	WallMs     float64              `json:"wall_ms"`
	Counters   map[string]int64     `json:"counters"`
	Gauges     map[string]float64   `json:"gauges"`
	Histograms map[string]histDump  `json:"histograms"`
	Spans      map[string]*spanStat `json:"spans"`
}

// WriteMetricsJSON writes the metrics dump behind the CLIs' -metrics flag
// and the daemons' /metrics: counters, gauges, histograms with their
// bucket boundaries, and per-name span rollups. Map keys sort, so two runs
// of the same workload diff cleanly. A nil Recorder writes "{}".
func (r *Recorder) WriteMetricsJSON(w io.Writer) error {
	if r == nil {
		_, err := io.WriteString(w, "{}\n")
		return err
	}
	spans, counters, gauges, hists, wall := r.snapshot()
	d := metricsDump{
		WallMs:     float64(wall) / float64(time.Millisecond),
		Counters:   map[string]int64{},
		Gauges:     map[string]float64{},
		Histograms: map[string]histDump{},
		Spans:      rollupSpans(spans, wall),
	}
	for n, c := range counters {
		d.Counters[n] = c.Value()
	}
	for n, g := range gauges {
		d.Gauges[n] = jsonSafe(g.Value())
	}
	for n, h := range hists {
		hd := histDump{Bounds: h.bounds, Counts: make([]int64, len(h.counts)), Count: h.n.Load(), Sum: jsonSafe(h.sum.load())}
		for i := range h.counts {
			hd.Counts[i] = h.counts[i].Load()
		}
		if hd.Count > 0 {
			hd.Mean = hd.Sum / float64(hd.Count)
		}
		d.Histograms[n] = hd
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(d)
}

// WriteChromeTrace writes every recorded span as a complete ("X") Chrome
// trace event (the JSON array format understood by chrome://tracing and
// Perfetto), one lane per track with "M" thread_name metadata — the
// scenario/level parallelism of a signoff run renders as overlapping
// lanes. Timestamps and durations are microseconds since recorder start.
// A nil Recorder writes an empty event array.
func (r *Recorder) WriteChromeTrace(w io.Writer) error {
	if r == nil {
		_, err := io.WriteString(w, "[]\n")
		return err
	}
	spans, _, _, _, wall := r.snapshot()
	tracks := map[int]bool{}
	for _, s := range spans {
		tracks[s.track] = true
	}
	if _, err := io.WriteString(w, "[\n"); err != nil {
		return err
	}
	first := true
	for _, t := range sortedInts(tracks) {
		name := "main"
		if t > 0 {
			name = fmt.Sprintf("worker %d", t)
		}
		if err := writeEvent(w, &first, map[string]any{
			"name": "thread_name", "ph": "M", "pid": 1, "tid": t,
			"args": map[string]any{"name": name},
		}); err != nil {
			return err
		}
	}
	for _, s := range spans {
		ev := map[string]any{
			"name": s.name, "cat": "newgame", "ph": "X",
			"ts":  float64(s.start) / float64(time.Microsecond),
			"dur": float64(spanDur(s, wall)) / float64(time.Microsecond),
			"pid": 1, "tid": s.track,
		}
		args := map[string]any{"span_id": s.id}
		if s.parent >= 0 {
			args["parent_id"] = s.parent
		}
		for _, a := range s.args {
			args[a.key] = jsonSafe(a.val)
		}
		ev["args"] = args
		if err := writeEvent(w, &first, ev); err != nil {
			return err
		}
	}
	_, err := io.WriteString(w, "\n]\n")
	return err
}

func writeEvent(w io.Writer, first *bool, ev map[string]any) error {
	if !*first {
		if _, err := io.WriteString(w, ",\n"); err != nil {
			return err
		}
	}
	*first = false
	b, err := json.Marshal(ev)
	if err != nil {
		return err
	}
	_, err = w.Write(b)
	return err
}

func sortedInts(m map[int]bool) []int {
	out := make([]int, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Ints(out)
	return out
}

// Export is the tail a CLI ends a recorded run with: a blank line and the
// summary on out, then the metrics dump to metricsPath and the Chrome trace
// to tracePath ("" skips one, "-" is out itself). A nil Recorder writes
// nothing.
func (r *Recorder) Export(out io.Writer, metricsPath, tracePath string) error {
	if r == nil {
		return nil
	}
	fmt.Fprintln(out)
	r.WriteSummary(out)
	if err := exportFile(metricsPath, out, r.WriteMetricsJSON); err != nil {
		return err
	}
	return exportFile(tracePath, out, r.WriteChromeTrace)
}

// exportFile writes one exporter's output to path ("" skips; "-" is out).
func exportFile(path string, out io.Writer, write func(w io.Writer) error) error {
	if path == "" {
		return nil
	}
	if path == "-" {
		return write(out)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
