package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"

	"newgame/internal/obs"
)

// A traced run has one obs.Recorder. Every server and engine gets it as
// Config.Obs, and the harness records its own spans around each client call
// into the same recorder, so program and harness spans share a clock and
// leave in one Chrome trace file. An untraced run has a nil recorder, on
// which every call below is a no-op: workload code is the same traced or
// not.

// span opens a harness span. req ties the spans of one request together
// (it is exported as the span's "req" argument); track is the client's lane
// in the trace viewer.
func span(rec *obs.Recorder, name string, parent *obs.Span, req, track int) *obs.Span {
	return rec.Start(name, parent).OnTrack(track).SetFloat("req", float64(req))
}

// hotSpanEvery thins node_read_hot's harness spans to one read in so many:
// the run makes ~10^5 reads, all siblings, and Recorder.SpanTree is
// quadratic in siblings.
const hotSpanEvery = 64

// finishTrace writes the recorder's spans to bench/out/trace-<workload>.json
// and prints the self-time table. sampled holds span trees the servers sent
// back on ?debug=trace requests; they come from the requests' private
// recorders, so they appear in the table but not in the file.
func finishTrace(rec *obs.Recorder, workload string, sampled []obs.SpanNode) error {
	path := filepath.Join(outDir, "trace-"+workload+".json")
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	if err := rec.WriteChromeTrace(w); err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "wrote %s; self time by span:\n", path)
	printSelfTimes(os.Stderr, append(rec.SpanTree(), sampled...))
	return nil
}

// selfTime folds spans by name: calls, total time, and self time — a
// span's duration minus what its direct children cover.
type selfTime struct {
	name            string
	calls           int
	totalUs, selfUs float64
}

func selfTimes(forest []obs.SpanNode) []selfTime {
	byName := map[string]*selfTime{}
	var walk func(nodes []obs.SpanNode)
	walk = func(nodes []obs.SpanNode) {
		for _, n := range nodes {
			st := byName[n.Name]
			if st == nil {
				st = &selfTime{name: n.Name}
				byName[n.Name] = st
			}
			own := n.DurUs
			for _, c := range n.Children {
				own -= c.DurUs
			}
			st.calls++
			st.totalUs += n.DurUs
			st.selfUs += max(own, 0)
			walk(n.Children)
		}
	}
	walk(forest)
	out := make([]selfTime, 0, len(byName))
	for _, st := range byName {
		out = append(out, *st)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].selfUs != out[j].selfUs {
			return out[i].selfUs > out[j].selfUs
		}
		return out[i].name < out[j].name
	})
	return out
}

func printSelfTimes(w io.Writer, forest []obs.SpanNode) {
	fmt.Fprintf(w, "%-28s %9s %12s %12s\n", "span", "calls", "total_ms", "self_ms")
	for _, st := range selfTimes(forest) {
		fmt.Fprintf(w, "%-28s %9d %12.3f %12.3f\n", st.name, st.calls, st.totalUs/1000, st.selfUs/1000)
	}
}
