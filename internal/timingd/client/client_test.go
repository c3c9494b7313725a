package client

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"newgame/internal/circuits"
	"newgame/internal/core"
	"newgame/internal/liberty"
	"newgame/internal/parasitics"
	"newgame/internal/timingd"
)

// TestClientRoundTrip drives every client method against a live server:
// the wire types are shared with the server package, so this is the
// lossless-round-trip check for the whole API surface, plus the typed
// error mapping for validation failures.
func TestClientRoundTrip(t *testing.T) {
	stack := parasitics.Stack16()
	recipe := core.OldGoalPosts(liberty.Node16, stack)
	d := circuits.Block(recipe.Scenarios[0].Lib, circuits.BlockSpec{
		Name: "cl", Inputs: 10, Outputs: 10, FFs: 24, Gates: 260,
		MaxDepth: 8, Seed: 11, ClockBufferLevels: 2,
		VtMix: [3]float64{0, 0.5, 0.5},
	})
	srv, err := timingd.NewServer(timingd.Config{
		Design: d, Recipe: recipe, Stack: stack, BasePeriod: 560, Seed: 11,
		QueryWorkers: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv)
	defer hs.Close()
	defer srv.Close()

	ctx := context.Background()
	cl := New(hs.URL)

	h, err := cl.Health(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" || h.Epoch != 0 || h.Scenarios != 2 {
		t.Fatalf("health %+v", h)
	}

	slack, err := cl.Slack(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(slack.Scenarios) != 2 {
		t.Fatalf("slack %+v", slack)
	}

	eps, err := cl.Endpoints(ctx, slack.Scenarios[1].Scenario, "hold", 4)
	if err != nil {
		t.Fatal(err)
	}
	if eps.Scenario != slack.Scenarios[1].Scenario || len(eps.Endpoints) != 4 {
		t.Fatalf("endpoints %+v", eps)
	}

	paths, err := cl.Paths(ctx, "", "setup", 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(paths.Paths) != 2 {
		t.Fatalf("paths %+v", paths)
	}

	// Find a resize op and run it through WhatIf then Commit.
	var op timingd.Op
	lib := recipe.Scenarios[0].Lib
	for _, c := range d.Cells {
		m := lib.Cell(c.TypeName)
		if m == nil || m.IsSequential() || !strings.HasSuffix(c.TypeName, "_SVT") {
			continue
		}
		v := strings.TrimSuffix(c.TypeName, "_SVT") + "_LVT"
		if lib.Cell(v) != nil {
			op = timingd.Op{Kind: "resize", Cell: c.Name, To: v}
			break
		}
	}
	if op.Cell == "" {
		t.Fatal("no resize target")
	}
	wif, err := cl.WhatIf(ctx, []timingd.Op{op})
	if err != nil {
		t.Fatal(err)
	}
	if wif.Committed || wif.Epoch != 0 || len(wif.After) != 2 {
		t.Fatalf("whatif %+v", wif)
	}
	eco, err := cl.Commit(ctx, []timingd.Op{op})
	if err != nil {
		t.Fatal(err)
	}
	if !eco.Committed || eco.Epoch != 1 {
		t.Fatalf("eco %+v", eco)
	}

	// Validation failures surface as typed 400s, not backpressure.
	_, err = cl.WhatIf(ctx, []timingd.Op{{Kind: "resize", Cell: "no_such_cell", To: op.To}})
	se, ok := err.(*StatusError)
	if !ok || se.Code != 400 {
		t.Fatalf("unknown-cell error = %v", err)
	}
	if isBackpressure(err) {
		t.Fatal("validation error misclassified as backpressure")
	}
}

// Do reads an answer whether or not the peer says how long it is — the
// spine does, a proxy in between may re-chunk — and a body shorter than
// announced is an error, not a truncated decode.
func TestDoReadsAnnouncedAndChunkedBodies(t *testing.T) {
	want := strings.Repeat("x", 100<<10)
	body := fmt.Sprintf(`{"error":%q}`, want)
	mux := http.NewServeMux()
	mux.HandleFunc("/announced", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Length", fmt.Sprint(len(body)))
		w.Write([]byte(body))
	})
	mux.HandleFunc("/chunked", func(w http.ResponseWriter, _ *http.Request) {
		w.(http.Flusher).Flush()
		w.Write([]byte(body))
	})
	mux.HandleFunc("/short", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Length", fmt.Sprint(len(body)))
		w.Write([]byte(body[:len(body)/2]))
	})
	hs := httptest.NewServer(mux)
	defer hs.Close()
	cl := New(hs.URL)
	for _, path := range []string{"/announced", "/chunked"} {
		var out struct {
			Error string `json:"error"`
		}
		if err := cl.Do(context.Background(), http.MethodGet, path, nil, &out); err != nil || out.Error != want {
			t.Errorf("%s: err %v, %d of %d bytes decoded", path, err, len(out.Error), len(want))
		}
	}
	if err := cl.Do(context.Background(), http.MethodGet, "/short", nil, nil); err == nil {
		t.Error("/short: a body cut off before its announced length read as a success")
	}
}
