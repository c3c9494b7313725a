package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"newgame/internal/parasitics"
	"newgame/internal/timingd"
)

// TestChaosKillBetweenPrepareAndCommit is the barrier's defining
// failure drill: a worker dies after acking prepare but before commit.
// The verify phase must catch it, so NO shard advances its epoch — the
// survivor gets an explicit abort, the corpse's own expiry timer rolls
// it back — the coordinator degrades, further writes refuse, and after
// the worker re-registers the retried ECO commits at the expected epoch
// on every shard.
func TestChaosKillBetweenPrepareAndCommit(t *testing.T) {
	op := resizeOp(t)

	srvA, hsA := startWorker(t, nil, nil)
	// Worker B gets a short prepare-expiry so the test doesn't wait the
	// default 15s for its post-mortem rollback, and its own httptest
	// wrapper we can kill and resurrect.
	srvB, err := timingdNewForChaos(t)
	if err != nil {
		t.Fatal(err)
	}
	hsB := httptest.NewServer(srvB)
	killed := false

	c, chs := startCoordinator(t, func(cfg *Config) {
		cfg.Hooks.BetweenPrepareAndCommit = func(txn string) {
			if !killed {
				killed = true
				hsB.CloseClientConnections()
				hsB.Close()
			}
		}
	})
	registerWorker(t, chs.URL, "wa", srvA, hsA.URL)
	registerWorker(t, chs.URL, "wb", srvB, hsB.URL)

	code, body := postJSONT(t, chs.URL+"/eco", struct {
		Ops []timingd.Op `json:"ops"`
	}{[]timingd.Op{op}})
	if code != 503 {
		t.Fatalf("eco through a mid-barrier death = %d %s, want 503", code, body)
	}

	// Invariant: no shard advanced. A's abort landed synchronously; B's
	// prepare expires on its own timer.
	if srvA.Epoch() != 0 {
		t.Fatalf("survivor advanced to epoch %d", srvA.Epoch())
	}
	deadline := time.Now().Add(5 * time.Second)
	for srvB.Epoch() == 0 {
		info, err := timingdInfo(srvB)
		if err != nil {
			t.Fatal(err)
		}
		if info.PendingTxn == "" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("worker B never expired its prepared txn")
		}
		time.Sleep(20 * time.Millisecond)
	}
	if srvB.Epoch() != 0 {
		t.Fatalf("dead worker advanced to epoch %d", srvB.Epoch())
	}

	// Coordinator is degraded; writes refuse; the flight recorder shows
	// the aborted barrier.
	codeH, bodyH := getT(t, chs.URL+"/healthz")
	var h ClusterHealth
	if codeH != 200 || json.Unmarshal(bodyH, &h) != nil {
		t.Fatal("healthz")
	}
	if !h.Degraded {
		t.Fatalf("coordinator not degraded after mid-barrier death: %+v", h)
	}
	if code, _ := postJSONT(t, chs.URL+"/eco", struct {
		Ops []timingd.Op `json:"ops"`
	}{[]timingd.Op{op}}); code != 503 {
		t.Fatalf("write against degraded cluster = %d", code)
	}
	_, bodyD := getT(t, chs.URL+"/debug/barriers")
	var dbg DebugBarriersReport
	json.Unmarshal(bodyD, &dbg)
	if len(dbg.Barriers) == 0 || dbg.Barriers[0].Outcome != "aborted" {
		t.Fatalf("barrier record %+v", dbg.Barriers)
	}

	// Resurrect worker B (same server state, new listener), re-register,
	// and retry: the ECO must now commit at epoch 1 everywhere.
	hsB2 := httptest.NewServer(srvB)
	t.Cleanup(func() { hsB2.Close(); srvB.Close() })
	registerWorker(t, chs.URL, "wb", srvB, hsB2.URL)

	code, body = postJSONT(t, chs.URL+"/eco", struct {
		Ops []timingd.Op `json:"ops"`
	}{[]timingd.Op{op}})
	if code != 200 {
		t.Fatalf("retried eco = %d %s", code, body)
	}
	var rep timingd.WhatIfReport
	json.Unmarshal(body, &rep)
	if !rep.Committed || rep.Epoch != 1 {
		t.Fatalf("retried eco report %+v", rep)
	}
	if c.Epoch() != 1 || srvA.Epoch() != 1 || srvB.Epoch() != 1 {
		t.Fatalf("epochs after retry: coord %d, A %d, B %d", c.Epoch(), srvA.Epoch(), srvB.Epoch())
	}
}

// TestChaosCommitFailsOnOneWorker drives the barrier's residual window: every
// shard prepared, then one worker's commit fails. The commit stands — 200,
// committed, epoch 1 — and the reply names only the scenarios of the worker
// that confirmed it. The failed worker is marked dead; once it re-registers,
// catch-up makes it serve what a never-failed worker serves, and the next
// ECO commits on both.
func TestChaosCommitFailsOnOneWorker(t *testing.T) {
	f := testFixture(t)
	op := resizeOp(t)
	c, chs := startCoordinator(t, nil)
	srvA, hsA := startWorker(t, []string{f.names[0]}, nil)
	var armed atomic.Bool
	armed.Store(true)
	srvB, hsB := startWorker(t, []string{f.names[1]}, func(cfg *timingd.Config) {
		cfg.Hooks = &timingd.Hooks{Fire: func(site timingd.FaultSite) error {
			if site == timingd.SiteCommitSwap && armed.Swap(false) {
				return errors.New("injected commit failure")
			}
			return nil
		}}
	})
	registerWorker(t, chs.URL, "wa", srvA, hsA.URL)
	registerWorker(t, chs.URL, "wb", srvB, hsB.URL)

	code, body := postJSONT(t, chs.URL+"/eco", timingd.OpsBody{Ops: []timingd.Op{op}})
	if code != 200 {
		t.Fatalf("eco with a failing commit = %d %s, want 200", code, body)
	}
	var rep timingd.WhatIfReport
	if err := json.Unmarshal(body, &rep); err != nil {
		t.Fatal(err)
	}
	if !rep.Committed || rep.Epoch != 1 || len(rep.Before) != 1 || len(rep.After) != 1 ||
		rep.Before[0].Scenario != f.names[0] || rep.After[0].Scenario != f.names[0] {
		t.Fatalf("committed-degraded reply %+v, want only scenario %q", rep, f.names[0])
	}
	if c.Epoch() != 1 || srvA.Epoch() != 1 || srvB.Epoch() != 0 {
		t.Fatalf("epochs: coord %d, A %d, B %d", c.Epoch(), srvA.Epoch(), srvB.Epoch())
	}
	_, bodyH := getT(t, chs.URL+"/healthz")
	var h ClusterHealth
	if err := json.Unmarshal(bodyH, &h); err != nil {
		t.Fatal(err)
	}
	for _, m := range h.Members {
		if want := map[string]string{"wa": "alive", "wb": "dead"}[m.ID]; m.State != want {
			t.Fatalf("worker %s is %s, want %s", m.ID, m.State, want)
		}
	}
	_, bodyD := getT(t, chs.URL+"/debug/barriers")
	var dbg DebugBarriersReport
	json.Unmarshal(bodyD, &dbg)
	if len(dbg.Barriers) == 0 || dbg.Barriers[0].Outcome != "committed-degraded" {
		t.Fatalf("barrier record %+v", dbg.Barriers)
	}

	// Re-registration replays the barrier onto B.
	if resp := registerWorker(t, chs.URL, "wb", srvB, hsB.URL); resp.Replayed != 1 || srvB.Epoch() != 1 {
		t.Fatalf("re-register %+v, worker B epoch %d", resp, srvB.Epoch())
	}
	_, never := startWorker(t, []string{f.names[1]}, nil)
	if _, err := timingdCommit(context.Background(), never.URL, []timingd.Op{op}); err != nil {
		t.Fatal(err)
	}
	_, got := getT(t, hsB.URL+"/slack")
	_, want := getT(t, never.URL+"/slack")
	if !bytes.Equal(got, want) {
		t.Fatalf("caught-up worker /slack:\n%s\nnever-failed worker:\n%s", got, want)
	}

	code, body = postJSONT(t, chs.URL+"/eco", timingd.OpsBody{Ops: []timingd.Op{op}})
	if code != 200 || c.Epoch() != 2 || srvA.Epoch() != 2 || srvB.Epoch() != 2 {
		t.Fatalf("next eco = %d %s (epochs: coord %d, A %d, B %d)", code, body, c.Epoch(), srvA.Epoch(), srvB.Epoch())
	}
	if err := json.Unmarshal(body, &rep); err != nil || len(rep.After) != len(f.names) {
		t.Fatalf("next eco reply %s", body)
	}
}

// timingdNewForChaos boots the chaos victim with a short prepare expiry.
func timingdNewForChaos(t *testing.T) (*timingd.Server, error) {
	f := testFixture(t)
	return timingd.NewServer(timingd.Config{
		Design: f.design, Recipe: f.recipe, Stack: parasitics.Stack16(), BasePeriod: 560,
		Seed: 13, QueryWorkers: 2, Role: "worker",
		PrepareTimeout: 250 * time.Millisecond,
	})
}

// timingdInfo asks a server for its cluster info in-process (its HTTP
// listener may be dead — that is the point of the chaos test).
func timingdInfo(s *timingd.Server) (timingd.ClusterInfo, error) {
	rec := httptest.NewRecorder()
	req := httptest.NewRequest("GET", "/cluster/info", nil).WithContext(context.Background())
	s.ServeHTTP(rec, req)
	var info timingd.ClusterInfo
	err := json.Unmarshal(rec.Body.Bytes(), &info)
	return info, err
}
