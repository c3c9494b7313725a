package timingd

import (
	"encoding/json"
	"fmt"
	"strings"
	"testing"
	"time"
)

// prepareBody builds a /cluster/prepare request for the fixture's resize
// target.
func prepareBody(t *testing.T, txn string, baseEpoch int64) string {
	t.Helper()
	cell, to := resizeTarget(t)
	return fmt.Sprintf(`{"txn":%q,"base_epoch":%d,"ops":[{"op":"resize","cell":%q,"to":%q}]}`,
		txn, baseEpoch, cell, to)
}

// TestPrepareCommitPublishes walks the happy barrier path over HTTP: the
// prepare must not advance the served epoch, the commit must, and the
// post-commit baseline must equal the commit report's After exactly.
func TestPrepareCommitPublishes(t *testing.T) {
	s, hs := newTestServer(t, nil)

	code, body := post(t, hs.URL, "/cluster/prepare", prepareBody(t, "tx1", 0))
	if code != 200 {
		t.Fatalf("prepare: %d %s", code, body)
	}
	var pr PrepareResponse
	if err := json.Unmarshal(body, &pr); err != nil {
		t.Fatal(err)
	}
	if pr.Txn != "tx1" || pr.Epoch != 1 {
		t.Fatalf("prepare response %+v", pr)
	}

	// Pending prepare: readers still see epoch 0 — nothing is published.
	_, b := get(t, hs.URL, "/slack")
	var pending SlackReport
	if err := json.Unmarshal(b, &pending); err != nil || pending.Epoch != 0 {
		t.Fatalf("slack moved during pending prepare: %s", b)
	}
	if got := s.pendingTxnID(); got != "tx1" {
		t.Fatalf("pending txn %q", got)
	}

	code, body = post(t, hs.URL, "/cluster/commit", `{"txn":"tx1"}`)
	if code != 200 {
		t.Fatalf("commit: %d %s", code, body)
	}
	var tr TxnResponse
	if err := json.Unmarshal(body, &tr); err != nil {
		t.Fatal(err)
	}
	if !tr.Done || tr.Epoch != 1 || s.Epoch() != 1 || tr.Report == nil || !tr.Report.Committed || tr.Report.Epoch != 1 {
		t.Fatalf("commit response %+v, server epoch %d", tr, s.Epoch())
	}

	_, b = get(t, hs.URL, "/slack")
	var sr SlackReport
	if err := json.Unmarshal(b, &sr); err != nil {
		t.Fatal(err)
	}
	if sr.Epoch != 1 {
		t.Fatalf("post-commit epoch %d", sr.Epoch)
	}
	after, _ := json.Marshal(tr.Report.After)
	now, _ := json.Marshal(sr.Scenarios)
	if string(after) != string(now) {
		t.Fatalf("post-commit baseline != commit After:\n%s\n%s", after, now)
	}
	before, _ := json.Marshal(tr.Report.Before)
	was, _ := json.Marshal(pending.Scenarios)
	if string(before) != string(was) {
		t.Fatalf("commit Before != the baseline served while prepared:\n%s\n%s", before, was)
	}

	// Committing the consumed txn again is a clean 409, and the writer is
	// free: a plain single-node ECO advances to epoch 2.
	if code, _ := post(t, hs.URL, "/cluster/commit", `{"txn":"tx1"}`); code != 409 {
		t.Fatalf("re-commit of consumed txn = %d", code)
	}
	cell, to := resizeTarget(t)
	code, body = post(t, hs.URL, "/eco",
		fmt.Sprintf(`{"ops":[{"op":"resize","cell":%q,"to":%q}]}`, cell, to))
	if code != 200 || s.Epoch() != 2 {
		t.Fatalf("eco after barrier: %d %s (epoch %d)", code, body, s.Epoch())
	}
}

// TestPrepareAbortRollsBack proves an aborted prepare leaves the server
// byte-identical to its pre-prepare state and free for later writes.
func TestPrepareAbortRollsBack(t *testing.T) {
	s, hs := newTestServer(t, nil)
	_, before := get(t, hs.URL, "/slack")

	if code, body := post(t, hs.URL, "/cluster/prepare", prepareBody(t, "tx2", 0)); code != 200 {
		t.Fatalf("prepare: %d %s", code, body)
	}
	code, body := post(t, hs.URL, "/cluster/abort", `{"txn":"tx2"}`)
	if code != 200 {
		t.Fatalf("abort: %d %s", code, body)
	}
	var tr TxnResponse
	json.Unmarshal(body, &tr)
	if !tr.Done || tr.Epoch != 0 || s.Epoch() != 0 {
		t.Fatalf("abort response %+v", tr)
	}
	// Aborting again is idempotent (Done=false), never an error.
	code, body = post(t, hs.URL, "/cluster/abort", `{"txn":"tx2"}`)
	json.Unmarshal(body, &tr)
	if code != 200 || tr.Done {
		t.Fatalf("second abort: %d %+v", code, tr)
	}

	_, now := get(t, hs.URL, "/slack")
	if string(before) != string(now) {
		t.Fatalf("abort did not restore baseline:\n%s\n%s", before, now)
	}
	if s.degraded.Load() {
		t.Fatal("abort degraded the server")
	}
}

// TestPreparedStructuralBatches drives a buffer-only and a mixed
// resize+buffer batch through every way a prepared transaction can end.
// Whatever happened, the shard must afterwards serve — through one more
// resize ECO, which re-times incrementally on whatever analyzers the
// outcome left — exactly what a server that never prepared anything serves
// after the same commits.
func TestPreparedStructuralBatches(t *testing.T) {
	u, uTo := resizeTarget(t)
	v, vTo := findResize(t, u)
	net, loads := bufferTarget(t)
	buffer := Op{Kind: "buffer", Net: net, Loads: loads, To: "BUF_X2_SVT"}
	follow := opsJSON(Op{Kind: "resize", Cell: v, To: vTo})

	for _, batch := range []struct {
		name string
		ops  []Op
	}{
		{"buffer", []Op{buffer}},
		{"mixed", []Op{{Kind: "resize", Cell: u, To: uTo}, buffer}},
	} {
		for _, outcome := range []string{"abort", "expire", "commit"} {
			t.Run(batch.name+"/"+outcome, func(t *testing.T) {
				s, hs := newTestServer(t, func(c *Config) {
					if outcome == "expire" {
						c.PrepareTimeout = 100 * time.Millisecond
					}
				})
				_, never := newTestServer(t, nil)
				body, _ := json.Marshal(PrepareRequest{Txn: "tx", Ops: batch.ops})
				if code, b := post(t, hs.URL, "/cluster/prepare", string(body)); code != 200 {
					t.Fatalf("prepare: %d %s", code, b)
				}
				switch outcome {
				case "abort":
					if code, b := post(t, hs.URL, "/cluster/abort", `{"txn":"tx"}`); code != 200 {
						t.Fatalf("abort: %d %s", code, b)
					}
				case "expire":
					for deadline := time.Now().Add(5 * time.Second); s.pendingTxnID() != ""; {
						if time.Now().After(deadline) {
							t.Fatal("prepare never expired")
						}
						time.Sleep(10 * time.Millisecond)
					}
				case "commit":
					if code, b := post(t, hs.URL, "/cluster/commit", `{"txn":"tx"}`); code != 200 {
						t.Fatalf("commit: %d %s", code, b)
					}
					if code, b := post(t, never.URL, "/eco", opsJSON(batch.ops...)); code != 200 {
						t.Fatalf("reference eco: %d %s", code, b)
					}
				}
				_, got := post(t, hs.URL, "/eco", follow)
				_, want := post(t, never.URL, "/eco", follow)
				if string(got) != string(want) {
					t.Errorf("follow-up /eco:\n%s\nnever-prepared server:\n%s", got, want)
				}
				_, got = get(t, hs.URL, "/slack")
				_, want = get(t, never.URL, "/slack")
				if string(got) != string(want) {
					t.Errorf("/slack after the follow-up ECO:\n%s\nnever-prepared server:\n%s", got, want)
				}
				if s.degraded.Load() {
					t.Error("server degraded")
				}
			})
		}
	}
}

// TestPrepareEpochMismatch: a stale coordinator (wrong base epoch) gets a
// clean 409 and the shard state is untouched.
func TestPrepareEpochMismatch(t *testing.T) {
	s, hs := newTestServer(t, nil)
	code, body := post(t, hs.URL, "/cluster/prepare", prepareBody(t, "tx3", 7))
	if code != 409 {
		t.Fatalf("stale prepare = %d %s", code, body)
	}
	if s.Epoch() != 0 || s.pendingTxnID() != "" {
		t.Fatalf("stale prepare left state: epoch %d pending %q", s.Epoch(), s.pendingTxnID())
	}
}

// TestConflictingLoadsRefused: a buffer op that names a load an earlier op
// of the same batch moved off its net is refused by resolve on every writer
// route — a 400, not apply's failure as a 500 — and leaves the server
// untouched: same /slack, epoch 0, no prepared transaction, writer free.
func TestConflictingLoadsRefused(t *testing.T) {
	s, hs := newTestServer(t, nil)
	_, before := get(t, hs.URL, "/slack")
	net, loads := bufferTarget(t)
	buffer := Op{Kind: "buffer", Net: net, Loads: loads, To: "BUF_X2_SVT"}
	prepare, _ := json.Marshal(PrepareRequest{Txn: "tx", Ops: []Op{buffer, buffer}})
	for _, req := range []struct{ path, body string }{
		{"/whatif", opsJSON(buffer, buffer)},
		{"/eco", opsJSON(buffer, buffer)},
		{"/cluster/prepare", string(prepare)},
	} {
		code, body := post(t, hs.URL, req.path, req.body)
		if code != 400 || !strings.Contains(string(body), "moved off net") {
			t.Errorf("%s with a self-conflicting batch = %d %s, want 400", req.path, code, body)
		}
	}
	if _, now := get(t, hs.URL, "/slack"); string(now) != string(before) {
		t.Fatalf("refused batches moved /slack:\n%s\n%s", before, now)
	}
	if s.Epoch() != 0 || s.pendingTxnID() != "" || s.degraded.Load() {
		t.Fatalf("refused batches left epoch %d, pending %q, degraded %v", s.Epoch(), s.pendingTxnID(), s.degraded.Load())
	}
	if code, body := post(t, hs.URL, "/eco", opsJSON(buffer)); code != 200 || s.Epoch() != 1 {
		t.Fatalf("eco after the refused batches: %d %s (epoch %d)", code, body, s.Epoch())
	}
}

// TestPrepareExpires: a coordinator that dies after prepare cannot wedge
// the worker — the expiry timer aborts, releases the writer, and a later
// single-node commit succeeds at the expected epoch.
func TestPrepareExpires(t *testing.T) {
	s, hs := newTestServer(t, func(c *Config) { c.PrepareTimeout = 100 * time.Millisecond })
	_, before := get(t, hs.URL, "/slack")

	if code, body := post(t, hs.URL, "/cluster/prepare", prepareBody(t, "tx4", 0)); code != 200 {
		t.Fatalf("prepare: %d %s", code, body)
	}
	deadline := time.Now().Add(5 * time.Second)
	for s.pendingTxnID() != "" {
		if time.Now().After(deadline) {
			t.Fatal("prepare never expired")
		}
		time.Sleep(10 * time.Millisecond)
	}
	// Committing the expired txn must refuse — the shard rolled back.
	if code, _ := post(t, hs.URL, "/cluster/commit", `{"txn":"tx4"}`); code != 409 {
		t.Fatalf("commit of expired txn = %d", code)
	}
	_, now := get(t, hs.URL, "/slack")
	if string(before) != string(now) {
		t.Fatal("expiry did not restore baseline")
	}

	cell, to := resizeTarget(t)
	code, body := post(t, hs.URL, "/eco",
		fmt.Sprintf(`{"ops":[{"op":"resize","cell":%q,"to":%q}]}`, cell, to))
	if code != 200 || s.Epoch() != 1 {
		t.Fatalf("eco after expiry: %d %s (epoch %d)", code, body, s.Epoch())
	}
}

// TestScenarioFilter: a worker restricted to one scenario serves only it,
// reports full-recipe indices, and rejects unknown names.
func TestScenarioFilter(t *testing.T) {
	recipe, _, _ := fixture(t)
	holdName := recipe.Scenarios[1].Name
	s, hs := newTestServer(t, func(c *Config) {
		c.ScenarioFilter = []string{holdName}
		c.Role = "worker"
	})
	set := s.ScenarioSet()
	if len(set) != 1 || set[0].Index != 1 || set[0].Name != holdName {
		t.Fatalf("scenario set %+v", set)
	}
	_, b := get(t, hs.URL, "/slack")
	var sr SlackReport
	if err := json.Unmarshal(b, &sr); err != nil {
		t.Fatal(err)
	}
	if len(sr.Scenarios) != 1 || sr.Scenarios[0].Scenario != holdName {
		t.Fatalf("filtered slack %+v", sr)
	}
	_, b = get(t, hs.URL, "/cluster/info")
	var ci ClusterInfo
	if err := json.Unmarshal(b, &ci); err != nil {
		t.Fatal(err)
	}
	if ci.Role != "worker" || len(ci.Scenarios) != 1 || ci.Scenarios[0].Index != 1 {
		t.Fatalf("cluster info %+v", ci)
	}

	// An unknown name is refused, and with two the first in filter order is
	// the one reported, on every run.
	cfg := testConfig(t)
	for _, tc := range []struct {
		filter []string
		want   string
	}{
		{[]string{"no_such_scenario"}, `unknown scenario "no_such_scenario"`},
		{[]string{holdName, "zz_unknown", "aa_unknown"}, `unknown scenario "zz_unknown"`},
	} {
		cfg.ScenarioFilter = tc.filter
		for range 8 {
			if _, err := NewServer(cfg); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("filter %q: error %v, want %s", tc.filter, err, tc.want)
			}
		}
	}
}
