// Package timingd is the resident timing-signoff service: it loads the
// design, libraries and MCMM scenario set once, keeps the levelized timing
// graphs of every scenario resident, and answers interactive queries over
// HTTP/JSON — the daemon counterpart of the batch closure flow. A signoff
// ECO loop asks the same questions over and over ("what is WNS now", "show
// me the k worst paths", "what if I upsize this cell"); re-reading the
// design and re-running full STA for each question is exactly the
// turnaround-time trap the paper's Figure 1 loop falls into, so the daemon
// amortizes the load once and serves every subsequent question from warm
// graphs, with incremental re-timing for the what-ifs.
//
// Concurrency model (see DESIGN.md §10): the server keeps one session,
// edited in place by a single writer. Readers render under the session's
// read lock; the writer takes the write lock only while it edits and
// re-times — a what-if evaluates and rolls back, a commit applies and
// publishes the next epoch — so between writer steps the session is
// exactly the published epoch. A cached answer is served without the lock
// and never waits on the writer. Every response carries the epoch it was
// computed at, which is what makes concurrent runs replayable byte-for-byte.
package timingd

import (
	"newgame/internal/obs"
	"newgame/internal/pack"
	"newgame/internal/serve"
	"newgame/internal/triage"
	"newgame/internal/units"
)

// Op is one netlist edit in a what-if or ECO request — the type the epoch
// log records.
type Op = pack.EpochOp

// ScenarioSlack is one scenario's merged timing numbers.
type ScenarioSlack struct {
	Scenario string   `json:"scenario"`
	SetupWNS units.Ps `json:"setup_wns"`
	SetupTNS units.Ps `json:"setup_tns"`
	HoldWNS  units.Ps `json:"hold_wns"`
	HoldTNS  units.Ps `json:"hold_tns"`
	// SetupViolations/HoldViolations count violating endpoints.
	SetupViolations int `json:"setup_violations"`
	HoldViolations  int `json:"hold_violations"`
}

// SlackReport answers GET /slack.
type SlackReport struct {
	Epoch     int64           `json:"epoch"`
	Scenarios []ScenarioSlack `json:"scenarios"`
}

// EndpointReport is one endpoint check in GET /endpoints.
type EndpointReport struct {
	Endpoint string   `json:"endpoint"`
	Kind     string   `json:"kind"`
	Slack    units.Ps `json:"slack"`
	Arrival  units.Ps `json:"arrival"`
	Required units.Ps `json:"required"`
	CRPR     units.Ps `json:"crpr"`
}

// EndpointsReport answers GET /endpoints.
type EndpointsReport struct {
	Epoch     int64            `json:"epoch"`
	Scenario  string           `json:"scenario"`
	Endpoints []EndpointReport `json:"endpoints"`
}

// PathReport is one worst path in GET /paths, re-timed path-based.
type PathReport struct {
	Endpoint  string   `json:"endpoint"`
	Depth     int      `json:"depth"`
	GBASlack  units.Ps `json:"gba_slack"`
	PBASlack  units.Ps `json:"pba_slack"`
	Pessimism units.Ps `json:"pessimism"`
	CRPR      units.Ps `json:"crpr"`
	Route     string   `json:"route"`
}

// PathsReport answers GET /paths.
type PathsReport struct {
	Epoch    int64        `json:"epoch"`
	Scenario string       `json:"scenario"`
	Paths    []PathReport `json:"paths"`
}

// WhatIfReport answers POST /whatif and POST /eco: merged slack before and
// after the ops. For /whatif the edit is evaluated and rolled back (Epoch
// unchanged); for /eco it is committed (Epoch advances and After describes
// the new baseline).
type WhatIfReport struct {
	Epoch  int64           `json:"epoch"`
	Before []ScenarioSlack `json:"before"`
	After  []ScenarioSlack `json:"after"`
	// Committed is true for /eco responses.
	Committed bool `json:"committed"`
}

// Health answers GET /healthz.
type Health struct {
	Status    string `json:"status"`
	Epoch     int64  `json:"epoch"`
	Scenarios int    `json:"scenarios"`
	Cells     int    `json:"cells"`
	// Role tags the instance's cluster role: "single" (standalone),
	// "worker" (scenario shard behind a coordinator).
	Role string `json:"role,omitempty"`
	// Degraded mirrors Status == "degraded" as a machine-checkable bool.
	Degraded bool `json:"degraded"`
	// UptimeSec is seconds since the server came up.
	UptimeSec float64 `json:"uptime_sec"`
	// Snapshot reports persistence provenance; omitted when the server
	// runs without snapshot support.
	Snapshot *SnapshotHealth `json:"snapshot,omitempty"`
	// Flight-recorder ring occupancy and capacity (requests and commits
	// currently held for /debug post-hoc diagnosis).
	FlightRequests    int `json:"flight_requests"`
	FlightRequestsCap int `json:"flight_requests_cap"`
	FlightCommits     int `json:"flight_commits"`
	FlightCommitsCap  int `json:"flight_commits_cap"`
}

// SnapshotHealth is the snapshot provenance block inside /healthz: where
// the state came from and whether the crash-recovery log is healthy.
type SnapshotHealth struct {
	// Dir is the snapshot directory packs and the epoch log live in.
	Dir string `json:"dir,omitempty"`
	// RestoredFrom is the pack this process booted from ("" = cold boot).
	RestoredFrom string `json:"restored_from,omitempty"`
	// SnapshotEpoch is the epoch the restored pack carried.
	SnapshotEpoch int64 `json:"snapshot_epoch"`
	// LogReplayed counts epoch-log records replayed at boot.
	LogReplayed int `json:"log_replayed"`
	// LogAppended counts commits appended to the log by this process.
	LogAppended int64 `json:"log_appended"`
	// LogError is the last epoch-log append failure ("" = healthy). A
	// non-empty value means commits since then are NOT crash-recoverable.
	LogError string `json:"log_error,omitempty"`
}

// SaveReport answers POST /admin/save.
type SaveReport struct {
	Path  string `json:"path"`
	Epoch int64  `json:"epoch"`
	Bytes int    `json:"bytes"`
}

// TraceReport is the spine's trace envelope, under the name this package's
// clients have always used.
type TraceReport = serve.TraceReport

// DebugEpochsReport answers GET /debug/epochs: the last commits with
// their per-phase durations, newest first.
type DebugEpochsReport struct {
	Commits []obs.CommitRecord `json:"commits"`
	Dropped uint64             `json:"dropped"`
}

// TriageReport answers GET /triage: the clustered root-cause report over
// the scenarios this server serves, tagged with the epoch it was rendered
// at. A cluster coordinator answers the same shape, merged from shard
// extracts — byte-identical to a single node serving the full recipe.
type TriageReport struct {
	Epoch int64 `json:"epoch"`
	triage.Report
}

// TriageExtract answers GET /triage/extract?scenario=: one scenario's
// relation-graph contribution, the scatter unit a cluster coordinator
// gathers from the owning shards before merging.
type TriageExtract struct {
	Epoch int64 `json:"epoch"`
	triage.ScenarioExtract
}

// ScenarioRef names one scenario this server serves together with its
// index in the FULL recipe order — the canonical ordering a cluster
// coordinator merges shard answers in. For an unfiltered server the
// indices are simply 0..N-1.
type ScenarioRef struct {
	Index int    `json:"index"`
	Name  string `json:"name"`
}

// PrepareRequest is phase one of the cluster epoch barrier (POST
// /cluster/prepare): evaluate Ops as a what-if and hold the writer pending
// the coordinator's decision. BaseEpoch must match the shard's
// current epoch — a stale coordinator gets a clean 409 instead of a
// diverging commit.
type PrepareRequest struct {
	Txn       string `json:"txn"`
	BaseEpoch int64  `json:"base_epoch"`
	Ops       []Op   `json:"ops"`
}

// PrepareResponse acks a prepare: the epoch this shard will move to on
// commit, plus the full before/after report (the coordinator merges the
// shards' reports into the client-facing answer).
type PrepareResponse struct {
	Txn    string        `json:"txn"`
	Epoch  int64         `json:"epoch"`
	Report *WhatIfReport `json:"report"`
}

// TxnRequest drives phase two (POST /cluster/commit or /cluster/abort).
type TxnRequest struct {
	Txn string `json:"txn"`
}

// TxnResponse answers commit/abort: the shard's epoch after the operation
// and whether the named transaction was actually consumed (an abort of an
// already-expired transaction answers Done=false, idempotently).
type TxnResponse struct {
	Txn   string `json:"txn"`
	Epoch int64  `json:"epoch"`
	Done  bool   `json:"done"`
}

// ClusterInfo answers GET /cluster/info: what a coordinator needs to place
// this shard in the ring.
type ClusterInfo struct {
	Role       string        `json:"role"`
	Epoch      int64         `json:"epoch"`
	Degraded   bool          `json:"degraded"`
	Scenarios  []ScenarioRef `json:"scenarios"`
	PendingTxn string        `json:"pending_txn,omitempty"`
}
