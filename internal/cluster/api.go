// Package cluster scales timingd signoff horizontally: a coordinator
// consistent-hashes the MCMM scenario set across worker shards (each a
// full timingd booted from the same snapshot pack, restricted to a
// scenario subset via ScenarioFilter) and serves the single-node HTTP
// surface unchanged on top. Reads scatter-gather across shards and merge
// with the exact min/sum semantics the mcmm-merge-min-sum law pins;
// writes run a two-phase epoch barrier so every shard commits epoch N or
// none does. A dead worker degrades the answer (its scenarios go stale,
// reads keep serving the rest, writes refuse with 503) instead of
// wedging the loop — the paper's "capacity via partitioning" move
// (§2.3) applied to the signoff daemon itself.
package cluster

import (
	"newgame/internal/timingd"
	"newgame/internal/units"
)

// RegisterRequest announces a worker to the coordinator (POST
// /cluster/register). Scenarios carries the shard's subset with indices
// into the full recipe — the coordinator rejects any ref that does not
// match its canonical scenario list, which is what enforces "all shards
// booted from the same pack".
type RegisterRequest struct {
	ID        string                `json:"id"`
	URL       string                `json:"url"`
	Epoch     int64                 `json:"epoch"`
	Scenarios []timingd.ScenarioRef `json:"scenarios"`
}

// RegisterResponse acks a registration after any catch-up replay: Epoch
// is the cluster epoch the worker is now synced to, Replayed the number
// of barrier records replayed onto it to get there.
type RegisterResponse struct {
	Epoch    int64 `json:"epoch"`
	Replayed int   `json:"replayed"`
}

// HeartbeatRequest is the worker's periodic liveness beat.
type HeartbeatRequest struct {
	ID    string `json:"id"`
	Epoch int64  `json:"epoch"`
}

// HeartbeatResponse tells the worker the cluster epoch; Register=true
// means the coordinator does not recognize (or cannot revive) the worker
// and it must re-register.
type HeartbeatResponse struct {
	Epoch    int64 `json:"epoch"`
	Register bool  `json:"register"`
}

// MemberHealth is one worker's entry in the coordinator's /healthz.
type MemberHealth struct {
	ID        string   `json:"id"`
	URL       string   `json:"url"`
	State     string   `json:"state"` // "syncing" | "alive" | "dead"
	Epoch     int64    `json:"epoch"`
	Scenarios []string `json:"scenarios"`
}

// ClusterHealth answers the coordinator's GET /healthz.
type ClusterHealth struct {
	Status    string `json:"status"` // "ok" | "degraded"
	Role      string `json:"role"`   // always "coordinator"
	Epoch     int64  `json:"epoch"`
	Scenarios int    `json:"scenarios"`
	Degraded  bool   `json:"degraded"`
	// Stale names scenarios currently served by no live worker.
	Stale     []string       `json:"stale,omitempty"`
	Members   []MemberHealth `json:"members"`
	UptimeSec float64        `json:"uptime_sec"`
}

// MergedSlack collapses the per-scenario numbers the way closure drives
// them: WNS is the min across scenarios clamped at zero, TNS the sum
// (mcmm-merge-min-sum law), and Dominant names the scenario that set
// each WNS ("" when nothing violates).
type MergedSlack struct {
	SetupWNS      units.Ps `json:"setup_wns"`
	SetupTNS      units.Ps `json:"setup_tns"`
	HoldWNS       units.Ps `json:"hold_wns"`
	HoldTNS       units.Ps `json:"hold_tns"`
	SetupDominant string   `json:"setup_dominant,omitempty"`
	HoldDominant  string   `json:"hold_dominant,omitempty"`
}

// SlackReport answers the coordinator's GET /slack: a strict JSON
// superset of the single-node timingd.SlackReport (same epoch and
// scenarios fields, canonical recipe order) plus the cross-scenario
// merge and degraded-mode markers, so existing clients keep working
// unchanged against a coordinator.
type SlackReport struct {
	Epoch     int64                   `json:"epoch"`
	Scenarios []timingd.ScenarioSlack `json:"scenarios"`
	Merged    MergedSlack             `json:"merged"`
	// Degraded is true when at least one scenario could not be fetched
	// from any live shard; those scenarios are absent from Scenarios and
	// named in Stale.
	Degraded bool     `json:"degraded,omitempty"`
	Stale    []string `json:"stale,omitempty"`
}

// BarrierRecord is one epoch barrier's flight-recorder entry, served
// newest-first at GET /debug/barriers.
type BarrierRecord struct {
	Txn       string   `json:"txn"`
	Epoch     int64    `json:"epoch"`
	Members   []string `json:"members"`
	PrepareMs float64  `json:"prepare_ms"`
	VerifyMs  float64  `json:"verify_ms"`
	CommitMs  float64  `json:"commit_ms"`
	TotalMs   float64  `json:"total_ms"`
	Outcome   string   `json:"outcome"` // "committed" | "aborted" | "refused"
	Err       string   `json:"err,omitempty"`
}

// DebugBarriersReport answers GET /debug/barriers.
type DebugBarriersReport struct {
	Barriers []BarrierRecord `json:"barriers"`
	Dropped  uint64          `json:"dropped"`
}
