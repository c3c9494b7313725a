package cluster

import (
	"cmp"
	"context"
	"net/http"

	"newgame/internal/timingd"
	"newgame/internal/triage"
)

// handleTriage serves GET /triage from the coordinator: every scenario's
// raw relation-graph extract is gathered from a shard serving it (a leg
// asks for its scenarios' extracts in turn), then the coordinator runs the
// same pure merge (triage.BuildReport) a single node runs over its local
// views. Because the extracts are self-describing — each carries its own
// prune records and inherited-feature tags — and Go's JSON float round-trip
// is exact, the merged body is byte-identical to a single node serving the
// full recipe. Triage is never partial: a scenario no live shard answered
// for refuses the whole report, since a cluster-dependent subset would
// break that identity.
func (c *Coordinator) handleTriage(ctx context.Context, r *http.Request) ([]byte, error) {
	q := r.URL.Query()
	k, window := q.Get("k"), q.Get("window")
	return c.cachedRead(ctx, r, func(ctx context.Context) (any, int64, bool, error) {
		extracts := make([]triage.ScenarioExtract, len(c.cfg.Scenarios))
		epoch, missing, err := c.gather(ctx, c.every, c.cfg.ShardTimeout, "cluster.proxy.replica_retries", "cluster.triage.epoch_skew",
			func(ctx context.Context, m *member, asked []int) (epoch int64, _ error) {
				for i, idx := range asked {
					ex, err := m.cl.TriageExtract(ctx, c.cfg.Scenarios[idx], k, window)
					if err != nil {
						return 0, err
					}
					if i > 0 && ex.Epoch != epoch {
						return 0, errEpochSkew
					}
					epoch, extracts[idx] = ex.Epoch, ex.ScenarioExtract
				}
				return epoch, nil
			})
		if err = cmp.Or(err, cmp.Or(missing...)); err != nil {
			return nil, 0, false, err
		}
		return &timingd.TriageReport{Epoch: epoch, Report: c.triage.Report(extracts)}, epoch, true, nil
	})
}
