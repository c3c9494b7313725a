package cluster

import (
	"cmp"
	"context"
	"fmt"
	"net/http"

	"newgame/internal/serve"
	"newgame/internal/timingd"
	"newgame/internal/triage"
)

// handleTriage serves GET /triage from the coordinator: every scenario's
// raw relation-graph extract is gathered from a shard serving it (a leg
// asks for all its scenarios in one request and gets one pack/wire reply,
// rendered from one session read), then the coordinator runs the same pure
// merge (triage.BuildReport) a single node runs over its local views.
// Because the extracts are self-describing — each carries its own prune
// records and inherited-feature tags — and the reply carries every float's
// bits, the merged body is byte-identical to a single node serving the
// full recipe. Triage is never partial: a scenario no live shard answered
// for refuses the whole report, since a cluster-dependent subset would
// break that identity.
func (c *Coordinator) handleTriage(ctx context.Context, r *http.Request) ([]byte, error) {
	q := r.URL.Query()
	k, window := q.Get("k"), q.Get("window")
	return c.cachedRead(ctx, r, func(ctx context.Context) ([]byte, int64, bool, error) {
		extracts := make([]triage.ScenarioExtract, len(c.cfg.Scenarios))
		epoch, missing, err := c.gather(ctx, c.every, c.cfg.ShardTimeout, "cluster.proxy.replica_retries", "cluster.triage.epoch_skew",
			func(ctx context.Context, m *member, asked []int) (int64, error) {
				names := make([]string, len(asked))
				for i, idx := range asked {
					names[i] = c.cfg.Scenarios[idx]
				}
				epoch, exs, err := m.cl.TriageExtracts(ctx, names, k, window)
				if err != nil {
					return 0, err
				}
				for i, idx := range asked {
					if i >= len(exs) || exs[i].Scenario != names[i] {
						return 0, fmt.Errorf("shard sent no extract for scenario %q", names[i])
					}
					extracts[idx] = exs[i]
				}
				return epoch, nil
			})
		if err = cmp.Or(err, cmp.Or(missing...)); err != nil {
			return nil, 0, false, err
		}
		body, err := serve.JSON(&timingd.TriageReport{Epoch: epoch, Report: c.triage.Report(extracts)})
		return body, epoch, true, err
	})
}
