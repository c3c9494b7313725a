package cluster

import (
	"context"
	"net/http"
	"sync"

	"newgame/internal/timingd"
	"newgame/internal/triage"
)

// gatherTriage scatter-gathers the triage report: every scenario's raw
// relation-graph extract is fetched from the shard that owns it (replica
// fallback per scenario), then the coordinator runs the same pure merge
// (triage.BuildReport) a single node runs over its local views. Because
// the extracts are self-describing — each carries its own prune records
// and inherited-feature tags — and Go's JSON float round-trip is exact,
// the merged body is byte-identical to a single node serving the full
// recipe. Triage is never partial: a scenario no live shard can answer
// for refuses the whole report, since a cluster-dependent subset would
// break that identity.
func (c *Coordinator) gatherTriage(ctx context.Context, k, window string) (*timingd.TriageReport, error) {
	_, plans := c.plan()

	extracts := make([]timingd.TriageExtract, len(plans))
	errs := make([]error, len(plans))
	var wg sync.WaitGroup
	for p := range plans {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			errs[p] = c.proxyScenario(ctx, plans[p].idx, func(ctx2 context.Context, m *member) error {
				var ferr error
				extracts[p], ferr = m.cl.TriageExtract(ctx2, plans[p].name, k, window)
				return ferr
			})
		}(p)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}

	// All extracts must come from one epoch; a barrier landing mid-gather
	// shows up as skew and the handler retries once.
	rep := &timingd.TriageReport{}
	ses := make([]triage.ScenarioExtract, len(extracts))
	for i, ex := range extracts {
		if i == 0 {
			rep.Epoch = ex.Epoch
		} else if ex.Epoch != rep.Epoch {
			c.count("cluster.triage.epoch_skew")
			return nil, errEpochSkew
		}
		ses[i] = ex.ScenarioExtract
	}
	rep.Report = c.triage.Report(ses)
	return rep, nil
}

// handleTriage serves GET /triage from the coordinator: epoch-scoped
// cache, scatter to the owning shards, merge, one retry on epoch skew.
func (c *Coordinator) handleTriage(ctx context.Context, r *http.Request) ([]byte, error) {
	q := r.URL.Query()
	return c.cachedRead(ctx, r, func(ctx context.Context) (any, int64, bool, error) {
		rep, err := c.gatherTriage(ctx, q.Get("k"), q.Get("window"))
		if err != nil {
			return nil, 0, false, err
		}
		return rep, rep.Epoch, true, nil
	})
}
