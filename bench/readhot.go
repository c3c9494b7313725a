package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"newgame/internal/obs"
)

// hotQuery is one read of the node_read_hot mix.
type hotQuery struct {
	route          string // "slack", "endpoints" or "paths"
	scenario, kind string
	n              int // limit or k
}

func (q hotQuery) String() string {
	return fmt.Sprintf("%s/%s/%s/%d", q.route, q.scenario, q.kind, q.n)
}

// hotURICount stays well under timingd's 256-entry cache, so after the
// warm-up pass every read is a hit.
const hotURICount = 48

// hotQueries builds the working set: /slack plus a seeded choice of
// /endpoints and /paths variants over every scenario and check kind.
func hotQueries(fx *fixture, seed int64) (slack hotQuery, endpoints, paths []hotQuery) {
	for _, sc := range fx.scenarioNames() {
		for _, kind := range []string{"setup", "hold"} {
			for d := 0; d < 3; d++ {
				endpoints = append(endpoints, hotQuery{"endpoints", sc, kind, 20 + d})
				paths = append(paths, hotQuery{"paths", sc, kind, 5 + d})
			}
		}
	}
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(endpoints), func(i, j int) { endpoints[i], endpoints[j] = endpoints[j], endpoints[i] })
	rng.Shuffle(len(paths), func(i, j int) { paths[i], paths[j] = paths[j], paths[i] })
	// 1 + 24 + 23 = 48 distinct URIs.
	return hotQuery{route: "slack"}, endpoints, paths[:hotURICount-1-len(endpoints)]
}

func (w *wire) fetch(ctx context.Context, q hotQuery) error {
	var err error
	switch q.route {
	case "slack":
		_, err = w.Slack(ctx)
	case "endpoints":
		_, err = w.Endpoints(ctx, q.scenario, q.kind, q.n)
	default:
		_, err = w.Paths(ctx, q.scenario, q.kind, q.n)
	}
	return err
}

// hotStats is what one closed-loop replay of the read mix observed.
type hotStats struct {
	latencyUs []float64 // per read
	elapsed   time.Duration
}

// readHot is the node_read_hot workload: nproc closed-loop clients, each
// sending the next read when the previous answer arrived — the callers are
// scripts that wait for a reply.
type readHot struct {
	tg  *target
	res *result
	rec *obs.Recorder // nil when untraced

	slack            hotQuery
	endpoints, paths []hotQuery
	first            map[hotQuery][]byte // the answer every later read must equal
	seed             int64
}

// newReadHot makes the warm-up pass: one read of every URI, whose bodies
// become the reference answers and whose renders fill the cache.
func newReadHot(fx *fixture, tg *target, seed int64, res *result, rec *obs.Recorder) (*readHot, error) {
	h := &readHot{tg: tg, res: res, rec: rec, first: map[hotQuery][]byte{}, seed: seed}
	h.slack, h.endpoints, h.paths = hotQueries(fx, seed)
	w := newWire(tg.url, "")
	defer w.close()
	all := append(append([]hotQuery{h.slack}, h.endpoints...), h.paths...)
	for _, q := range all {
		if err := w.fetch(context.Background(), q); err != nil {
			return nil, fmt.Errorf("warm-up %v: %w", q, err)
		}
		h.first[q] = w.tap.body
	}
	return h, nil
}

// pick draws the next read: 70 % /slack, 15 % /endpoints, 15 % /paths.
func (h *readHot) pick(rng *rand.Rand) hotQuery {
	switch p := rng.Intn(100); {
	case p < 70:
		return h.slack
	case p < 85:
		return h.endpoints[rng.Intn(len(h.endpoints))]
	default:
		return h.paths[rng.Intn(len(h.paths))]
	}
}

func (h *readHot) run(dur time.Duration) *hotStats {
	type clientStats struct {
		lat              []float64
		attempted, wrong int
		firstErr         string
	}
	stats := make([]clientStats, nproc)
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(dur)
	for c := 0; c < nproc; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cs := &stats[c]
			tag := ""
			if h.rec != nil {
				tag = fmt.Sprintf("%s-c%d", h.res.Workload, c)
			}
			w := newWire(h.tg.url, tag)
			defer w.close()
			rng := rand.New(rand.NewSource(h.seed*1000 + int64(c)))
			ctx := context.Background()
			for time.Now().Before(deadline) {
				q := h.pick(rng)
				var sp *obs.Span
				if cs.attempted%hotSpanEvery == 0 {
					sp = span(h.rec, "client.read", nil, cs.attempted, c)
				}
				t := time.Now()
				err := w.fetch(ctx, q)
				cs.lat = append(cs.lat, us(time.Since(t)))
				sp.End()
				cs.attempted++
				if err == nil && !bytes.Equal(w.tap.body, h.first[q]) {
					err = fmt.Errorf("%v: body differs from the first answer", q)
				}
				if err != nil {
					cs.wrong++
					if cs.firstErr == "" {
						cs.firstErr = err.Error()
					}
				}
			}
		}(c)
	}
	wg.Wait()
	st := &hotStats{elapsed: time.Since(start)}
	for c, cs := range stats {
		st.latencyUs = append(st.latencyUs, cs.lat...)
		h.res.Attempted += cs.attempted
		if cs.wrong > 0 {
			h.res.Failed += cs.wrong - 1
			h.res.failf("client %d: %d of %d reads failed, first: %s", c, cs.wrong, cs.attempted, cs.firstErr)
		}
	}
	return st
}
