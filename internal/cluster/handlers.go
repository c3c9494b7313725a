package cluster

import (
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/url"
	"sort"
	"time"

	"newgame/internal/serve"
	"newgame/internal/timingd"
)

// routes mounts every coordinator route on the serving spine — the same
// wrapper a timingd node's routes mount on, so both roles echo X-Trace-Id,
// answer ?debug=trace and expose /metrics and /debug/requests|slow.
func (c *Coordinator) routes() {
	mount := func(pattern, route, method string, fn serve.Func) {
		c.mux.HandleFunc(pattern, c.spine.Handle(route, method, fn))
	}
	mount("/healthz", "healthz", http.MethodGet, c.handleHealth)
	mount("/slack", "slack", http.MethodGet, c.handleSlack)
	mount("/endpoints", "endpoints", http.MethodGet, c.proxiedRead("/endpoints", "limit"))
	mount("/paths", "paths", http.MethodGet, c.proxiedRead("/paths", "k"))
	mount("/triage", "triage", http.MethodGet, c.handleTriage)
	mount("/whatif", "whatif", http.MethodPost, c.handleWhatIf)
	mount("/eco", "eco", http.MethodPost, c.handleECO)
	mount("/cluster/register", "register", http.MethodPost, c.handleRegister)
	mount("/cluster/heartbeat", "heartbeat", http.MethodPost, c.handleHeartbeat)
	mount("/debug/barriers", "debug.barriers", http.MethodGet, c.handleDebugBarriers)
	c.spine.Mount(c.mux)
}

func (c *Coordinator) handleHealth(ctx context.Context, _ *http.Request) ([]byte, error) {
	c.mu.Lock()
	h := ClusterHealth{
		Role:      "coordinator",
		Epoch:     c.epoch,
		Scenarios: len(c.cfg.Scenarios),
		Degraded:  c.degradedLocked(),
		Stale:     c.staleLocked(),
		UptimeSec: time.Since(c.start).Seconds(),
	}
	for _, m := range c.members {
		mh := MemberHealth{ID: m.id, URL: m.url, State: m.state.String(), Epoch: m.epoch}
		for _, ref := range m.scenarios {
			mh.Scenarios = append(mh.Scenarios, ref.Name)
		}
		h.Members = append(h.Members, mh)
	}
	c.mu.Unlock()
	sort.Slice(h.Members, func(i, j int) bool { return h.Members[i].ID < h.Members[j].ID })
	h.Status = "ok"
	if h.Degraded {
		h.Status = "degraded"
	}
	serve.InfoFrom(ctx).Epoch = h.Epoch
	return serve.JSON(h)
}

// cachedRead answers a read from the epoch cache, or gathers, encodes and
// caches it. A barrier landing mid-gather shows up as epoch skew and the
// whole gather is retried once against the settled epoch. A reply gather
// marks not cacheable (a degraded /slack) is served but not kept.
func (c *Coordinator) cachedRead(ctx context.Context, r *http.Request, gather func(context.Context) (body []byte, epoch int64, cacheable bool, err error)) ([]byte, error) {
	info, key, epoch := serve.InfoFrom(ctx), serve.CacheKey(r), c.Epoch()
	if body, ok := c.cache.Get(epoch, key); ok {
		info.Epoch, info.Cache = epoch, "hit"
		return body, nil
	}
	info.Cache = "miss"
	body, epoch, cacheable, err := gather(ctx)
	if err == errEpochSkew {
		body, epoch, cacheable, err = gather(ctx)
	}
	if err != nil {
		return nil, err
	}
	info.Epoch = epoch
	if cacheable {
		c.cache.Put(epoch, key, body)
	}
	return body, nil
}

// handleSlack gathers every scenario's slack summary and merges it. A
// scenario no live shard answered for is reported stale instead of failing
// the read, and such a degraded reply is not cached.
func (c *Coordinator) handleSlack(ctx context.Context, r *http.Request) ([]byte, error) {
	return c.cachedRead(ctx, r, func(ctx context.Context) ([]byte, int64, bool, error) {
		slots := make([]timingd.ScenarioSlack, len(c.cfg.Scenarios))
		epoch, missing, err := c.gather(ctx, c.every, c.cfg.ShardTimeout, "cluster.slack.replica_retries", "cluster.slack.epoch_skew",
			func(ctx context.Context, m *member, asked []int) (int64, error) {
				rep, err := m.cl.Slack(ctx)
				if err != nil {
					return 0, err
				}
				return rep.Epoch, c.pick(slots, asked, rep.Scenarios)
			})
		if err != nil {
			return nil, 0, false, err
		}
		out := &SlackReport{Epoch: epoch}
		for idx, err := range missing {
			if err != nil {
				out.Stale = append(out.Stale, c.cfg.Scenarios[idx])
			} else {
				out.Scenarios = append(out.Scenarios, slots[idx])
			}
		}
		if len(out.Scenarios) == 0 {
			return nil, 0, false, serve.Errorf(503, "all %d scenarios stale: no live shard answered", len(slots))
		}
		out.Degraded = len(out.Stale) > 0
		out.Merged = mergeSlacks(out.Scenarios)
		body, err := serve.JSON(out)
		return body, epoch, !out.Degraded, err
	})
}

// errNotJSON fails a member whose 200 to a proxied read is not JSON.
var errNotJSON = errors.New("shard answered a body that is not JSON")

// proxiedRead is the body behind /endpoints and /paths: the read gathers the
// requested scenario alone, from one shard serving it, and passes the
// shard's body through unchanged once json.Valid accepts it, so the answer
// is bit-identical to single-node timingd and the coordinator decodes
// nothing. The check kind and the route's integer knob (param: ?limit=,
// ?k=) are forwarded as they arrived — the shard's validation is the only
// one, so a bad value gets the node's own answer.
func (c *Coordinator) proxiedRead(path, param string) serve.Func {
	return func(ctx context.Context, r *http.Request) ([]byte, error) {
		q := r.URL.Query()
		idx, name, err := c.scenarioIdx(q.Get("scenario"))
		if err != nil {
			return nil, err
		}
		fwd := url.Values{"scenario": {name}}
		for _, p := range [...]string{"kind", param} {
			if v := q.Get(p); v != "" {
				fwd.Set(p, v)
			}
		}
		uri := path + "?" + fwd.Encode()
		return c.cachedRead(ctx, r, func(ctx context.Context) ([]byte, int64, bool, error) {
			var body []byte
			epoch, missing, err := c.gather(ctx, []int{idx}, c.cfg.ShardTimeout, "cluster.proxy.replica_retries", "cluster.proxy.epoch_skew",
				func(ctx context.Context, m *member, _ []int) (int64, error) {
					b, epoch, err := m.cl.Get(ctx, uri)
					if err == nil && !json.Valid(b) {
						err = errNotJSON
					}
					if err == nil {
						body = b
					}
					return epoch, err
				})
			return body, epoch, true, cmp.Or(err, missing[idx])
		})
	}
}

// handleWhatIf gathers a speculative edit from members covering every
// scenario and merges their reports in canonical order. A what-if is never
// partial: a scenario no live shard answered for refuses it.
func (c *Coordinator) handleWhatIf(ctx context.Context, r *http.Request) ([]byte, error) {
	ops, err := timingd.DecodeOps(r)
	if err != nil {
		return nil, err
	}
	n := len(c.cfg.Scenarios)
	rep := &timingd.WhatIfReport{Before: make([]timingd.ScenarioSlack, n), After: make([]timingd.ScenarioSlack, n)}
	epoch, missing, err := c.gather(ctx, c.every, c.cfg.WriteTimeout, "cluster.whatif.replica_retries", "cluster.whatif.epoch_skew",
		func(ctx context.Context, m *member, asked []int) (int64, error) {
			w, err := m.cl.WhatIf(ctx, ops)
			if err != nil {
				return 0, err
			}
			return w.Epoch, cmp.Or(c.pick(rep.Before, asked, w.Before), c.pick(rep.After, asked, w.After))
		})
	if err = cmp.Or(err, cmp.Or(missing...)); err != nil {
		return nil, err
	}
	rep.Epoch = epoch
	serve.InfoFrom(ctx).Epoch = epoch
	return serve.JSON(rep)
}

func (c *Coordinator) handleECO(ctx context.Context, r *http.Request) ([]byte, error) {
	ops, err := timingd.DecodeOps(r)
	if err != nil {
		return nil, err
	}
	rep, err := c.commitBarrier(ctx, ops)
	if err != nil {
		return nil, err
	}
	serve.InfoFrom(ctx).Epoch = rep.Epoch
	return serve.JSON(rep)
}

func (c *Coordinator) handleRegister(ctx context.Context, r *http.Request) ([]byte, error) {
	var req RegisterRequest
	if err := serve.Decode(r, &req); err != nil {
		return nil, err
	}
	resp, err := c.register(ctx, req)
	if err != nil {
		return nil, err
	}
	serve.InfoFrom(ctx).Epoch = resp.Epoch
	return serve.JSON(resp)
}

func (c *Coordinator) handleHeartbeat(ctx context.Context, r *http.Request) ([]byte, error) {
	var req HeartbeatRequest
	if err := serve.Decode(r, &req); err != nil {
		return nil, err
	}
	resp := c.heartbeat(req)
	serve.InfoFrom(ctx).Epoch = resp.Epoch
	return serve.JSON(resp)
}

func (c *Coordinator) handleDebugBarriers(context.Context, *http.Request) ([]byte, error) {
	return serve.JSON(DebugBarriersReport{
		Barriers: c.flight.Snapshot(0),
		Dropped:  c.flight.Dropped(),
	})
}
