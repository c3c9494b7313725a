package cluster

import (
	"context"
	"fmt"
	"net/http"
	"sync"
	"time"

	"newgame/internal/timingd"
	"newgame/internal/timingd/client"
)

// Source is what the agent announces to the coordinator — implemented
// by *timingd.Server.
type Source interface {
	Epoch() int64
	ScenarioSet() []timingd.ScenarioRef
}

// AgentConfig parameterizes a worker's membership agent.
type AgentConfig struct {
	// ID is the worker's stable identity within the cluster.
	ID string
	// AdvertiseURL is the base URL peers reach this worker at.
	AdvertiseURL string
	// CoordinatorURL is the coordinator's base URL.
	CoordinatorURL string
	// Interval is the heartbeat cadence (default 1s).
	Interval time.Duration
	// Source supplies the worker's epoch and scenario set.
	Source Source
	// HTTP is the transport; nil uses http.DefaultClient.
	HTTP *http.Client
	// Logf, when non-nil, receives membership transitions.
	Logf func(format string, args ...any)
}

// Agent keeps one worker registered with its coordinator: it registers
// (retrying until the coordinator is up — boot order is free), then
// heartbeats every Interval, re-registering whenever the coordinator
// stops recognizing it (eviction, coordinator restart).
type Agent struct {
	cfg    AgentConfig
	cl     *client.Client // the coordinator, over the one outbound path
	stopc  chan struct{}
	done   chan struct{}
	once   sync.Once
	mu     sync.Mutex
	synced bool
}

// StartAgent launches the registration/heartbeat loop.
func StartAgent(cfg AgentConfig) (*Agent, error) {
	if cfg.ID == "" || cfg.AdvertiseURL == "" || cfg.CoordinatorURL == "" || cfg.Source == nil {
		return nil, fmt.Errorf("cluster: agent needs ID, AdvertiseURL, CoordinatorURL and Source")
	}
	if cfg.Interval <= 0 {
		cfg.Interval = time.Second
	}
	a := &Agent{
		cfg:   cfg,
		cl:    &client.Client{Base: cfg.CoordinatorURL, HTTP: cfg.HTTP},
		stopc: make(chan struct{}), done: make(chan struct{}),
	}
	go a.run()
	return a, nil
}

// Stop ends the loop. Idempotent.
func (a *Agent) Stop() {
	a.once.Do(func() { close(a.stopc) })
	<-a.done
}

// Synced reports whether the last register/heartbeat round-trip
// succeeded — i.e. the coordinator currently counts this worker in.
func (a *Agent) Synced() bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.synced
}

func (a *Agent) setSynced(v bool) {
	a.mu.Lock()
	a.synced = v
	a.mu.Unlock()
}

func (a *Agent) logf(format string, args ...any) {
	if a.cfg.Logf != nil {
		a.cfg.Logf(format, args...)
	}
}

func (a *Agent) run() {
	defer close(a.done)
	needRegister := true
	t := time.NewTicker(a.cfg.Interval)
	defer t.Stop()
	for {
		if needRegister {
			if err := a.register(); err != nil {
				a.setSynced(false)
				a.logf("cluster agent %s: register failed: %v (retrying)", a.cfg.ID, err)
			} else {
				needRegister = false
				a.setSynced(true)
			}
		} else {
			reg, err := a.beat()
			switch {
			case err != nil:
				a.setSynced(false)
				a.logf("cluster agent %s: heartbeat failed: %v", a.cfg.ID, err)
			case reg:
				a.setSynced(false)
				needRegister = true
				a.logf("cluster agent %s: coordinator requests re-registration", a.cfg.ID)
			default:
				a.setSynced(true)
			}
		}
		select {
		case <-a.stopc:
			return
		case <-t.C:
		}
	}
}

func (a *Agent) register() error {
	// Registration may replay the whole missed-barrier suffix onto this
	// worker; give it room well beyond a heartbeat.
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	req := RegisterRequest{
		ID:        a.cfg.ID,
		URL:       a.cfg.AdvertiseURL,
		Epoch:     a.cfg.Source.Epoch(),
		Scenarios: a.cfg.Source.ScenarioSet(),
	}
	var resp RegisterResponse
	if err := a.cl.Do(ctx, http.MethodPost, "/cluster/register", req, &resp); err != nil {
		return err
	}
	a.logf("cluster agent %s: registered at epoch %d (%d replayed)", a.cfg.ID, resp.Epoch, resp.Replayed)
	return nil
}

func (a *Agent) beat() (reRegister bool, err error) {
	ctx, cancel := context.WithTimeout(context.Background(), a.cfg.Interval)
	defer cancel()
	var resp HeartbeatResponse
	if err := a.cl.Do(ctx, http.MethodPost, "/cluster/heartbeat", HeartbeatRequest{ID: a.cfg.ID, Epoch: a.cfg.Source.Epoch()}, &resp); err != nil {
		return false, err
	}
	return resp.Register, nil
}
