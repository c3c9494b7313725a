package cluster

import (
	"context"
	"fmt"
	"net/http"
	"sort"
	"sync"
	"time"

	"newgame/internal/obs"
	"newgame/internal/serve"
	"newgame/internal/timingd"
	"newgame/internal/timingd/client"
	"newgame/internal/triage"
)

// Config parameterizes a Coordinator.
type Config struct {
	// Scenarios is the full recipe's scenario names in canonical order —
	// the ordering every merged answer uses. Required; a coordinator
	// normally copies it from the pack's recipe so workers restored from
	// the same pack validate trivially.
	Scenarios []string
	// ShardTimeout bounds one read fan-out leg (default 5s).
	ShardTimeout time.Duration
	// WriteTimeout bounds one prepare/commit/what-if leg (default 30s).
	WriteTimeout time.Duration
	// HeartbeatInterval is the expected worker beat cadence (default 1s);
	// a worker missing DeadAfter consecutive beats is evicted.
	HeartbeatInterval time.Duration
	// DeadAfter is the missed-beat eviction threshold (default 3).
	DeadAfter int
	// RetryDelay is the base jittered pause before a replica retry
	// (default 25ms).
	RetryDelay time.Duration
	// Seed feeds the retry-jitter PRNG, making test runs reproducible.
	Seed uint64
	// Obs, when non-nil, records coordinator counters and latencies.
	Obs *obs.Recorder
	// Hooks holds test-only interception points.
	Hooks Hooks
	// Logf, when non-nil, receives membership and barrier transitions.
	Logf func(format string, args ...any)
	// HTTP is the transport for worker calls; nil uses http.DefaultClient.
	HTTP *http.Client
}

const (
	// replicaFanout caps how many ring owners a read tries per scenario
	// before declaring it stale: primary + one replica.
	replicaFanout = 2
	// ringVnodes is the virtual nodes per member on the hash ring.
	ringVnodes = 64
	// flightBarriers sizes the barrier flight-recorder ring.
	flightBarriers = 128
)

// Hooks are test-only interception points in the barrier state machine.
type Hooks struct {
	// BetweenPrepareAndCommit runs after every shard acked prepare and
	// before the verify/commit phases — the window chaos tests kill
	// workers in.
	BetweenPrepareAndCommit func(txn string)
}

func (c Config) withDefaults() Config {
	if c.ShardTimeout <= 0 {
		c.ShardTimeout = 5 * time.Second
	}
	if c.WriteTimeout <= 0 {
		c.WriteTimeout = 30 * time.Second
	}
	if c.HeartbeatInterval <= 0 {
		c.HeartbeatInterval = time.Second
	}
	if c.DeadAfter <= 0 {
		c.DeadAfter = 3
	}
	if c.RetryDelay <= 0 {
		c.RetryDelay = 25 * time.Millisecond
	}
	return c
}

type memberState int

const (
	memberSyncing memberState = iota // registered, catch-up replay running
	memberAlive                      // heartbeating at the cluster epoch
	memberDead                       // missed beats or failed a barrier
)

func (s memberState) String() string {
	switch s {
	case memberSyncing:
		return "syncing"
	case memberAlive:
		return "alive"
	default:
		return "dead"
	}
}

// member is one registered worker shard.
type member struct {
	id        string
	url       string
	scenarios []timingd.ScenarioRef
	serves    map[int]bool // canonical scenario indices
	epoch     int64
	lastBeat  time.Time
	state     memberState
	cl        *client.Client
}

// The reply cache and request flight ring are sized like a timingd node's
// defaults.
const (
	replyCacheSize = 256
	flightRequests = 256
)

// Coordinator fronts a set of timingd worker shards.
type Coordinator struct {
	cfg    Config
	start  time.Time
	mux    *http.ServeMux
	flight *obs.Ring[BarrierRecord]
	// every lists each canonical scenario slot: what /slack, /whatif and
	// /triage gather.
	every []int

	mu      sync.Mutex
	members map[string]*member
	ring    *ring
	epoch   int64
	// baseEpoch is the epoch of the first worker to register — the pack
	// epoch the whole cluster booted from. oplog[i] holds the ops of the
	// barrier that moved baseEpoch+i to baseEpoch+i+1; replaying a
	// suffix of it is how late or restarted workers catch up.
	baseEpoch int64
	baseSet   bool
	oplog     [][]timingd.Op
	txnSeq    int64

	// barrierMu serializes the write path: epoch barriers and catch-up
	// replays (which are writes against a worker) never interleave.
	barrierMu sync.Mutex

	// cache holds merged replies keyed by (cluster epoch, request URI); it
	// is purged on every commit and membership change, since a merged
	// answer depends on both.
	cache *serve.Cache
	spine *serve.Spine

	// triage is the /triage merge's workspace, kept between gathers.
	triage *triage.Graph

	rngMu sync.Mutex
	rng   uint64

	stopc    chan struct{}
	stopOnce sync.Once
	done     chan struct{}
}

// New starts a coordinator (including its liveness sweeper). Callers
// serve Handler() and must Close().
func New(cfg Config) (*Coordinator, error) {
	cfg = cfg.withDefaults()
	if len(cfg.Scenarios) == 0 {
		return nil, fmt.Errorf("cluster: Config.Scenarios is required")
	}
	seen := make(map[string]bool, len(cfg.Scenarios))
	for _, name := range cfg.Scenarios {
		if name == "" || seen[name] {
			return nil, fmt.Errorf("cluster: scenario names must be unique and non-empty (got %q twice or empty)", name)
		}
		seen[name] = true
	}
	c := &Coordinator{
		cfg:     cfg,
		start:   time.Now(),
		flight:  obs.NewRing[BarrierRecord](flightBarriers),
		members: map[string]*member{},
		ring:    buildRing(nil, ringVnodes),
		cache:   serve.NewCache(replyCacheSize),
		triage:  triage.NewGraph(nil),
		rng:     cfg.Seed ^ 0x9e3779b97f4a7c15,
		stopc:   make(chan struct{}),
		done:    make(chan struct{}),
	}
	for idx := range cfg.Scenarios {
		c.every = append(c.every, idx)
	}
	c.spine = &serve.Spine{NS: "cluster", Obs: cfg.Obs, Requests: obs.NewRing[obs.RequestRecord](flightRequests), Cache: c.cache}
	c.mux = http.NewServeMux()
	c.routes()
	go c.sweep()
	return c, nil
}

// Handler returns the coordinator's HTTP surface.
func (c *Coordinator) Handler() http.Handler { return c.mux }

// Close stops the liveness sweeper. Idempotent.
func (c *Coordinator) Close() error {
	c.stopOnce.Do(func() { close(c.stopc) })
	<-c.done
	return nil
}

// Epoch returns the cluster epoch.
func (c *Coordinator) Epoch() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.epoch
}

func (c *Coordinator) logf(format string, args ...any) {
	if c.cfg.Logf != nil {
		c.cfg.Logf(format, args...)
	}
}

func (c *Coordinator) count(name string) {
	if c.cfg.Obs != nil {
		c.cfg.Obs.Counter(name).Add(1)
	}
}

// jitter returns a duration in [d/2, 3d/2) from the seeded splitmix64
// stream — enough spread to de-correlate replica retries without
// unseeded randomness.
func (c *Coordinator) jitter(d time.Duration) time.Duration {
	c.rngMu.Lock()
	c.rng += 0x9e3779b97f4a7c15
	z := c.rng
	c.rngMu.Unlock()
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return d/2 + time.Duration(z%uint64(d))
}

// validateScenarios checks a registration's scenario refs against the
// canonical list — the guard that every shard restored the same pack.
func (c *Coordinator) validateScenarios(refs []timingd.ScenarioRef) (map[int]bool, error) {
	if len(refs) == 0 {
		return nil, fmt.Errorf("worker serves no scenarios")
	}
	serves := make(map[int]bool, len(refs))
	for _, ref := range refs {
		if ref.Index < 0 || ref.Index >= len(c.cfg.Scenarios) || c.cfg.Scenarios[ref.Index] != ref.Name {
			return nil, fmt.Errorf("scenario %q@%d does not match the cluster recipe (restored from a different pack?)", ref.Name, ref.Index)
		}
		if serves[ref.Index] {
			return nil, fmt.Errorf("scenario %q listed twice", ref.Name)
		}
		serves[ref.Index] = true
	}
	return serves, nil
}

// register admits (or re-admits) a worker, replaying any barriers it
// missed so it lands exactly at the cluster epoch. Serialized against
// the barrier path, so the cluster epoch cannot move mid-replay.
func (c *Coordinator) register(ctx context.Context, req RegisterRequest) (RegisterResponse, error) {
	if req.ID == "" || req.URL == "" {
		return RegisterResponse{}, serve.Errorf(400, "register needs id and url")
	}
	serves, err := c.validateScenarios(req.Scenarios)
	if err != nil {
		return RegisterResponse{}, serve.Errorf(400, "%v", err)
	}

	c.barrierMu.Lock()
	defer c.barrierMu.Unlock()

	c.mu.Lock()
	if !c.baseSet {
		c.baseSet = true
		c.baseEpoch = req.Epoch
		c.epoch = req.Epoch
	}
	if req.Epoch > c.epoch {
		c.mu.Unlock()
		return RegisterResponse{}, serve.Errorf(409, "worker at epoch %d is ahead of cluster epoch %d", req.Epoch, c.epoch)
	}
	if req.Epoch < c.baseEpoch {
		c.mu.Unlock()
		return RegisterResponse{}, serve.Errorf(409, "worker at epoch %d is behind the cluster replay horizon %d; restore a newer pack", req.Epoch, c.baseEpoch)
	}
	m := &member{
		id:        req.ID,
		url:       req.URL,
		scenarios: append([]timingd.ScenarioRef(nil), req.Scenarios...),
		serves:    serves,
		epoch:     req.Epoch,
		lastBeat:  time.Now(),
		state:     memberSyncing,
		cl:        &client.Client{Base: req.URL, HTTP: c.cfg.HTTP},
	}
	c.members[req.ID] = m
	target := c.epoch
	pending := c.oplog[req.Epoch-c.baseEpoch : target-c.baseEpoch]
	c.mu.Unlock()
	c.cache.Purge()

	// Catch-up replay outside c.mu (each record is one ordinary ECO on
	// the worker, advancing it exactly one epoch). barrierMu is held, so
	// target is stable.
	replayed := 0
	for _, ops := range pending {
		if _, err := m.cl.Commit(ctx, ops); err != nil {
			c.mu.Lock()
			m.state = memberDead
			c.rebuildLocked()
			c.mu.Unlock()
			c.cache.Purge()
			c.count("cluster.register.replay_failures")
			return RegisterResponse{}, serve.Errorf(502, "catch-up replay failed after %d records: %v", replayed, err)
		}
		replayed++
	}

	c.mu.Lock()
	m.epoch = target
	m.state = memberAlive
	m.lastBeat = time.Now()
	c.rebuildLocked()
	c.mu.Unlock()
	c.cache.Purge()
	c.count("cluster.registers")
	c.logf("cluster: worker %s (%s) registered, %d scenarios, replayed %d, epoch %d",
		req.ID, req.URL, len(req.Scenarios), replayed, target)
	return RegisterResponse{Epoch: target, Replayed: replayed}, nil
}

// heartbeat records a beat. Unknown or un-revivable workers are told to
// re-register (which replays them back to the cluster epoch).
func (c *Coordinator) heartbeat(req HeartbeatRequest) HeartbeatResponse {
	c.mu.Lock()
	defer c.mu.Unlock()
	m, ok := c.members[req.ID]
	if !ok {
		return HeartbeatResponse{Epoch: c.epoch, Register: true}
	}
	m.lastBeat = time.Now()
	m.epoch = req.Epoch
	if m.state == memberDead {
		if req.Epoch == c.epoch {
			// Worker was only slow (or missed a commit we already count
			// it dead for) yet sits at the right epoch: revive in place.
			m.state = memberAlive
			c.rebuildLocked()
			c.cache.Purge()
			c.logf("cluster: worker %s revived at epoch %d", m.id, req.Epoch)
		} else {
			return HeartbeatResponse{Epoch: c.epoch, Register: true}
		}
	}
	return HeartbeatResponse{Epoch: c.epoch, Register: false}
}

// sweep evicts workers that stop heartbeating: DeadAfter missed beats →
// dead, ring rebuilt, their scenarios fail over to surviving replicas.
func (c *Coordinator) sweep() {
	defer close(c.done)
	t := time.NewTicker(c.cfg.HeartbeatInterval)
	defer t.Stop()
	for {
		select {
		case <-c.stopc:
			return
		case <-t.C:
		}
		cutoff := time.Now().Add(-time.Duration(c.cfg.DeadAfter) * c.cfg.HeartbeatInterval)
		c.mu.Lock()
		changed := false
		for _, m := range c.members {
			// Syncing members are mid-replay under barrierMu; their beat
			// resumes when registration returns.
			if m.state == memberAlive && m.lastBeat.Before(cutoff) {
				m.state = memberDead
				changed = true
				c.logf("cluster: worker %s evicted (no heartbeat since %s)", m.id, m.lastBeat.Format(time.RFC3339))
			}
		}
		if changed {
			c.rebuildLocked()
			c.count("cluster.evictions")
		}
		c.mu.Unlock()
		if changed {
			c.cache.Purge()
		}
	}
}

// rebuildLocked recomputes the hash ring from the alive member set.
// Callers hold c.mu.
func (c *Coordinator) rebuildLocked() {
	ids := make([]string, 0, len(c.members))
	for id, m := range c.members {
		if m.state == memberAlive {
			ids = append(ids, id)
		}
	}
	sort.Strings(ids)
	c.ring = buildRing(ids, ringVnodes)
}

// candidatesFor returns the live members able to serve scenario index
// idx, in ring-preference order for its name. Callers hold c.mu.
func (c *Coordinator) candidatesFor(name string, idx int) []*member {
	owners := c.ring.Owners(name, len(c.members))
	out := make([]*member, 0, 2)
	for _, id := range owners {
		m := c.members[id]
		if m != nil && m.state == memberAlive && m.serves[idx] {
			out = append(out, m)
		}
	}
	return out
}

// staleLocked names scenarios no live member serves. Callers hold c.mu.
func (c *Coordinator) staleLocked() []string {
	var stale []string
	for idx, name := range c.cfg.Scenarios {
		found := false
		for _, m := range c.members {
			if m.state == memberAlive && m.serves[idx] {
				found = true
				break
			}
		}
		if !found {
			stale = append(stale, name)
		}
	}
	return stale
}

// degradedLocked: any scenario stale or any registered member not
// alive. Callers hold c.mu.
func (c *Coordinator) degradedLocked() bool {
	if len(c.members) == 0 {
		return true
	}
	for _, m := range c.members {
		if m.state != memberAlive {
			return true
		}
	}
	return len(c.staleLocked()) > 0
}
