// Command timingd serves resident timing signoff: it loads the design and
// MCMM scenario set once, keeps every scenario's levelized timing graph
// warm, and answers slack/path/what-if queries over HTTP/JSON until shut
// down. ECO commits advance an epoch; every response is tagged with the
// epoch it was computed at.
//
//	timingd -addr :8374 -recipe old -gates 1400 -ffs 96 -period 560
//
// Shutdown is graceful: SIGINT/SIGTERM stop admission, drain in-flight
// queries, then exit.
package main

import (
	"context"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"newgame/internal/circuits"
	"newgame/internal/cluster"
	"newgame/internal/core"
	"newgame/internal/liberty"
	"newgame/internal/netlist"
	"newgame/internal/obs"
	"newgame/internal/pack"
	"newgame/internal/parasitics"
	"newgame/internal/timingd"
	"newgame/internal/variation"
)

func main() {
	addr := flag.String("addr", ":8374", "listen address")
	recipeName := flag.String("recipe", "old", "signoff recipe: old, new")
	period := flag.Float64("period", 560, "functional clock period, ps")
	gates := flag.Int("gates", 1400, "combinational gate count")
	ffs := flag.Int("ffs", 96, "flip-flop count")
	seed := flag.Int64("seed", 42, "generation seed")
	workers := flag.Int("workers", 0, "scenario-level workers (0 = all CPUs)")
	queryWorkers := flag.Int("query-workers", 0, "query workers draining the admission queue (0 = all CPUs)")
	queue := flag.Int("queue", 64, "admission queue depth (full queue answers 429)")
	cacheSize := flag.Int("cache", 256, "query cache entries per epoch")
	timeout := flag.Duration("timeout", 30*time.Second, "per-request timeout")
	snapshotDir := flag.String("snapshot-dir", "", "directory for snapshot packs and the epoch log (empty disables persistence)")
	restore := flag.String("restore", "", "boot from this snapshot pack instead of generating the design")
	rewindEpoch := flag.Int64("rewind-epoch", 0, "with -restore: stop epoch-log replay at this epoch and truncate the log there (0 = replay all)")

	role := flag.String("role", "single", "cluster role: single, worker, coordinator")
	join := flag.String("join", "", "worker: coordinator base URL to register with")
	advertise := flag.String("advertise", "", "worker: base URL peers reach this process at (default http://127.0.0.1<addr>)")
	nodeID := flag.String("node-id", "", "worker: stable cluster identity (default derived from the advertise URL)")
	scenarioNames := flag.String("scenarios", "", "worker: comma-separated scenario subset to serve (empty = all in the recipe)")
	heartbeat := flag.Duration("heartbeat", time.Second, "cluster heartbeat interval")
	flag.Parse()

	switch *role {
	case "single", "worker", "coordinator":
	default:
		fatal(fmt.Errorf("unknown -role %q (want single, worker or coordinator)", *role))
	}
	if *role == "coordinator" {
		runCoordinator(*addr, *restore, *recipeName, *heartbeat)
		return
	}
	if *role == "worker" && *join == "" {
		fatal(fmt.Errorf("-role worker requires -join <coordinator URL>"))
	}

	rec := obs.NewRecorder()
	start := time.Now()
	cfg := timingd.Config{
		BasePeriod: *period, Seed: *seed,
		Workers: *workers, QueryWorkers: *queryWorkers,
		QueueDepth: *queue, CacheSize: *cacheSize,
		RequestTimeout: *timeout, Obs: rec,
		SnapshotDir: *snapshotDir, RestoreToEpoch: *rewindEpoch,
	}
	if *role == "worker" {
		cfg.Role = "worker"
	}
	if *scenarioNames != "" {
		for _, name := range strings.Split(*scenarioNames, ",") {
			if name = strings.TrimSpace(name); name != "" {
				cfg.ScenarioFilter = append(cfg.ScenarioFilter, name)
			}
		}
	}
	if *restore != "" {
		// Warm boot: the whole resident state — design, libraries, recipe,
		// parasitics, frozen timing topology — comes from the pack; no
		// generation, no characterization, no levelization.
		snap, err := pack.Load(*restore)
		if err != nil {
			fatal(err)
		}
		cfg.Restore = snap
		cfg.RestorePath = *restore
	} else {
		stack := parasitics.Stack16()
		recipe := buildRecipe(*recipeName, stack)
		d := circuits.Block(recipe.Scenarios[0].Lib, circuits.BlockSpec{
			Name: "soc", Inputs: 24, Outputs: 24, FFs: *ffs, Gates: *gates,
			MaxDepth: 13, Seed: *seed, ClockBufferLevels: 3,
			VtMix: [3]float64{0, 0.4, 0.6},
		})
		cfg.Design = d
		cfg.Recipe = recipe
		cfg.Stack = stack
	}
	if *snapshotDir != "" {
		if err := os.MkdirAll(*snapshotDir, 0o755); err != nil {
			fatal(err)
		}
	}
	srv, err := timingd.NewServer(cfg)
	if err != nil {
		fatal(err)
	}
	d := cfg.Design
	recipe := cfg.Recipe
	if cfg.Restore != nil {
		d = cfg.Restore.Design
		recipe = *cfg.Restore.Recipe
	}
	lib := recipe.Scenarios[0].Lib
	st := d.Stats()
	fmt.Printf("timingd: %s ready in %.2fs: %d cells, %d nets, %d scenarios, epoch %d\n",
		d.Name, time.Since(start).Seconds(), st.Cells, st.Nets, len(recipe.Scenarios), srv.Epoch())
	if *restore != "" {
		fmt.Printf("timingd: restored from %s (snapshot epoch %d)\n", *restore, cfg.Restore.Epoch)
	}
	if cell, to := exampleResize(d, lib); cell != "" {
		fmt.Printf("timingd: example op: {\"op\":\"resize\",\"cell\":\"%s\",\"to\":\"%s\"}\n", cell, to)
	}
	fmt.Printf("timingd: listening on %s\n", *addr)

	httpSrv := newHTTPServer(*addr, srv)
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()

	var agent *cluster.Agent
	if *role == "worker" {
		adv := *advertise
		if adv == "" {
			adv = advertiseFromAddr(*addr)
		}
		id := *nodeID
		if id == "" {
			id = strings.TrimPrefix(strings.TrimPrefix(adv, "http://"), "https://")
		}
		agent, err = cluster.StartAgent(cluster.AgentConfig{
			ID: id, AdvertiseURL: adv, CoordinatorURL: *join,
			Interval: *heartbeat, Source: srv,
			Logf: func(format string, args ...any) { fmt.Printf(format+"\n", args...) },
		})
		if err != nil {
			fatal(err)
		}
		fmt.Printf("timingd: worker %s joining cluster at %s (advertising %s)\n", id, *join, adv)
	}

	select {
	case err := <-errc:
		fatal(err)
	case <-ctx.Done():
	}
	fmt.Println("timingd: draining...")
	if agent != nil {
		agent.Stop()
	}
	shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	httpSrv.Shutdown(shutCtx)
	srv.Close()
	fmt.Println("timingd: bye")
}

// The listener's own limits, for both roles: a client has readHeaderTimeout
// to send its request line and headers, and a keep-alive connection idle for
// idleTimeout is closed. Request bodies are bounded by the serving spine.
const (
	readHeaderTimeout = 5 * time.Second
	idleTimeout       = 2 * time.Minute
)

// newHTTPServer is how both roles listen: h on addr, under the limits above.
func newHTTPServer(addr string, h http.Handler) *http.Server {
	return &http.Server{Addr: addr, Handler: h, ReadHeaderTimeout: readHeaderTimeout, IdleTimeout: idleTimeout}
}

// advertiseFromAddr derives a reachable base URL from a listen address:
// ":8374" → "http://127.0.0.1:8374", "0.0.0.0:8374" likewise.
func advertiseFromAddr(addr string) string {
	host, port, ok := strings.Cut(addr, ":")
	if !ok {
		return "http://" + addr
	}
	if host == "" || host == "0.0.0.0" || host == "::" {
		host = "127.0.0.1"
	}
	return fmt.Sprintf("http://%s:%s", host, port)
}

// runCoordinator serves the cluster front-end: no timing graphs of its
// own, just the canonical scenario list (from the shared pack or the
// named recipe) and the scatter-gather/barrier machinery.
func runCoordinator(addr, restore, recipeName string, heartbeat time.Duration) {
	start := time.Now()
	var names []string
	if restore != "" {
		snap, err := pack.Load(restore)
		if err != nil {
			fatal(err)
		}
		for _, sc := range snap.Recipe.Scenarios {
			names = append(names, sc.Name)
		}
	} else {
		recipe := buildRecipe(recipeName, parasitics.Stack16())
		for _, sc := range recipe.Scenarios {
			names = append(names, sc.Name)
		}
	}
	rec := obs.NewRecorder()
	c, err := cluster.New(cluster.Config{
		Scenarios: names, HeartbeatInterval: heartbeat, Obs: rec,
		Logf: func(format string, args ...any) { fmt.Printf(format+"\n", args...) },
	})
	if err != nil {
		fatal(err)
	}
	fmt.Printf("timingd: coordinator ready in %.2fs: %d scenarios (%s)\n",
		time.Since(start).Seconds(), len(names), strings.Join(names, ", "))
	fmt.Printf("timingd: coordinator listening on %s\n", addr)

	httpSrv := newHTTPServer(addr, c.Handler())
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	select {
	case err := <-errc:
		fatal(err)
	case <-ctx.Done():
	}
	fmt.Println("timingd: coordinator draining...")
	shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	httpSrv.Shutdown(shutCtx)
	c.Close()
	fmt.Println("timingd: bye")
}

func buildRecipe(name string, stack *parasitics.Stack) core.Recipe {
	switch name {
	case "new":
		libs := core.GenerateNewLibs(liberty.Node16)
		for _, l := range []*liberty.Library{libs.SlowHot, libs.SlowCold, libs.FastCold} {
			variation.CharacterizeLVF(l, 0.02, 2000, 5)
		}
		return core.NewGoalPosts(libs, stack)
	default:
		return core.OldGoalPosts(liberty.Node16, stack)
	}
}

// exampleResize finds a combinational cell with an in-library Vt variant,
// giving operators a copy-pasteable what-if op in the startup banner.
func exampleResize(d *netlist.Design, lib *liberty.Library) (cell, to string) {
	swap := map[string]string{"_SVT": "_LVT", "_LVT": "_SVT", "_HVT": "_SVT"}
	for _, c := range d.Cells {
		m := lib.Cell(c.TypeName)
		if m == nil || m.IsSequential() {
			continue
		}
		for from, rep := range swap {
			if strings.HasSuffix(c.TypeName, from) {
				v := strings.TrimSuffix(c.TypeName, from) + rep
				if lib.Cell(v) != nil {
					return c.Name, v
				}
			}
		}
	}
	return "", ""
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "timingd:", err)
	os.Exit(1)
}
