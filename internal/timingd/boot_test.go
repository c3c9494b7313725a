package timingd

import (
	"context"
	"strings"
	"sync"
	"testing"

	"newgame/internal/circuits"
	"newgame/internal/core"
	"newgame/internal/liberty"
	"newgame/internal/netlist"
	"newgame/internal/obs"
	"newgame/internal/pack"
	"newgame/internal/parasitics"
	"newgame/internal/variation"
)

var (
	socOnce   sync.Once
	socRecipe core.Recipe
	socStack  *parasitics.Stack
	socDesign *netlist.Design
)

// socConfig is the benchmark's node: the SoCBlock under the four-scenario
// new recipe, its three signoff corners LVF-characterized.
func socConfig(t testing.TB) Config {
	t.Helper()
	socOnce.Do(func() {
		libs := core.GenerateNewLibs(liberty.Node16)
		for _, l := range []*liberty.Library{libs.SlowHot, libs.SlowCold, libs.FastCold} {
			variation.CharacterizeLVF(l, 0.02, 2000, 5)
		}
		socStack = parasitics.Stack16()
		socRecipe = core.NewGoalPosts(libs, socStack)
		socDesign = circuits.SoCBlock(socRecipe.Scenarios[0].Lib)
	})
	return Config{Design: socDesign, Recipe: socRecipe, Stack: socStack, BasePeriod: 560, Seed: 42}
}

// The graph is levelized once per scenario set, however it comes up:
// booting the benchmark's node builds one topology, restoring a
// two-scenario shard from its pack one (the pack carries no graph), a
// resize ECO none, and a buffer ECO none — scenario 0 patches the buffer
// into its topology (sta.topologies_patched) and the other adopts that.
func TestTopologiesBuiltCounts(t *testing.T) {
	cfg := socConfig(t)
	cfg.Obs, cfg.SnapshotDir = obs.NewRecorder(), t.TempDir()
	live, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := cfg.Obs.Counter("sta.topologies_built").Value(); got != 1 {
		t.Errorf("boot built %d topologies, want 1", got)
	}
	rep, err := live.save()
	live.Close()
	if err != nil {
		t.Fatal(err)
	}
	snap, err := pack.Load(rep.Path)
	if err != nil {
		t.Fatal(err)
	}
	rec := obs.NewRecorder()
	shard, err := NewServer(Config{
		Restore: snap, Obs: rec,
		ScenarioFilter: []string{cfg.Recipe.Scenarios[0].Name, cfg.Recipe.Scenarios[1].Name},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer shard.Close()
	built := rec.Counter("sta.topologies_built")
	last := int64(0)
	step := func(name string, want int64) {
		t.Helper()
		if got := built.Value() - last; got != want {
			t.Errorf("%s built %d topologies, want %d", name, got, want)
		}
		last = built.Value()
	}
	step("a two-scenario restore", 1)

	ctx := context.Background()
	d := shard.sess.views.D
	lib := cfg.Recipe.Scenarios[0].Lib
	var resize, buffer []Op
	for _, c := range d.Cells {
		if m := lib.Cell(c.TypeName); resize == nil && strings.HasPrefix(c.Name, "u") && m != nil && m.Vt == liberty.SVT && !m.IsSequential() {
			if to := lib.Variant(m, m.Drive, liberty.LVT); to != nil {
				resize = []Op{{Kind: "resize", Cell: c.Name, To: to.Name}}
			}
		}
	}
	for _, n := range d.Nets {
		if n.Driver != nil && len(n.Loads) >= 3 {
			buffer = []Op{{Kind: "buffer", Net: n.Name, Loads: []string{n.Loads[0].FullName(), n.Loads[1].FullName()}, To: "BUF_X2_SVT"}}
			break
		}
	}
	if resize == nil || buffer == nil {
		t.Fatal("no resize or buffer target in the SoCBlock")
	}
	if _, err := shard.commit(ctx, resize); err != nil {
		t.Fatal(err)
	}
	step("a resize ECO", 0)
	patched := rec.Counter("sta.topologies_patched")
	if _, err := shard.commit(ctx, buffer); err != nil {
		t.Fatal(err)
	}
	step("a buffer ECO", 0)
	if got := patched.Value(); got != 1 {
		t.Errorf("a buffer ECO patched %d topologies, want 1", got)
	}
}
