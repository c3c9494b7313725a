package timingd

import (
	"runtime"
	"sync"
	"testing"

	"newgame/internal/circuits"
	"newgame/internal/core"
	"newgame/internal/netlist"
	"newgame/internal/pack"
	"newgame/internal/parasitics"
)

var (
	benchOnce   sync.Once
	benchDesign *netlist.Design
)

func benchFixture(b *testing.B) (core.Recipe, *parasitics.Stack, *netlist.Design) {
	recipe, stack, _ := fixture(b)
	benchOnce.Do(func() {
		benchDesign = circuits.Block(recipe.Scenarios[0].Lib, circuits.BlockSpec{
			Name: "boot", Inputs: 6, Outputs: 6, FFs: 8, Gates: 48,
			MaxDepth: 6, Seed: 7, ClockBufferLevels: 1,
			VtMix: [3]float64{0, 0.5, 0.5},
		})
	})
	return recipe, stack, benchDesign
}

// heapAfterGC is the live heap: HeapAlloc once a collection has run twice,
// the second freeing what sync.Pools kept through the first.
func heapAfterGC() float64 {
	var m runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc)
}

// reportRetained boots one more server outside the timer and reports what it
// keeps live, in MB: the per-server resident figure.
func reportRetained(b *testing.B, boot func() *Server) {
	b.StopTimer()
	before := heapAfterGC()
	s := boot()
	b.ReportMetric((heapAfterGC()-before)/1e6, "retained_MB")
	s.Close()
}

// BenchmarkBootBuild measures a cold boot from an in-memory design: clone,
// levelize, route and time every scenario.
func BenchmarkBootBuild(b *testing.B) {
	recipe, stack, d := benchFixture(b)
	boot := func() *Server {
		s, err := NewServer(Config{Design: d, Recipe: recipe, Stack: stack, BasePeriod: 560, Seed: 7, QueryWorkers: 4})
		if err != nil {
			b.Fatal(err)
		}
		return s
	}
	for i := 0; i < b.N; i++ {
		boot().Close()
	}
	reportRetained(b, boot)
}

// BenchmarkBootPackRestore measures a warm boot: read one binary snapshot,
// levelize its netlist, take its saved trees, answer queries at the
// snapshot epoch. The cold road it is compared with (generate,
// characterize, levelize) is bench/'s timingd.boot_ms beside
// timingd.boot_restore_ms.
//
// The bench design is deliberately modest: boot cost on a small block is
// dominated by the fixed multi-megabyte library payload, which is what the
// pack's binary slabs are for. STA run time would only dilute the figure.
func BenchmarkBootPackRestore(b *testing.B) {
	dir := b.TempDir()
	recipe, stack, d := benchFixture(b)
	s, err := NewServer(Config{
		Design: d, Recipe: recipe, Stack: stack,
		BasePeriod: 560, Seed: 7, QueryWorkers: 4,
		SnapshotDir: dir,
	})
	if err != nil {
		b.Fatal(err)
	}
	rep, err := s.save()
	if err != nil {
		b.Fatal(err)
	}
	s.Close()
	boot := func() *Server {
		snap, err := pack.Load(rep.Path)
		if err != nil {
			b.Fatal(err)
		}
		s, err := NewServer(Config{QueryWorkers: 4, Restore: snap, RestorePath: rep.Path})
		if err != nil {
			b.Fatal(err)
		}
		return s
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		boot().Close()
	}
	reportRetained(b, boot)
}
