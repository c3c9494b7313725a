package pack

import (
	"bytes"
	"context"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"

	"newgame/internal/circuits"
	"newgame/internal/core"
	"newgame/internal/liberty"
	"newgame/internal/pack/wire"
	"newgame/internal/parasitics"
	"newgame/internal/sta"
	"newgame/internal/variation"
)

var (
	socOnce sync.Once
	socSnap *Snapshot
)

// socSnapshot is the pack the benchmark's cluster boots from: the SoCBlock
// under the four-scenario new recipe with LVF-characterized corners, its
// topology and trees the ones a timed set over it holds. Every scenario
// routes the same trees, so timing one is enough.
func socSnapshot(t testing.TB) *Snapshot {
	t.Helper()
	socOnce.Do(func() {
		libs := core.GenerateNewLibs(liberty.Node16)
		for _, l := range []*liberty.Library{libs.SlowHot, libs.SlowCold, libs.FastCold} {
			variation.CharacterizeLVF(l, 0.02, 2000, 5)
		}
		stack := parasitics.Stack16()
		recipe := core.NewGoalPosts(libs, stack)
		d := circuits.SoCBlock(recipe.Scenarios[0].Lib)
		v := &core.Views{
			D: d, ClockPort: d.Port("clk"), BasePeriod: 560,
			Scenarios: recipe.Scenarios[:1], Parasitics: sta.NewKeyedNetBinder(stack, 42),
			Workers: 1,
		}
		if err := v.Build(context.Background()); err != nil {
			panic(err)
		}
		socSnap = &Snapshot{
			Design: d, Recipe: &recipe, Stack: stack, ClockPort: "clk",
			BasePeriod: 560, Seed: 42, Parasitics: v.Parasitics,
		}
	})
	return socSnap
}

// allocated is the fewest bytes any of three calls of fn allocates. The
// process-wide counter also counts other goroutines' bytes, which only ever
// add: for a deterministic fn the least is its own.
func allocated(fn func()) uint64 {
	least := uint64(math.MaxUint64)
	for range 3 {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		fn()
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	return least
}

// Writing a pack allocates the pack about once: each section is encoded
// straight into chunks that are never copied, and Save streams them to the
// file. Encode, which returns the pack in one slice, joins them once more.
func TestEncodeAllocatesOnePack(t *testing.T) {
	s := socSnapshot(t)
	path := filepath.Join(t.TempDir(), "soc.pack")
	var n int
	var err error
	saved := allocated(func() { n, err = Save(path, s) })
	if err != nil {
		t.Fatal(err)
	}
	var data []byte
	encoded := allocated(func() { data, err = Encode(s) })
	if err != nil {
		t.Fatal(err)
	}
	file, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(data) || !bytes.Equal(file, data) {
		t.Fatalf("Save wrote %d bytes, Encode returned %d, equal %v", n, len(data), bytes.Equal(file, data))
	}
	ratio := float64(saved) / float64(n)
	t.Logf("a %d-byte pack: Save allocates %.2f× its bytes, Encode %.2f×", n, ratio, float64(encoded)/float64(n))
	if ratio > 1.3 {
		t.Errorf("Save allocates %.2f× the pack, want ≤ 1.3×", ratio)
	}
}

// A chunked stream reads back as the bytes a flat one would hold, whichever
// way it leaves the writer, and its CRC from any offset is the CRC of that
// suffix.
func TestWriterChunksJoinExactly(t *testing.T) {
	var w wire.Writer
	var flat []byte
	for i := 0; i < 20000; i++ {
		w.U32(uint32(i))
		flat = append(flat, byte(i), byte(i>>8), byte(i>>16), byte(i>>24))
		if i%997 == 0 {
			s := string(bytes.Repeat([]byte{byte(i)}, i%5000))
			w.String(s)
			flat = append(flat, byte(len(s)), byte(len(s)>>8), 0, 0)
			flat = append(flat, s...)
		}
	}
	if w.Len() != len(flat) || !bytes.Equal(w.Bytes(), flat) {
		t.Fatalf("Bytes: %d bytes, want %d, equal %v", w.Len(), len(flat), bytes.Equal(w.Bytes(), flat))
	}
	var out bytes.Buffer
	if k, err := w.WriteTo(&out); err != nil || int(k) != len(flat) || !bytes.Equal(out.Bytes(), flat) {
		t.Fatalf("WriteTo: %d, %v, equal %v", k, err, bytes.Equal(out.Bytes(), flat))
	}
	for _, from := range []int{0, 1, 63, 64, 65, 1 << 16, len(flat) - 1, len(flat)} {
		var x wire.Writer
		x.Raw(flat[from:])
		if got, want := w.CRC32(from), x.CRC32(0); got != want {
			t.Errorf("CRC32(%d) = %08x, want %08x", from, got, want)
		}
	}
}

// A write that succeeds and one whose rename fails — the target is a
// directory — both leave no temp file behind, for packs and logs alike.
func TestAtomicWritesLeaveNoTempFile(t *testing.T) {
	dir := t.TempDir()
	s := testSnapshot(t)
	if _, err := Save(filepath.Join(dir, "ok.pack"), s); err != nil {
		t.Fatal(err)
	}
	if err := RewriteLog(filepath.Join(dir, "ok.log"), testRecords()); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"busy.pack", "busy.log"} {
		if err := os.Mkdir(filepath.Join(dir, name), 0o755); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := Save(filepath.Join(dir, "busy.pack"), s); err == nil {
		t.Error("Save over a directory succeeded")
	}
	if err := RewriteLog(filepath.Join(dir, "busy.log"), testRecords()); err == nil {
		t.Error("RewriteLog over a directory succeeded")
	}
	for _, pattern := range []string{".pack-*", ".log-*"} {
		if left, _ := filepath.Glob(filepath.Join(dir, pattern)); len(left) > 0 {
			t.Errorf("temp files left behind: %v", left)
		}
	}
}
