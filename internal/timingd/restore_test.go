package timingd

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"newgame/internal/core"
	"newgame/internal/pack"
	"newgame/internal/sta"
)

func saveSnapshot(t *testing.T, base string) SaveReport {
	t.Helper()
	code, body := post(t, base, "/admin/save", "")
	if code != 200 {
		t.Fatalf("/admin/save: %d %s", code, body)
	}
	var rep SaveReport
	if err := json.Unmarshal(body, &rep); err != nil {
		t.Fatal(err)
	}
	return rep
}

func commitResize(t *testing.T, base string) {
	t.Helper()
	cell, to := resizeTarget(t)
	code, body := post(t, base, "/eco", opsJSON(Op{Kind: "resize", Cell: cell, To: to}))
	if code != 200 {
		t.Fatalf("/eco: %d %s", code, body)
	}
}

// The headline acceptance test: snapshot at epoch 0, commit an ECO (logged
// at epoch 1), kill the server, boot a new one from the pack. The restored
// server times the snapshot's own design, uncloned; log replay carries it to
// epoch 1 and every query endpoint answers byte-identically to the live
// server it replaced.
func TestRestoreByteIdenticalAfterLogReplay(t *testing.T) {
	dir := t.TempDir()
	live, hsLive := newTestServer(t, func(c *Config) { c.SnapshotDir = dir })
	rep := saveSnapshot(t, hsLive.URL)
	if rep.Epoch != 0 || rep.Bytes <= 0 {
		t.Fatalf("save report %+v", rep)
	}
	commitResize(t, hsLive.URL)
	paths := []string{"/slack", "/endpoints", "/paths?k=8", "/triage"}
	liveBytes := make([][]byte, len(paths))
	for i, p := range paths {
		code, b := get(t, hsLive.URL, p)
		if code != 200 {
			t.Fatalf("live %s: %d %s", p, code, b)
		}
		liveBytes[i] = b
	}
	hsLive.Close()
	live.Close() // kill: the restored server takes over the log

	snap, err := pack.Load(rep.Path)
	if err != nil {
		t.Fatal(err)
	}
	restored, hs := newTestServer(t, func(c *Config) {
		*c = Config{QueryWorkers: 4, SnapshotDir: dir, Restore: snap, RestorePath: rep.Path}
	})
	if restored.Epoch() != 1 {
		t.Fatalf("restored epoch %d, want 1 (snapshot 0 + 1 replayed)", restored.Epoch())
	}
	if restored.sess.views.D != snap.Design {
		t.Error("the restored server times a copy of the snapshot's design")
	}
	for i, p := range paths {
		code, b := get(t, hs.URL, p)
		if code != 200 {
			t.Fatalf("restored %s: %d %s", p, code, b)
		}
		if !bytes.Equal(b, liveBytes[i]) {
			t.Errorf("%s differs after restore:\n%s\nlive:\n%s", p, b, liveBytes[i])
		}
	}
}

func TestRestoreHealthzProvenance(t *testing.T) {
	dir := t.TempDir()
	live, hsLive := newTestServer(t, func(c *Config) { c.SnapshotDir = dir })
	rep := saveSnapshot(t, hsLive.URL)
	commitResize(t, hsLive.URL)
	hsLive.Close()
	live.Close()

	snap, err := pack.Load(rep.Path)
	if err != nil {
		t.Fatal(err)
	}
	_, hs := newTestServer(t, func(c *Config) {
		*c = Config{QueryWorkers: 4, SnapshotDir: dir, Restore: snap, RestorePath: rep.Path}
	})
	commitResize(t, hs.URL) // epoch 2, appended by this process
	code, body := get(t, hs.URL, "/healthz")
	if code != 200 {
		t.Fatalf("/healthz: %d %s", code, body)
	}
	var h Health
	if err := json.Unmarshal(body, &h); err != nil {
		t.Fatal(err)
	}
	if h.Snapshot == nil {
		t.Fatal("healthz has no snapshot block")
	}
	sn := h.Snapshot
	if sn.Dir != dir || sn.RestoredFrom != rep.Path || sn.SnapshotEpoch != 0 ||
		sn.LogReplayed != 1 || sn.LogAppended != 1 || sn.LogError != "" {
		t.Fatalf("snapshot provenance %+v", sn)
	}
}

// Crash recovery without a snapshot: the log alone replays onto the
// deterministically regenerated epoch-0 state.
func TestLogOnlyCrashRecovery(t *testing.T) {
	dir := t.TempDir()
	live, hsLive := newTestServer(t, func(c *Config) { c.SnapshotDir = dir })
	commitResize(t, hsLive.URL)
	code, want := get(t, hsLive.URL, "/slack")
	if code != 200 {
		t.Fatalf("/slack: %d", code)
	}
	hsLive.Close()
	live.Close()

	reborn, hs := newTestServer(t, func(c *Config) { c.SnapshotDir = dir })
	if reborn.Epoch() != 1 {
		t.Fatalf("recovered epoch %d, want 1", reborn.Epoch())
	}
	code, got := get(t, hs.URL, "/slack")
	if code != 200 {
		t.Fatalf("/slack: %d", code)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("recovered slack differs:\n%s\nwant:\n%s", got, want)
	}
}

// A torn final log frame (crash mid-append) is dropped: boot succeeds at
// the intact prefix and the log is rewritten clean.
func TestTornLogTailRecovery(t *testing.T) {
	dir := t.TempDir()
	live, hsLive := newTestServer(t, func(c *Config) { c.SnapshotDir = dir })
	commitResize(t, hsLive.URL)
	hsLive.Close()
	live.Close()

	logPath := filepath.Join(dir, LogName)
	b, err := os.ReadFile(logPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(logPath, b[:len(b)-3], 0o644); err != nil {
		t.Fatal(err)
	}
	reborn, _ := newTestServer(t, func(c *Config) { c.SnapshotDir = dir })
	if reborn.Epoch() != 0 {
		t.Fatalf("epoch %d after torn-tail boot, want 0", reborn.Epoch())
	}
	recs, truncated, err := pack.ReadLog(logPath)
	if err != nil || truncated || len(recs) != 0 {
		t.Fatalf("log not rewritten clean: recs=%d truncated=%v err=%v", len(recs), truncated, err)
	}
}

// Rewind: restore stops replay at -rewind-epoch and truncates the log
// there, so history after the chosen point is gone for good.
func TestRestoreRewindToEpoch(t *testing.T) {
	dir := t.TempDir()
	live, hsLive := newTestServer(t, func(c *Config) { c.SnapshotDir = dir })
	rep := saveSnapshot(t, hsLive.URL)
	commitResize(t, hsLive.URL) // epoch 1
	net, loads := bufferTarget(t)
	code, body := post(t, hsLive.URL, "/eco",
		opsJSON(Op{Kind: "buffer", Net: net, Loads: loads, To: "BUF_X2_SVT"}))
	if code != 200 {
		t.Fatalf("/eco buffer: %d %s", code, body)
	}
	hsLive.Close()
	live.Close()

	snap, err := pack.Load(rep.Path)
	if err != nil {
		t.Fatal(err)
	}
	rewound, _ := newTestServer(t, func(c *Config) {
		*c = Config{QueryWorkers: 4, SnapshotDir: dir, Restore: snap,
			RestorePath: rep.Path, RestoreToEpoch: 1}
	})
	if rewound.Epoch() != 1 {
		t.Fatalf("rewound epoch %d, want 1", rewound.Epoch())
	}
	recs, _, err := pack.ReadLog(filepath.Join(dir, LogName))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0].Epoch != 1 {
		t.Fatalf("log after rewind: %+v, want exactly epoch 1", recs)
	}
}

// A log whose next record skips an epoch belongs to a different timeline:
// boot must fail, not serve silently wrong state.
func TestLogEpochGapFailsBoot(t *testing.T) {
	dir := t.TempDir()
	l, err := pack.OpenLog(filepath.Join(dir, LogName))
	if err != nil {
		t.Fatal(err)
	}
	cell, to := resizeTarget(t)
	if err := l.Append(pack.EpochRecord{Epoch: 5,
		Ops: []pack.EpochOp{{Kind: "resize", Cell: cell, To: to}}}); err != nil {
		t.Fatal(err)
	}
	l.Close()
	cfg := testConfig(t)
	cfg.SnapshotDir = dir
	if _, err := NewServer(cfg); err == nil {
		t.Fatal("boot succeeded over an epoch-gapped log")
	}
}

func TestSaveWithoutSnapshotDir(t *testing.T) {
	_, hs := newTestServer(t, nil)
	code, body := post(t, hs.URL, "/admin/save", "")
	if code != 400 {
		t.Fatalf("/admin/save without dir: %d %s", code, body)
	}
}

// A pack whose derater no delay can be derated by decodes, since the pack
// holds what it was given, but the server restored from it refuses to
// boot, naming the scenario that carries it.
func TestRestoreRefusesBadDerate(t *testing.T) {
	recipe, stack, d := fixture(t)
	recipe.Scenarios = append([]core.Scenario(nil), recipe.Scenarios...)
	bad := &recipe.Scenarios[len(recipe.Scenarios)-1]
	flat := sta.DefaultFlatOCV()
	flat.NetEarly = -flat.NetEarly
	bad.Derate = flat
	b, err := pack.Encode(&pack.Snapshot{
		Design: d, Recipe: &recipe, Stack: stack, ClockPort: "clk",
		BasePeriod: 560, Seed: 7, Parasitics: sta.NewKeyedNetBinder(stack, 7),
	})
	if err != nil {
		t.Fatal(err)
	}
	snap, err := pack.Decode(b)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewServer(Config{Restore: snap})
	if err == nil {
		s.Close()
		t.Fatal("a server restored from a pack with a negative net derate booted")
	}
	if !strings.Contains(err.Error(), "scenario "+bad.Name+":") || !strings.Contains(err.Error(), "derate") {
		t.Errorf("boot error %q does not name scenario %s and its derate", err, bad.Name)
	}
}

// A pack written by an older format version is refused by name at load,
// before the server sees any of it, and a boot from what the load returned
// fails without a panic.
func TestRestoreRefusesOldPack(t *testing.T) {
	dir := t.TempDir()
	_, hs := newTestServer(t, func(c *Config) { c.SnapshotDir = dir })
	rep := saveSnapshot(t, hs.URL)
	b, err := os.ReadFile(rep.Path)
	if err != nil {
		t.Fatal(err)
	}
	binary.LittleEndian.PutUint16(b[4:], 1)
	old := filepath.Join(dir, "old.pack")
	if err := os.WriteFile(old, b, 0o644); err != nil {
		t.Fatal(err)
	}
	snap, err := pack.Load(old)
	if err == nil || !strings.Contains(err.Error(), "version 1") || !strings.Contains(err.Error(), "want 2") {
		t.Fatalf("loading a version 1 pack: %v, want an error naming versions 1 and 2", err)
	}
	if s, err := NewServer(Config{Restore: snap, RestorePath: old}); err == nil {
		s.Close()
		t.Error("a server booted from a refused pack")
	}
}
