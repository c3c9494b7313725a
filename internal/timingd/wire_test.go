package timingd

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"strings"
	"testing"
	"text/template"

	"newgame/internal/pack"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata")

// scriptPath is the request script both wire goldens replay.
const scriptPath = "testdata/wire/script.txt"

// wireRequest is one line of the expanded script.
type wireRequest struct{ method, target, body string }

// expandScript executes the script template named name over data and
// parses the result.
func expandScript(t *testing.T, tmpl *template.Template, name string, data any) []wireRequest {
	t.Helper()
	var b strings.Builder
	if err := tmpl.ExecuteTemplate(&b, name, data); err != nil {
		t.Fatal(err)
	}
	var out []wireRequest
	for _, line := range strings.Split(b.String(), "\n") {
		if line = strings.TrimSpace(line); line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		f := strings.SplitN(line, " ", 3)
		req := wireRequest{method: f[0], target: f[1]}
		if len(f) == 3 {
			req.body = f[2]
		}
		out = append(out, req)
	}
	return out
}

// replay sends one request to h in memory and returns its status and body.
func replay(h http.Handler, r wireRequest) (int, []byte) {
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(r.method, r.target, strings.NewReader(r.body)))
	return w.Code, w.Body.Bytes()
}

// checkGolden compares got with the golden file, or rewrites it under
// -update. The goldens hold floats in full, which another architecture may
// round differently (fused multiply-adds).
func checkGolden(t *testing.T, path string, got []byte) {
	t.Helper()
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (go test -run %s -update writes it)", err, t.Name())
	}
	if bytes.Equal(got, want) {
		return
	}
	g, w := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(g) && i < len(w); i++ {
		if g[i] != w[i] {
			t.Fatalf("%s differs at line %d:\n got  %.400s\n want %.400s", path, i+1, g[i], w[i])
		}
	}
	t.Fatalf("%s: %d lines, golden has %d", path, len(g), len(w))
}

// TestWireGolden replays the request script against one node and holds
// every answer — method, target, status and body — to node.golden. The
// script ends in /admin/save: the golden records the pack's length and
// SHA-256, and a server restored from that pack must answer every read the
// way the live one did.
func TestWireGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("wire golden is an amd64 artifact; GOARCH=%s may round differently", runtime.GOARCH)
	}
	dir := t.TempDir()
	live, _ := newTestServer(t, func(c *Config) { c.SnapshotDir = dir })
	cell, to := resizeTarget(t)
	net, loads := bufferTarget(t)
	var names []string
	for _, sc := range live.cfg.Recipe.Scenarios {
		names = append(names, sc.Name)
	}
	data := map[string]any{
		"Scenarios": names,
		"Resize":    Op{Kind: "resize", Cell: cell, To: to},
		"Buffer":    Op{Kind: "buffer", Net: net, Loads: loads, To: "BUF_X2_SVT"},
		"Node":      true,
	}
	tmpl := template.Must(template.New("script.txt").Funcs(template.FuncMap{
		"json": func(v any) (string, error) { b, err := json.Marshal(v); return string(b), err },
	}).ParseFiles(scriptPath))
	script := expandScript(t, tmpl, "script.txt", data)
	reads := expandScript(t, tmpl, "reads", data)

	var out bytes.Buffer
	var answers [][]byte
	var save SaveReport
	for _, r := range script {
		code, body := replay(live, r)
		answers = append(answers, body)
		if r.target == "/admin/save" {
			if code != http.StatusOK || json.Unmarshal(body, &save) != nil {
				t.Fatalf("/admin/save: %d %s", code, body)
			}
			body = bytes.ReplaceAll(body, []byte(dir), []byte("$SNAPSHOT_DIR"))
		}
		fmt.Fprintf(&out, ">>> %s\n%d\n%s", strings.TrimSpace(r.method+" "+r.target+" "+r.body), code, body)
	}
	packBytes, err := os.ReadFile(save.Path)
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(&out, ">>> pack %d bytes, sha256 %x\n", len(packBytes), sha256.Sum256(packBytes))
	checkGolden(t, "testdata/wire/node.golden", out.Bytes())

	// The last reads block ran just before the save: the restored server
	// must answer it identically.
	snap, err := pack.Decode(packBytes)
	if err != nil {
		t.Fatal(err)
	}
	restored, _ := newTestServer(t, func(c *Config) { *c = Config{QueryWorkers: 4, Restore: snap} })
	liveReads := answers[len(answers)-1-len(reads) : len(answers)-1]
	for i, r := range reads {
		if _, body := replay(restored, r); !bytes.Equal(body, liveReads[i]) {
			t.Errorf("restored %s %s:\n%.400s\nlive:\n%.400s", r.method, r.target, body, liveReads[i])
		}
	}
}
