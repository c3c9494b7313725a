package cluster

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"net/http/httptest"
	"os"
	"runtime"
	"strings"
	"testing"
	"text/template"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata")

// TestWireGolden replays the node's request script (minus the routes only a
// node serves) against a coordinator over two scenario shards and holds
// every answer — method, target, status and body — to cluster.golden.
func TestWireGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("wire golden is an amd64 artifact; GOARCH=%s may round differently", runtime.GOARCH)
	}
	f := testFixture(t)
	c, _, _, _ := startShardedPair(t)
	tmpl := template.Must(template.New("script.txt").Funcs(template.FuncMap{
		"json": func(v any) (string, error) { b, err := json.Marshal(v); return string(b), err },
	}).ParseFiles("../timingd/testdata/wire/script.txt"))
	var script strings.Builder
	err := tmpl.Execute(&script, map[string]any{
		"Scenarios": f.names, "Resize": resizeOp(t), "Buffer": bufferOp(t), "Node": false,
	})
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	for _, line := range strings.Split(script.String(), "\n") {
		if line = strings.TrimSpace(line); line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		method, rest, _ := strings.Cut(line, " ")
		target, body, _ := strings.Cut(rest, " ")
		w := httptest.NewRecorder()
		c.Handler().ServeHTTP(w, httptest.NewRequest(method, target, strings.NewReader(body)))
		fmt.Fprintf(&out, ">>> %s\n%d\n%s", line, w.Code, w.Body.Bytes())
	}
	const path = "testdata/wire/cluster.golden"
	if *update {
		if err := os.MkdirAll("testdata/wire", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (go test -run TestWireGolden -update writes it)", err)
	}
	if got := out.Bytes(); !bytes.Equal(got, want) {
		g, w := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(g) && i < len(w); i++ {
			if g[i] != w[i] {
				t.Fatalf("%s differs at line %d:\n got  %.400s\n want %.400s", path, i+1, g[i], w[i])
			}
		}
		t.Fatalf("%s: %d lines, golden has %d", path, len(g), len(w))
	}
}
