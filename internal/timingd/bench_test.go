package timingd

import (
	"io"
	"net/http"
	"strings"
	"testing"

	"newgame/internal/obs"
	"newgame/internal/serve"
	"newgame/internal/sta"
	"newgame/internal/triage"
)

// benchTimingdQueryObs measures the warm cached-slack query with and
// without a metrics recorder attached — the overhead budget for the
// observability layer on the hottest read path. The flight recorder and
// trace-ID minting are always on in both runs (they are unconditional by
// design); the recorder adds the per-route counter, error counter and
// latency histogram per request. The Obs-on/Obs-off pair must stay within
// a few percent of each other.
func benchTimingdQueryObs(b *testing.B, withObs bool) {
	_, hs := newTestServer(b, func(c *Config) {
		c.QueryWorkers = 0
		c.QueueDepth = 1024
		if withObs {
			c.Obs = obs.NewRecorder()
		}
	})
	benchGet(b, hs.URL+"/slack") // warm the cache
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchGet(b, hs.URL+"/slack")
	}
}

func BenchmarkTimingdQueryObsOff(b *testing.B) { benchTimingdQueryObs(b, false) }
func BenchmarkTimingdQueryObsOn(b *testing.B)  { benchTimingdQueryObs(b, true) }

// benchGet issues one GET and fails the benchmark on a non-200.
func benchGet(b *testing.B, url string) {
	resp, err := http.Get(url)
	if err != nil {
		b.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 {
		b.Fatalf("status %d", resp.StatusCode)
	}
}

// benchPost issues one JSON POST and fails the benchmark on a non-200.
func benchPost(b *testing.B, url, body string) {
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		b.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 {
		b.Fatalf("status %d", resp.StatusCode)
	}
}

// BenchmarkTriageRender and BenchmarkPathsRender time one render of /triage
// and of /paths?k=10 with its encoding, bytes per op reported: what a cold
// read costs a session whose triage graph and walkers are warm.
func BenchmarkTriageRender(b *testing.B) {
	s, _ := newTestServer(b, nil)
	opts := triage.Options{K: 3, Window: 10}
	benchRender(b, s, func() any { return s.triageReport(s.sess, 0, opts) })
}

func BenchmarkPathsRender(b *testing.B) {
	s, _ := newTestServer(b, nil)
	benchRender(b, s, func() any { return s.sess.pathsReport(0, 0, sta.Setup, 10) })
}

func benchRender(b *testing.B, s *Server, render func() any) {
	s.sess.mu.RLock()
	defer s.sess.mu.RUnlock()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := serve.JSON(render()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTimingdQuery measures the daemon's query latency in
// serial/concurrent pairs over the real HTTP stack:
//
//   - slack cached vs cold (cold purges the query cache every iteration,
//     forcing a render from the resident graphs);
//   - paths cold (k-worst + PBA re-time), triage cold (path extraction per
//     violation, every scenario, plus the merge — the heaviest read) and
//     endpoints cold (a prefix of the resident list), the last two with
//     allocations reported;
//   - whatif (resize + incremental re-time forward and back, serialized by
//     the writer lock), whatif_buffer (a structural edit: the scenario set
//     is re-derived in and again on rollback) and eco (evaluate, publish,
//     log), the last two with allocations reported;
//   - slack while a writer goroutine commits ECOs in a loop (cached reads
//     never take the session's lock; cold ones wait only for a re-time).
//
// The serial/parallel pairs quantify what the epoch cache buys and what
// commit churn costs: cached reads scale with client count, while
// back-to-back commits purge the cache every iteration, so reads degrade
// to cold renders that sometimes wait behind the writer's re-time — but
// they keep answering; nothing fails or stalls unboundedly.
func BenchmarkTimingdQuery(b *testing.B) {
	s, hs := newTestServer(b, func(c *Config) {
		c.QueryWorkers = 0 // all CPUs
		c.QueueDepth = 1024
	})
	cell, to := resizeTarget(b)
	_, _, d := fixture(b)
	oldType := d.Cell(cell).TypeName
	wifBody := opsJSON(Op{Kind: "resize", Cell: cell, To: to})
	bufNet, bufLoads := bufferTarget(b)
	bufBody := opsJSON(Op{Kind: "buffer", Net: bufNet, Loads: bufLoads, To: "BUF_X2_SVT"})

	b.Run("slack_cached_serial", func(b *testing.B) {
		benchGet(b, hs.URL+"/slack") // warm
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			benchGet(b, hs.URL+"/slack")
		}
	})
	b.Run("slack_cached_parallel", func(b *testing.B) {
		benchGet(b, hs.URL+"/slack")
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				benchGet(b, hs.URL+"/slack")
			}
		})
	})
	b.Run("slack_cold_serial", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			s.cache.Purge()
			benchGet(b, hs.URL+"/slack")
		}
	})
	b.Run("paths_cold_serial", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			s.cache.Purge()
			benchGet(b, hs.URL+"/paths?k=5")
		}
	})
	b.Run("triage_cold_serial", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			s.cache.Purge()
			benchGet(b, hs.URL+"/triage")
		}
	})
	b.Run("endpoints_cold_serial", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			s.cache.Purge()
			benchGet(b, hs.URL+"/endpoints?limit=50")
		}
	})
	b.Run("whatif_serial", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			benchPost(b, hs.URL+"/whatif", wifBody)
		}
	})
	b.Run("whatif_buffer", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			benchPost(b, hs.URL+"/whatif", bufBody)
		}
	})
	b.Run("eco_serial", func(b *testing.B) {
		b.ReportAllocs()
		bodies := [2]string{wifBody, opsJSON(Op{Kind: "resize", Cell: cell, To: oldType})}
		for i := 0; i < b.N; i++ {
			benchPost(b, hs.URL+"/eco", bodies[i%2])
		}
		if b.N%2 == 1 { // back to the original netlist for the next sub-benchmark
			benchPost(b, hs.URL+"/eco", bodies[1])
		}
	})
	b.Run("slack_under_commits_parallel", func(b *testing.B) {
		benchGet(b, hs.URL+"/slack")
		stop := make(chan struct{})
		writerDone := make(chan struct{})
		go func() {
			defer close(writerDone)
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				target := to
				if i%2 == 1 {
					target = oldType
				}
				body := opsJSON(Op{Kind: "resize", Cell: cell, To: target})
				resp, err := http.Post(hs.URL+"/eco", "application/json", strings.NewReader(body))
				if err != nil {
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}()
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				benchGet(b, hs.URL+"/slack")
			}
		})
		b.StopTimer()
		close(stop)
		<-writerDone
		// Leave the server at the original netlist so subsequent
		// sub-benchmark ordering doesn't matter.
		body := opsJSON(Op{Kind: "resize", Cell: cell, To: oldType})
		resp, err := http.Post(hs.URL+"/eco", "application/json", strings.NewReader(body))
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	})
}
