package client

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"
)

// refuseN answers 429 (with Retry-After advice) for the first n
// requests, then serves a healthz-shaped 200.
func refuseN(n int, retryAfter string, hits *atomic.Int64) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if hits.Add(1) <= int64(n) {
			if retryAfter != "" {
				w.Header().Set("Retry-After", retryAfter)
			}
			w.WriteHeader(http.StatusTooManyRequests)
			json.NewEncoder(w).Encode(map[string]string{"error": "queue full"})
			return
		}
		json.NewEncoder(w).Encode(map[string]any{"status": "ok"})
	})
}

// isBackpressure reports whether err is the daemon's 429 refusal.
func isBackpressure(err error) bool {
	se, ok := err.(*StatusError)
	return ok && se.Code == http.StatusTooManyRequests
}

// noSleep swaps the backoff sleep for a recording no-op so retry tests
// run instantly and can assert on the computed delays.
func noSleep(delays *[]time.Duration) func(context.Context, time.Duration) error {
	return func(_ context.Context, d time.Duration) error {
		*delays = append(*delays, d)
		return nil
	}
}

// TestRetrySucceedsAfterBackpressure: transient 429s are absorbed
// within the attempt budget and the caller sees only the success.
func TestRetrySucceedsAfterBackpressure(t *testing.T) {
	var hits atomic.Int64
	hs := httptest.NewServer(refuseN(2, "1", &hits))
	defer hs.Close()

	var delays []time.Duration
	cl := New(hs.URL)
	cl.Retry = RetryPolicy{MaxAttempts: 4, BaseDelay: time.Millisecond, MaxDelay: 8 * time.Second, MaxElapsed: time.Minute, sleep: noSleep(&delays)}

	h, err := cl.Health(context.Background())
	if err != nil {
		t.Fatalf("health after transient 429s: %v", err)
	}
	if h.Status != "ok" || hits.Load() != 3 {
		t.Fatalf("status %q after %d hits", h.Status, hits.Load())
	}
	// Both waits honored the server's Retry-After floor of 1s (with up
	// to +25% jitter) rather than the 1ms base.
	if len(delays) != 2 {
		t.Fatalf("delays %v", delays)
	}
	for _, d := range delays {
		if d < 750*time.Millisecond || d > 1500*time.Millisecond {
			t.Fatalf("delay %v ignored Retry-After floor", d)
		}
	}
}

// TestRetryBudgetExhausted: a persistently refusing server yields the
// last 429 unchanged — still classified as backpressure, never morphed
// into a different error.
func TestRetryBudgetExhausted(t *testing.T) {
	var hits atomic.Int64
	hs := httptest.NewServer(refuseN(1000, "", &hits))
	defer hs.Close()

	var delays []time.Duration
	cl := New(hs.URL)
	cl.Retry = RetryPolicy{MaxAttempts: 3, BaseDelay: time.Millisecond, MaxDelay: 4 * time.Millisecond, MaxElapsed: time.Minute, sleep: noSleep(&delays)}

	_, err := cl.Slack(context.Background())
	if !isBackpressure(err) {
		t.Fatalf("exhausted retries must stay backpressure, got %v", err)
	}
	if hits.Load() != 3 || len(delays) != 2 {
		t.Fatalf("%d attempts, %d sleeps", hits.Load(), len(delays))
	}
	// Exponential: second delay ~2x the first (within jitter bands).
	if delays[1] < delays[0] {
		t.Fatalf("delays not increasing: %v", delays)
	}
}

// TestRetryElapsedCap: when the next wait would cross MaxElapsed the
// client gives up immediately instead of sleeping through the budget.
func TestRetryElapsedCap(t *testing.T) {
	var hits atomic.Int64
	hs := httptest.NewServer(refuseN(1000, "30", &hits))
	defer hs.Close()

	cl := New(hs.URL)
	// Retry-After of 30s floors every delay far above the 50ms budget:
	// exactly one attempt, no sleep.
	cl.Retry = RetryPolicy{MaxAttempts: 5, BaseDelay: time.Millisecond, MaxDelay: time.Minute, MaxElapsed: 50 * time.Millisecond}

	start := time.Now()
	_, err := cl.Slack(context.Background())
	if !isBackpressure(err) {
		t.Fatalf("want 429, got %v", err)
	}
	if hits.Load() != 1 {
		t.Fatalf("%d attempts, want 1", hits.Load())
	}
	if time.Since(start) > 5*time.Second {
		t.Fatal("client slept through its elapsed budget")
	}
	if se := err.(*StatusError); se.RetryAfter != 30*time.Second {
		t.Fatalf("RetryAfter = %v", se.RetryAfter)
	}
}

// TestNoRetryOnOtherErrors: non-429 failures are never retried, and the
// zero policy keeps the old single-attempt behavior on 429 too.
func TestNoRetryOnOtherErrors(t *testing.T) {
	var hits atomic.Int64
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		w.WriteHeader(http.StatusBadRequest)
		json.NewEncoder(w).Encode(map[string]string{"error": "bad op"})
	}))
	defer hs.Close()

	cl := New(hs.URL)
	cl.Retry = RetryPolicy{MaxAttempts: 5, BaseDelay: time.Millisecond}
	if _, err := cl.Slack(context.Background()); err == nil || hits.Load() != 1 {
		t.Fatalf("400 retried: err %v, hits %d", err, hits.Load())
	}

	var hits2 atomic.Int64
	hs2 := httptest.NewServer(refuseN(1000, "", &hits2))
	defer hs2.Close()
	cl2 := New(hs2.URL) // zero policy
	if _, err := cl2.Slack(context.Background()); !isBackpressure(err) || hits2.Load() != 1 {
		t.Fatalf("zero policy: err %v, hits %d", err, hits2.Load())
	}
}
