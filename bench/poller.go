package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"time"
)

const (
	pollInterval = 10 * time.Millisecond // 100 requests a second
	latenessCap  = 10.0                  // ms, one interval: a generator later than this at p99 skipped beats, and the run is void
)

// The open-loop poller is the eco loops' one independent arrival stream —
// a dashboard refreshing /slack — and it runs in a process of its own.
// Inside the benchmark process its timer wake-ups queue behind the
// server's CPU-bound work in the Go scheduler (measured: 8–15 ms late at
// p99 on the 2-core reference box, against 1.2 ms idle); as a separate
// process the kernel schedules it like any remote client (3.5 ms).

// pollStats is what the poller process reports when it is stopped.
type pollStats struct {
	Latency  []float64 `json:"latency_ms"`  // per request, from its due time
	Lateness []float64 `json:"lateness_ms"` // per timer wake-up: how late the generator woke
	Requests int       `json:"requests"`
	Failed   int       `json:"failed"`
	FirstErr string    `json:"first_err,omitempty"`
}

// pollMain is the poller process: GET /slack every pollInterval until
// standard input closes, each request timed from when it was due rather
// than when it was sent, so a stall is charged to every request it delays.
func pollMain(url, tag string) int {
	stop := make(chan struct{})
	go func() {
		io.Copy(io.Discard, os.Stdin)
		close(stop)
	}()
	var ps pollStats
	w := newWire(url, tag)
	ctx := context.Background()
	timer := time.NewTimer(time.Hour)
	start := time.Now()
poll:
	for k := 0; ; k++ {
		due := start.Add(time.Duration(k) * pollInterval)
		if wait := time.Until(due); wait > 0 {
			timer.Reset(wait)
			select {
			case <-stop:
				break poll
			case <-timer.C:
			}
			ps.Lateness = append(ps.Lateness, ms(time.Since(due)))
		}
		select {
		case <-stop:
			break poll
		default:
		}
		rep, err := w.Slack(ctx)
		ps.Latency = append(ps.Latency, ms(time.Since(due)))
		if err == nil && len(rep.Scenarios) == 0 {
			err = fmt.Errorf("empty answer")
		}
		if err != nil {
			if ps.Failed == 0 {
				ps.FirstErr = fmt.Sprintf("poll %d: %v", k, err)
			}
			ps.Failed++
		}
	}
	w.close()
	ps.Requests = w.tap.reqs
	if err := json.NewEncoder(os.Stdout).Encode(ps); err != nil {
		return 1
	}
	return 0
}

// pollerProc is the parent's handle on a running poller.
type pollerProc struct {
	cmd   *exec.Cmd
	stdin io.WriteCloser
	out   bytes.Buffer
}

func startPoller(url, tag string) (*pollerProc, error) {
	cmd, err := selfCmd("-poll", url, "-poll-tag", tag)
	if err != nil {
		return nil, err
	}
	p := &pollerProc{cmd: cmd}
	p.cmd.Stdout, p.cmd.Stderr = &p.out, os.Stderr
	if p.stdin, err = p.cmd.StdinPipe(); err != nil {
		return nil, err
	}
	if err := p.cmd.Start(); err != nil {
		return nil, err
	}
	clientStarted() // the poller's one client goroutine, in its own process
	return p, nil
}

// stop ends the poller, waits for it, and returns its tally.
func (p *pollerProc) stop() (pollStats, error) {
	var ps pollStats
	p.stdin.Close()
	err := p.cmd.Wait()
	clientsLive.Add(-1)
	if err != nil {
		return ps, fmt.Errorf("poller: %w", err)
	}
	return ps, json.Unmarshal(p.out.Bytes(), &ps)
}
