// Package client is the Go client for the timingd HTTP/JSON API. It
// shares the wire types with the server package, so a round trip is
// lossless, and it surfaces the daemon's backpressure (429) and timeout
// (504) answers as typed errors callers can branch on.
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"time"

	"newgame/internal/serve"
	"newgame/internal/timingd"
)

// Client talks to one timingd instance.
type Client struct {
	// Base is the server root, e.g. "http://localhost:8374".
	Base string
	// HTTP is the transport; nil uses http.DefaultClient.
	HTTP *http.Client
	// Retry bounds automatic backoff-retry of 429 refusals; the zero
	// value keeps the old single-attempt behavior.
	Retry RetryPolicy
}

// New returns a client for the given base URL.
func New(base string) *Client { return &Client{Base: base} }

// StatusError reports a non-2xx daemon answer.
type StatusError struct {
	Code int
	Msg  string
	// RetryAfter is the server's Retry-After advice on 429 answers
	// (zero when absent).
	RetryAfter time.Duration
}

func (e *StatusError) Error() string {
	return fmt.Sprintf("timingd: %d %s: %s", e.Code, http.StatusText(e.Code), e.Msg)
}

func (c *Client) httpClient() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	return http.DefaultClient
}

// Do issues one API call — body JSON-encoded when non-nil, a 2xx answer
// decoded into out when non-nil, anything else a *StatusError — and is the
// one outbound request path of the repository: the typed methods, the
// cluster coordinator's verbatim forwards and the worker agent all end
// here. Backpressure refusals are retried within the client's RetryPolicy:
// exponential backoff from BaseDelay, floored at the server's Retry-After
// advice, jittered, bounded by MaxAttempts and MaxElapsed. An exhausted
// budget returns the last 429 *StatusError unchanged.
func (c *Client) Do(ctx context.Context, method, path string, body, out any) error {
	p := c.Retry.withDefaults()
	start := time.Now()
	for attempt := 1; ; attempt++ {
		err := c.doOnce(ctx, method, path, body, out)
		se, ok := err.(*StatusError)
		if err == nil || !ok || se.Code != http.StatusTooManyRequests {
			return err
		}
		if attempt >= p.MaxAttempts {
			return err
		}
		delay := p.backoffDelay(attempt, se.RetryAfter)
		if time.Since(start)+delay > p.MaxElapsed {
			return err
		}
		if serr := p.doSleep(ctx, delay); serr != nil {
			return err
		}
	}
}

// maxResponseBytes caps how much of an answer doOnce reads: several times
// the largest report the daemon renders (/triage, /paths?k=1000), small
// enough that a misbehaving peer cannot exhaust the caller's memory.
const maxResponseBytes = 64 << 20

func (c *Client) doOnce(ctx context.Context, method, path string, body, out any) error {
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return err
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.Base+path, rd)
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	// A call made while serving a spine request carries that request's
	// trace ID on, so one ID follows it through every process it touches.
	if id := serve.TraceIDFrom(ctx); id != "" {
		req.Header.Set("X-Trace-Id", id)
	}
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := readBody(resp)
	if err != nil {
		return err
	}
	if len(data) > maxResponseBytes {
		return fmt.Errorf("timingd: %s %s: response exceeds the %d-byte limit", method, path, maxResponseBytes)
	}
	if resp.StatusCode/100 != 2 {
		var eb struct {
			Error string `json:"error"`
		}
		json.Unmarshal(data, &eb)
		return &StatusError{
			Code:       resp.StatusCode,
			Msg:        eb.Error,
			RetryAfter: parseRetryAfter(resp.Header.Get("Retry-After")),
		}
	}
	if out == nil {
		return nil
	}
	return json.Unmarshal(data, out)
}

// readBody reads an answer of at most maxResponseBytes+1 bytes: into one
// buffer of the announced size when the peer said how long the body is (the
// spine does), by io.ReadAll's doubling otherwise.
func readBody(resp *http.Response) ([]byte, error) {
	if n := resp.ContentLength; n >= 0 && n <= maxResponseBytes {
		data := make([]byte, n)
		_, err := io.ReadFull(resp.Body, data)
		return data, err
	}
	return io.ReadAll(io.LimitReader(resp.Body, maxResponseBytes+1))
}

// Slack fetches the merged per-scenario WNS/TNS summary.
func (c *Client) Slack(ctx context.Context) (timingd.SlackReport, error) {
	var out timingd.SlackReport
	err := c.Do(ctx, http.MethodGet, "/slack", nil, &out)
	return out, err
}

// Endpoints fetches the limit worst endpoint checks of kind ("setup" or
// "hold") in the named scenario ("" = first scenario).
func (c *Client) Endpoints(ctx context.Context, scenario, kind string, limit int) (timingd.EndpointsReport, error) {
	q := url.Values{}
	if scenario != "" {
		q.Set("scenario", scenario)
	}
	if kind != "" {
		q.Set("kind", kind)
	}
	if limit > 0 {
		q.Set("limit", strconv.Itoa(limit))
	}
	var out timingd.EndpointsReport
	err := c.Do(ctx, http.MethodGet, "/endpoints?"+q.Encode(), nil, &out)
	return out, err
}

// Paths fetches the k worst paths of kind in the named scenario, re-timed
// path-based with CRPR credit.
func (c *Client) Paths(ctx context.Context, scenario, kind string, k int) (timingd.PathsReport, error) {
	q := url.Values{}
	if scenario != "" {
		q.Set("scenario", scenario)
	}
	if kind != "" {
		q.Set("kind", kind)
	}
	if k > 0 {
		q.Set("k", strconv.Itoa(k))
	}
	var out timingd.PathsReport
	err := c.Do(ctx, http.MethodGet, "/paths?"+q.Encode(), nil, &out)
	return out, err
}

// TriageExtract fetches one scenario's relation-graph extract — the unit
// a cluster coordinator gathers from the owning shard before merging the
// triage report. k and window are forwarded verbatim when non-empty so
// the shard applies exactly the knobs the client sent (defaults
// otherwise).
func (c *Client) TriageExtract(ctx context.Context, scenario, k, window string) (timingd.TriageExtract, error) {
	q := url.Values{}
	if scenario != "" {
		q.Set("scenario", scenario)
	}
	if k != "" {
		q.Set("k", k)
	}
	if window != "" {
		q.Set("window", window)
	}
	var out timingd.TriageExtract
	err := c.Do(ctx, http.MethodGet, "/triage/extract?"+q.Encode(), nil, &out)
	return out, err
}

// WhatIf evaluates ops against the current baseline and rolls them back.
func (c *Client) WhatIf(ctx context.Context, ops []timingd.Op) (timingd.WhatIfReport, error) {
	var out timingd.WhatIfReport
	err := c.Do(ctx, http.MethodPost, "/whatif", timingd.OpsBody{Ops: ops}, &out)
	return out, err
}

// Commit applies ops as an ECO, advancing the epoch.
func (c *Client) Commit(ctx context.Context, ops []timingd.Op) (timingd.WhatIfReport, error) {
	var out timingd.WhatIfReport
	err := c.Do(ctx, http.MethodPost, "/eco", timingd.OpsBody{Ops: ops}, &out)
	return out, err
}

// Health fetches the liveness summary (never queued server-side).
func (c *Client) Health(ctx context.Context) (timingd.Health, error) {
	var out timingd.Health
	err := c.Do(ctx, http.MethodGet, "/healthz", nil, &out)
	return out, err
}
