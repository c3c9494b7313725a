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
	"newgame/internal/triage"
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
// decoded into out when non-nil, anything else a *StatusError. Do and Get
// are the one outbound request path of the repository: the typed methods,
// the cluster coordinator's forwards and the worker agent all end in their
// shared retry loop. Backpressure refusals are retried within the client's
// RetryPolicy: exponential backoff from BaseDelay, floored at the server's
// Retry-After advice, jittered, bounded by MaxAttempts and MaxElapsed. An
// exhausted budget returns the last 429 *StatusError unchanged.
func (c *Client) Do(ctx context.Context, method, path string, body, out any) error {
	data, _, err := c.call(ctx, method, path, body)
	if err != nil || out == nil {
		return err
	}
	return json.Unmarshal(data, out)
}

// Get issues a GET and returns the 2xx body as the server sent it, with the
// epoch its X-Epoch header names: what a caller forwarding or decoding the
// body itself needs. A 2xx without a well-formed X-Epoch is an error.
func (c *Client) Get(ctx context.Context, path string) ([]byte, int64, error) {
	data, hdr, err := c.call(ctx, http.MethodGet, path, nil)
	if err != nil {
		return nil, 0, err
	}
	epoch, err := strconv.ParseInt(hdr.Get("X-Epoch"), 10, 64)
	if err != nil {
		return nil, 0, fmt.Errorf("timingd: GET %s: reply carries no X-Epoch", path)
	}
	return data, epoch, nil
}

// call is the retry loop around one request: the 2xx body and headers.
func (c *Client) call(ctx context.Context, method, path string, body any) ([]byte, http.Header, error) {
	p := c.Retry.withDefaults()
	start := time.Now()
	for attempt := 1; ; attempt++ {
		data, hdr, err := c.doOnce(ctx, method, path, body)
		se, ok := err.(*StatusError)
		if err == nil || !ok || se.Code != http.StatusTooManyRequests {
			return data, hdr, err
		}
		if attempt >= p.MaxAttempts {
			return nil, nil, err
		}
		delay := p.backoffDelay(attempt, se.RetryAfter)
		if time.Since(start)+delay > p.MaxElapsed {
			return nil, nil, err
		}
		if serr := p.doSleep(ctx, delay); serr != nil {
			return nil, nil, err
		}
	}
}

// maxResponseBytes caps how much of an answer doOnce reads: several times
// the largest report the daemon renders (/triage, /paths?k=1000), small
// enough that a misbehaving peer cannot exhaust the caller's memory.
// readAhead caps the buffer sized from an announced length before a byte
// of it has arrived.
const maxResponseBytes, readAhead = 64 << 20, 1 << 20

func (c *Client) doOnce(ctx context.Context, method, path string, body any) ([]byte, http.Header, error) {
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return nil, nil, err
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.Base+path, rd)
	if err != nil {
		return nil, nil, err
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
		return nil, nil, err
	}
	defer resp.Body.Close()
	data, err := readBody(resp)
	if err == nil && len(data) > maxResponseBytes {
		err = fmt.Errorf("response exceeds the %d-byte limit", maxResponseBytes)
	}
	if err != nil {
		return nil, nil, fmt.Errorf("timingd: %s %s: %w", method, path, err)
	}
	if resp.StatusCode/100 != 2 {
		var eb struct {
			Error string `json:"error"`
		}
		json.Unmarshal(data, &eb)
		return nil, nil, &StatusError{
			Code:       resp.StatusCode,
			Msg:        eb.Error,
			RetryAfter: parseRetryAfter(resp.Header.Get("Retry-After")),
		}
	}
	return data, resp.Header, nil
}

// readBody reads an answer of at most maxResponseBytes+1 bytes. A length
// the peer announces (the spine does) is checked before anything is sized
// from it: over maxResponseBytes is refused unread, up to readAhead is read
// into one buffer of that size, and beyond that the buffer grows with the
// bytes that actually arrive.
func readBody(resp *http.Response) ([]byte, error) {
	n := resp.ContentLength
	if n > maxResponseBytes {
		return nil, fmt.Errorf("announced %d-byte response exceeds the %d-byte limit", n, maxResponseBytes)
	}
	if n >= 0 && n <= readAhead {
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

// TriageExtracts fetches the relation-graph extracts of the named
// scenarios from one session read, in the order asked — the leg a cluster
// coordinator gathers from a shard before merging the triage report — and
// the epoch they were rendered at. k and window are forwarded verbatim
// when non-empty, so the shard applies exactly the knobs the client sent.
func (c *Client) TriageExtracts(ctx context.Context, scenarios []string, k, window string) (int64, []triage.ScenarioExtract, error) {
	q := url.Values{"scenario": scenarios}
	if k != "" {
		q.Set("k", k)
	}
	if window != "" {
		q.Set("window", window)
	}
	body, _, err := c.Get(ctx, "/triage/extract?"+q.Encode())
	if err != nil {
		return 0, nil, err
	}
	return triage.DecodeExtracts(body)
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
