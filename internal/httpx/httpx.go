// Package httpx holds the small HTTP conventions shared by every server
// and client in the repository: JSON body handling with size limits, a
// clock-aware client with retry, and common middleware. Both the live
// (net/http over TCP) and simulated (internal/simnet) deployments go
// through these helpers, which keeps protocol code identical across the
// two modes.
package httpx

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"sync"
	"time"

	"repro/internal/simtime"
)

// MaxBodyBytes caps request and response bodies. The IFTTT partner
// protocol exchanges small JSON documents; 4 MiB is generous (a poll
// response carrying 50 trigger events is a few hundred KiB at most).
const MaxBodyBytes = 4 << 20

// ErrBodyTooLarge reports a request or response body over MaxBodyBytes.
var ErrBodyTooLarge = errors.New("body exceeds 4 MiB")

// readBody drains r into buf, refusing more than MaxBodyBytes: it reads
// one byte past the limit so an oversized body is reported as such
// instead of being cut short and failing later as malformed JSON.
func readBody(buf *scratchBuf, r io.Reader) error {
	buf.limit = io.LimitedReader{R: r, N: MaxBodyBytes + 1}
	_, err := buf.ReadFrom(&buf.limit)
	buf.limit.R = nil
	if err != nil {
		return err
	}
	if buf.Len() > MaxBodyBytes {
		return ErrBodyTooLarge
	}
	return nil
}

// ReadJSON decodes the request body into v, rejecting bodies over
// MaxBodyBytes (ErrBodyTooLarge) and trailing garbage.
func ReadJSON(r *http.Request, v any) error {
	buf := getBuf()
	defer putBuf(buf)
	if err := readBody(buf, r.Body); err != nil {
		return fmt.Errorf("read body: %w", err)
	}
	if err := json.Unmarshal(buf.Bytes(), v); err != nil {
		return fmt.Errorf("decode body: %w", err)
	}
	return nil
}

// WriteBodyError answers a request whose body ReadJSON refused: 413 for
// an oversized body, 400 for anything else.
func WriteBodyError(w http.ResponseWriter, err error) {
	status := http.StatusBadRequest
	if errors.Is(err, ErrBodyTooLarge) {
		status = http.StatusRequestEntityTooLarge
	}
	WriteError(w, status, err.Error())
}

// WriteJSON encodes v with the given status code.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	if err := enc.Encode(v); err != nil {
		// Headers are out; nothing more we can do but surface it in
		// the body for a human reading a capture.
		fmt.Fprintf(w, `{"errors":[{"message":%q}]}`, err.Error())
	}
}

// ErrorBody is the error envelope used by the IFTTT partner-service
// protocol: a list of messages under an "errors" key.
type ErrorBody struct {
	Errors []ErrorMessage `json:"errors"`
}

// ErrorMessage is one entry of an ErrorBody.
type ErrorMessage struct {
	Message string `json:"message"`
	// Status carries optional machine-readable detail; the real
	// protocol uses it to distinguish user-token problems
	// (SKIP vs retry semantics).
	Status string `json:"status,omitempty"`
}

// WriteError writes the protocol error envelope.
func WriteError(w http.ResponseWriter, status int, msg string) {
	WriteJSON(w, status, ErrorBody{Errors: []ErrorMessage{{Message: msg}}})
}

// Doer issues HTTP requests. *http.Client satisfies it, as does the
// simulated transport client.
type Doer interface {
	Do(req *http.Request) (*http.Response, error)
}

// bufPool recycles scratch buffers for request encoding and response
// reads. The engine's poll hot path issues one request per subscription
// per gap; without pooling every poll allocates a marshal buffer and a
// response read buffer that live for microseconds.
var bufPool = sync.Pool{New: func() any { return new(scratchBuf) }}

// scratchBuf is a pooled buffer that carries its own body-size limiter,
// so reading a body through it allocates nothing.
type scratchBuf struct {
	bytes.Buffer
	limit io.LimitedReader
}

// optReqPool recycles the throwaway request that carries RequestOpts
// during NewPrepared — bulk prototype construction (one per engine
// subscription) would otherwise allocate one per call.
var optReqPool = sync.Pool{New: func() any { return new(http.Request) }}

func getBuf() *scratchBuf { return bufPool.Get().(*scratchBuf) }

// putBuf returns a buffer to the pool unless it grew abnormally large
// (one oversized response must not pin a megabyte buffer forever).
func putBuf(b *scratchBuf) {
	if b.Cap() > 1<<20 {
		return
	}
	b.Reset()
	bufPool.Put(b)
}

// Client is a JSON-oriented HTTP client with clock-aware retry. The zero
// value is not usable; construct with NewClient.
type Client struct {
	doer    Doer
	clock   simtime.Clock
	retries int
	backoff func(attempt int) time.Duration
}

// Default retry backoff bounds: 250ms doubling per attempt, saturating
// at 15s however many retries the caller configured.
const (
	DefaultRetryBase = 250 * time.Millisecond
	DefaultRetryCap  = 15 * time.Second
)

// NewClient wraps doer with retry behaviour driven by clock. retries is
// the number of re-attempts after the first try (0 = try once).
func NewClient(doer Doer, clock simtime.Clock, retries int) *Client {
	return &Client{
		doer:    doer,
		clock:   clock,
		retries: retries,
		backoff: ExpBackoff(DefaultRetryBase, DefaultRetryCap, nil),
	}
}

// SetBackoff replaces the retry backoff schedule. fn receives the
// zero-based attempt index (0 = delay before the first retry); use
// ExpBackoff for the standard capped exponential with optional jitter.
func (c *Client) SetBackoff(fn func(attempt int) time.Duration) { c.backoff = fn }

// ExpBackoff returns a capped exponential backoff schedule: base before
// the first retry, doubling per attempt, saturating at limit. The shift
// is clamped so large attempt counts saturate instead of overflowing
// the duration. jitter, when non-nil, is sampled per draw and must
// return a value in [0, 1); the delay is then scaled into
// [0.5, 1.5)×nominal, so retriers that failed at the same instant
// (coalesced subscriptions watching one dead endpoint) spread out
// instead of re-hitting the service in lockstep.
func ExpBackoff(base, limit time.Duration, jitter func() float64) func(attempt int) time.Duration {
	if base <= 0 {
		base = DefaultRetryBase
	}
	if limit < base {
		limit = base
	}
	return func(attempt int) time.Duration {
		d := limit
		if attempt >= 0 && attempt < 32 {
			if exp := base << uint(attempt); exp > 0 && exp < limit {
				d = exp
			}
		}
		if jitter != nil {
			d = time.Duration((0.5 + jitter()) * float64(d))
		}
		return d
	}
}

// RequestOpt mutates an outgoing request before it is sent (e.g. to add
// auth headers).
type RequestOpt func(*http.Request)

// WithHeader returns an option that sets a header on the request.
func WithHeader(key, value string) RequestOpt {
	return func(r *http.Request) { r.Header.Set(key, value) }
}

// DoJSON sends body (marshalled as JSON when non-nil) and decodes the
// response into out (when non-nil and the response has a body). It
// retries on transport errors and 5xx responses. The returned status is
// the final response's code; a non-2xx status is not an error at this
// layer — callers interpret protocol semantics.
func (c *Client) DoJSON(method, url string, body, out any, opts ...RequestOpt) (int, error) {
	// Marshal into a pooled buffer: the payload only lives for the
	// duration of the attempts below, so the allocation is recycled
	// rather than churned on every call.
	var payload []byte
	if body != nil {
		buf := getBuf()
		defer putBuf(buf)
		if err := json.NewEncoder(buf).Encode(body); err != nil {
			return 0, fmt.Errorf("marshal request: %w", err)
		}
		payload = buf.Bytes()
	}

	var lastErr error
	var lastStatus int
	for attempt := 0; attempt <= c.retries; attempt++ {
		if attempt > 0 {
			c.clock.Sleep(c.backoff(attempt - 1))
		}
		status, err := c.doOnce(method, url, payload, out, opts)
		if err == nil && status < 500 {
			return status, nil
		}
		if status != 0 {
			lastStatus = status
		}
		if err != nil {
			lastErr = err
		} else {
			lastErr = fmt.Errorf("server status %d", status)
		}
	}
	// On exhaustion the last received status rides alongside the error:
	// callers (and failure metrics) distinguish an endpoint that answered
	// 5xx from one that never answered at all (status 0).
	return lastStatus, fmt.Errorf("%s %s: %w", method, url, lastErr)
}

func (c *Client) doOnce(method, url string, payload []byte, out any, opts []RequestOpt) (int, error) {
	var rdr io.Reader
	if payload != nil {
		rdr = bytes.NewReader(payload)
	}
	req, err := http.NewRequest(method, url, rdr)
	if err != nil {
		return 0, err
	}
	if payload != nil {
		req.Header.Set("Content-Type", "application/json; charset=utf-8")
	}
	req.Header.Set("Accept", "application/json")
	for _, opt := range opts {
		opt(req)
	}
	resp, err := c.doer.Do(req)
	if err != nil {
		return 0, err
	}
	return readJSONResponse(resp, out)
}

// BodyDecoder is a response target (the out of DoJSON and DoPrepared)
// that decodes the raw body itself instead of going through
// encoding/json. DecodeBody runs once per attempt that yields a 2xx
// response with a body; body is the client's pooled read buffer, valid
// only during the call. Every call starts the target over — a retry's
// body replaces, never extends, what an earlier attempt decoded — and an
// error fails the attempt exactly as a JSON decode error does: it is
// retried, and the next attempt may succeed without a body to decode,
// so a failed DecodeBody must leave nothing behind.
type BodyDecoder interface {
	DecodeBody(status int, body []byte) error
}

// readJSONResponse drains the response through a pooled buffer and
// decodes successful bodies into out. Neither json.Unmarshal nor a
// BodyDecoder keeps a reference into the buffer, so it can be recycled
// immediately.
func readJSONResponse(resp *http.Response, out any) (int, error) {
	defer resp.Body.Close()
	buf := getBuf()
	defer putBuf(buf)
	if err := readBody(buf, resp.Body); err != nil {
		return 0, fmt.Errorf("read response: %w", err)
	}
	data := buf.Bytes()
	if out != nil && resp.StatusCode < 300 && len(data) > 0 {
		var err error
		if bd, ok := out.(BodyDecoder); ok {
			err = bd.DecodeBody(resp.StatusCode, data)
		} else {
			err = json.Unmarshal(data, out)
		}
		if err != nil {
			return resp.StatusCode, fmt.Errorf("decode response: %w", err)
		}
	}
	return resp.StatusCode, nil
}

// Prepared is a precomputed request prototype for an endpoint that is
// hit repeatedly with an identical method, URL, headers, and body — the
// engine's per-subscription trigger poll is the motivating case. The
// URL is parsed and the body marshalled exactly once, at construction;
// each send then only allocates the per-request shell (http.Request and
// a body reader), keeping URL formatting, JSON encoding, and header
// canonicalization off the hot path.
type Prepared struct {
	method string
	url    *url.URL
	host   string
	// header is built once and shared by every request issued from this
	// prototype; Doer implementations must treat request headers as
	// read-only (net/http's transport and the simnet client both do —
	// simnet serves handlers a clone).
	header http.Header
	body   []byte
}

// NewPrepared builds a request prototype. body, when non-nil, is
// marshalled to JSON now; opts apply once to the prototype's headers.
func NewPrepared(method, rawURL string, body any, opts ...RequestOpt) (*Prepared, error) {
	u, err := url.Parse(rawURL)
	if err != nil {
		return nil, fmt.Errorf("parse url: %w", err)
	}
	var payload []byte
	if body != nil {
		payload, err = json.Marshal(body)
		if err != nil {
			return nil, fmt.Errorf("marshal request: %w", err)
		}
	}
	var h http.Header
	if len(opts) == 0 {
		// No options may mutate the header, so all option-free
		// prototypes can share one read-only header map. This matters
		// when preparing requests in bulk (one per engine
		// subscription): it saves the map, its value slices, and the
		// throwaway option-carrier request on every call.
		if payload != nil {
			h = jsonBodyHeader
		} else {
			h = noBodyHeader
		}
	} else {
		h = make(http.Header, 4)
		if payload != nil {
			h.Set("Content-Type", "application/json; charset=utf-8")
		}
		h.Set("Accept", "application/json")
		// Options receive a pooled carrier request: they configure it
		// during the call and must not retain it (same contract as the
		// per-attempt requests DoJSON hands them).
		tmp := optReqPool.Get().(*http.Request)
		tmp.Header, tmp.URL, tmp.Host = h, u, u.Host
		for _, opt := range opts {
			opt(tmp)
		}
		h = tmp.Header
		host := tmp.Host
		*tmp = http.Request{}
		optReqPool.Put(tmp)
		return &Prepared{method: method, url: u, host: host, header: h, body: payload}, nil
	}
	return &Prepared{method: method, url: u, host: u.Host, header: h, body: payload}, nil
}

// PreparedFrom assembles a prototype from parts the caller already
// holds — a parsed URL, a header with canonical keys, an encoded JSON
// body — without parsing, marshalling or canonicalising anything. The
// engine's action path builds one per execution around a cached URL and
// a body rendered into its own buffer; all three parts are read-only
// until the DoPrepared call that sends them returns.
func PreparedFrom(method string, u *url.URL, header http.Header, body []byte) Prepared {
	return Prepared{method: method, url: u, host: u.Host, header: header, body: body}
}

// Shared prototype headers for option-free Prepared requests. Read-only
// by the same contract as Prepared.header itself: the transport writes
// headers to the wire but never mutates them.
var (
	jsonBodyHeader = http.Header{
		"Content-Type": {"application/json; charset=utf-8"},
		"Accept":       {"application/json"},
	}
	noBodyHeader = http.Header{"Accept": {"application/json"}}
)

// DoPrepared sends a prototype request with the same retry and decode
// semantics as DoJSON.
func (c *Client) DoPrepared(p *Prepared, out any) (int, error) {
	var lastErr error
	var lastStatus int
	for attempt := 0; attempt <= c.retries; attempt++ {
		if attempt > 0 {
			c.clock.Sleep(c.backoff(attempt - 1))
		}
		status, err := c.doPreparedOnce(p, out)
		if err == nil && status < 500 {
			return status, nil
		}
		if status != 0 {
			lastStatus = status
		}
		if err != nil {
			lastErr = err
		} else {
			lastErr = fmt.Errorf("server status %d", status)
		}
	}
	// Same exhaustion contract as DoJSON: surface the last real HTTP
	// status so transport failure (0) and HTTP failure stay separable.
	return lastStatus, fmt.Errorf("%s %s: %w", p.method, p.url, lastErr)
}

// bodyReader is a request body over bytes the prototype owns: reader and
// no-op closer in one allocation.
type bodyReader struct{ bytes.Reader }

func (*bodyReader) Close() error { return nil }

func newBodyReader(b []byte) *bodyReader {
	r := new(bodyReader)
	r.Reset(b)
	return r
}

func (c *Client) doPreparedOnce(p *Prepared, out any) (int, error) {
	req := &http.Request{
		Method:     p.method,
		URL:        p.url,
		Proto:      "HTTP/1.1",
		ProtoMajor: 1,
		ProtoMinor: 1,
		Header:     p.header,
		Host:       p.host,
	}
	if p.body != nil {
		req.Body = newBodyReader(p.body)
		req.ContentLength = int64(len(p.body))
		req.GetBody = func() (io.ReadCloser, error) { return newBodyReader(p.body), nil }
	}
	resp, err := c.doer.Do(req)
	if err != nil {
		return 0, err
	}
	return readJSONResponse(resp, out)
}
