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
	return ReadBody(r, func(body []byte) error { return json.Unmarshal(body, v) })
}

// ReadBody reads the request body into pooled scratch, rejecting bodies
// over MaxBodyBytes (ErrBodyTooLarge), and hands it to decode. The bytes
// are valid only during the call. Errors wrap as ReadJSON's do, so
// WriteBodyError answers them.
func ReadBody(r *http.Request, decode func(body []byte) error) error {
	buf := getBuf()
	defer putBuf(buf)
	if err := readBody(buf, r.Body); err != nil {
		return fmt.Errorf("read body: %w", err)
	}
	if err := decode(buf.Bytes()); err != nil {
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
	writeHeader(w, status)
	enc := json.NewEncoder(w)
	if err := enc.Encode(v); err != nil {
		// Headers are out; nothing more we can do but surface it in
		// the body for a human reading a capture.
		fmt.Fprintf(w, `{"errors":[{"message":%q}]}`, err.Error())
	}
}

// WriteJSONBytes writes body, an encoded JSON document, with the given
// status code and WriteJSON's headers.
func WriteJSONBytes(w http.ResponseWriter, status int, body []byte) {
	writeHeader(w, status)
	w.Write(body)
}

func writeHeader(w http.ResponseWriter, status int) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(status)
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
//
// A Doer must not modify the request, as net/http's RoundTripper
// contract already says (*http.Client forks a request before it changes
// anything): DoEndpoint sends the next request to the same endpoint in
// the same http.Request value, writing only its credential and body.
// Reading and closing the body is the Doer's use of it, not a change.
//
// A Doer must not keep the request or its body past the end of the
// exchange: once the response body has been read to its end and closed,
// DoEndpoint reuses the memory both live in for the next request, the
// body bytes included. A body a Doer (or a handler it serves in process)
// needs later is copied out during the exchange. Header values are
// strings nobody rewrites, so a Doer may keep those: net/http's HTTP/2
// client does, in its HPACK table, for the connection's life. The Doers
// in this repository are held to that: *http.Client (its transport has
// written the request by the time the response body reads to its end,
// unless a server answers before reading the whole request and the
// write stalls past the transport's short wait for it, in which case
// the connection is closed under the writer; the partner protocol's
// servers read the request first), simnet.Client (it reads the body
// into a copy of its own before the handler runs, and the handler runs
// before the response exists), faults' injector (it passes the request
// on or drops it), the core study rigs (they read the body into a
// copy), and the bench partner stub and its tracing wrapper (they parse
// the body during Do).
type Doer interface {
	Do(req *http.Request) (*http.Response, error)
}

// maxPooledBytes bounds the buffers the client's pools keep: one
// oversized response or request must not pin its memory forever.
const maxPooledBytes = 1 << 20

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

func getBuf() *scratchBuf { return bufPool.Get().(*scratchBuf) }

// putBuf returns a buffer to the pool unless it grew past maxPooledBytes.
func putBuf(b *scratchBuf) {
	if b.Cap() > maxPooledBytes {
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
	// scratches pools the client's request scratch (DoEndpoint). Owned by
	// the client, not the package: a new client starts with none, whatever
	// ran in the process before it. Behind a pointer because the runtime
	// keeps a used Pool reachable for two collections.
	scratches *sync.Pool
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
		doer:      doer,
		clock:     clock,
		retries:   retries,
		backoff:   ExpBackoff(DefaultRetryBase, DefaultRetryCap, nil),
		scratches: &sync.Pool{New: newReqScratch},
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
	return c.attempts(method, url, "", func() (int, error) {
		return c.doOnce(method, url, payload, out, opts)
	})
}

// attempts runs once until it yields a response below 500, at most
// 1+retries times with the backoff between. On exhaustion the last
// received status rides alongside the error: callers (and failure
// metrics) distinguish an endpoint that answered 5xx from one that never
// answered at all (status 0). The error names url+suffix, joined only
// when there is an error to report.
func (c *Client) attempts(method, url, suffix string, once func() (int, error)) (int, error) {
	var lastErr error
	var lastStatus int
	for attempt := 0; attempt <= c.retries; attempt++ {
		if attempt > 0 {
			c.clock.Sleep(c.backoff(attempt - 1))
		}
		status, err := once()
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
	return lastStatus, fmt.Errorf("%s %s%s: %w", method, url, suffix, lastErr)
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
	status, _, err := readJSONResponse(resp, out)
	return status, err
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
// immediately. clean reports that the body was read to its end and
// closed without error: the exchange is over and the Doer has no
// further use for the request.
func readJSONResponse(resp *http.Response, out any) (status int, clean bool, err error) {
	buf := getBuf()
	defer putBuf(buf)
	err = readBody(buf, resp.Body)
	cerr := resp.Body.Close()
	if err != nil {
		return 0, false, fmt.Errorf("read response: %w", err)
	}
	data := buf.Bytes()
	if out != nil && resp.StatusCode < 300 && len(data) > 0 {
		if bd, ok := out.(BodyDecoder); ok {
			err = bd.DecodeBody(resp.StatusCode, data)
		} else {
			err = json.Unmarshal(data, out)
		}
		if err != nil {
			err = fmt.Errorf("decode response: %w", err)
		}
	}
	return resp.StatusCode, cerr == nil, err
}

// Endpoint is what every request to one URL shares: the method, the
// parsed address and the headers that do not vary. The engine interns
// one per (service, trigger or action) and sends every poll and action
// through it; what differs per request — the bearer credential and the
// body — is handed to DoEndpoint.
type Endpoint struct {
	method string
	target string   // the address as given, for error messages
	url    *url.URL // nil when target did not parse; err says why
	host   string
	// header is shared by every request to the endpoint; Doer
	// implementations must treat request headers as read-only (net/http's
	// transport and the simnet client both do — simnet serves handlers a
	// clone).
	header http.Header
	err    error
}

// NewEndpoint parses rawURL once. header holds the headers every request
// carries, under canonical keys, and is read-only from here on. An
// address that does not parse still yields an endpoint: every request to
// it fails with the parse error and status 0, retried like any transport
// failure, so a caller holding many endpoints needs no second path for a
// bad one. Err reports it up front.
func NewEndpoint(method, rawURL string, header http.Header) *Endpoint {
	ep := &Endpoint{method: method, target: rawURL, header: header}
	if ep.url, ep.err = url.Parse(rawURL); ep.err == nil {
		ep.host = ep.url.Host
	}
	return ep
}

// Err is the error every request to the endpoint fails with, nil for an
// endpoint whose address parsed.
func (ep *Endpoint) Err() error { return ep.err }

// Prepared is a precomputed request prototype: an endpoint plus a JSON
// body marshalled once, for a request that is sent repeatedly unchanged.
type Prepared struct {
	ep   *Endpoint
	body []byte
}

// NewPrepared builds a request prototype. body, when non-nil, is
// marshalled to JSON now; opts apply once to the prototype's headers.
func NewPrepared(method, rawURL string, body any, opts ...RequestOpt) (*Prepared, error) {
	h := make(http.Header, 2+len(opts))
	ep := NewEndpoint(method, rawURL, h)
	if ep.err != nil {
		return nil, fmt.Errorf("parse url: %w", ep.err)
	}
	var payload []byte
	if body != nil {
		var err error
		if payload, err = json.Marshal(body); err != nil {
			return nil, fmt.Errorf("marshal request: %w", err)
		}
		h.Set("Content-Type", "application/json; charset=utf-8")
	}
	h.Set("Accept", "application/json")
	// Options configure a carrier request during the call and must not
	// retain it (same contract as the per-attempt requests DoJSON hands
	// them).
	carrier := &http.Request{Header: h, URL: ep.url, Host: ep.host}
	for _, opt := range opts {
		opt(carrier)
	}
	ep.header, ep.host = carrier.Header, carrier.Host
	return &Prepared{ep: ep, body: payload}, nil
}

// DoPrepared sends a prototype request with the same retry and decode
// semantics as DoJSON.
func (c *Client) DoPrepared(p *Prepared, out any) (int, error) {
	return c.DoEndpoint(p.ep, "", "", p.body, out)
}

// DoEndpoint sends body (JSON already, sent as is; empty for none) to
// ep with the same retry and decode semantics as DoJSON. suffix, when
// not empty, is appended to ep's path (it must not need escaping): the
// joined path is then the one string a call allocates. auth, when not
// empty, is the request's Authorization value; the Doer may keep it (see
// Doer). Nothing is parsed, marshalled or canonicalised, and each
// attempt's request is assembled in pooled scratch (see reqScratch) that
// body is copied into: body is only read, and only until DoEndpoint
// returns, so the caller may render the next request into the same
// buffer right away, whatever a transport that gave up on an attempt
// still reads. Once the pools are warm, a call without suffix allocates
// nothing of its own; what the Doer allocates for its response is its
// own.
func (c *Client) DoEndpoint(ep *Endpoint, suffix, auth string, body []byte, out any) (int, error) {
	return c.attempts(ep.method, ep.target, suffix, func() (int, error) {
		if ep.err != nil {
			return 0, ep.err
		}
		sc := c.scratches.Get().(*reqScratch)
		resp, err := c.doer.Do(sc.request(ep, suffix, auth, body))
		if err != nil {
			// A transport that gave up on the exchange may still be
			// reading the request; the scratch is its to keep.
			return 0, err
		}
		status, clean, err := readJSONResponse(resp, out)
		if clean && cap(sc.buf) <= maxPooledBytes {
			sc.recycle()
			c.scratches.Put(sc)
		}
		return status, err
	})
}

// reqScratch is one outgoing request's memory: the http.Request, its
// header map, the one-value slice behind the Authorization header, a
// copy of the body and the body reader. A Doer may go on reading a
// request after it has given up on it — net/http's transport writes the
// request from a goroutine of its own — so a scratch returns to the pool
// only from an exchange that ran to its end (response body drained and
// closed without error); otherwise it is left to the collector and the
// next request starts from a new one.
type reqScratch struct {
	req    http.Request
	header http.Header
	auth   [1]string
	buf    []byte // the body
	body   bodyReader
	// url is the request's address when it extends the endpoint's path.
	url url.URL
	// getBody is bound to the scratch once, so handing the transport a
	// way to replay the body costs a request nothing.
	getBody func() (io.ReadCloser, error)
	// req is built for ep, with the Authorization header when withAuth and
	// ep's path extended by suffix; request builds it again only when the
	// next request differs in one of the three.
	ep       *Endpoint
	withAuth bool
	suffix   string
}

func newReqScratch() any {
	sc := &reqScratch{header: make(http.Header, 4)}
	sc.getBody = func() (io.ReadCloser, error) {
		r := new(bodyReader)
		*r = sc.body
		_, err := r.Seek(0, io.SeekStart)
		return r, err
	}
	return sc
}

// bodyReader is a request body over the scratch's bytes: reader and
// no-op closer in one.
type bodyReader struct{ bytes.Reader }

func (*bodyReader) Close() error { return nil }

// request assembles the request for ep, suffix, auth and body in the
// scratch. A Doer does not modify the request (see Doer), so what the
// previous request left is still as it was built: of a request to the
// same endpoint, with or without a credential as before, under the same
// suffix, only the credential's value and the body are written.
func (sc *reqScratch) request(ep *Endpoint, suffix, auth string, body []byte) *http.Request {
	withAuth := auth != ""
	if sc.ep != ep || sc.withAuth != withAuth || sc.suffix != suffix {
		sc.build(ep, suffix, withAuth)
	}
	sc.auth[0] = auth
	if len(body) > 0 {
		sc.buf = append(sc.buf[:0], body...)
		sc.body.Reset(sc.buf)
		if sc.req.Body == nil {
			sc.req.Body, sc.req.GetBody = &sc.body, sc.getBody
		}
		sc.req.ContentLength = int64(len(body))
	} else if sc.req.Body != nil {
		sc.req.Body, sc.req.ContentLength, sc.req.GetBody = nil, 0, nil
	}
	return &sc.req
}

// recycle readies the scratch of an exchange that ran to its end for the
// pool: pointing at nothing of the request's but the endpoint its
// request is built for.
func (sc *reqScratch) recycle() {
	sc.auth[0] = ""
	sc.body.Reset(nil)
	if sc.suffix != "" {
		// The joined path holds the caller's suffix: forget it, and the
		// request built around it.
		sc.url, sc.suffix, sc.ep = url.URL{}, "", nil
	}
}

// build fills the header map with ep's entries, and Authorization when
// withAuth, unless it holds them already, and builds the request around
// it, to ep's address with suffix appended to the path.
func (sc *reqScratch) build(ep *Endpoint, suffix string, withAuth bool) {
	if sc.ep != ep || sc.withAuth != withAuth {
		clear(sc.header)
		for k, v := range ep.header {
			sc.header[k] = v
		}
		if withAuth {
			sc.header["Authorization"] = sc.auth[:]
		}
	}
	sc.ep, sc.withAuth, sc.suffix = ep, withAuth, suffix
	sc.req = http.Request{
		Method:     ep.method,
		URL:        ep.url,
		Proto:      "HTTP/1.1",
		ProtoMajor: 1,
		ProtoMinor: 1,
		Header:     sc.header,
		Host:       ep.host,
	}
	if suffix != "" {
		sc.url = *ep.url
		sc.url.Path += suffix
		if sc.url.RawPath != "" {
			sc.url.RawPath += suffix
		}
		sc.req.URL = &sc.url
	}
}
