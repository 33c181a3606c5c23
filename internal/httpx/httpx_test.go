package httpx

import (
	"errors"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/simtime"
)

type payload struct {
	Name  string `json:"name"`
	Count int    `json:"count"`
}

func TestReadWriteJSONRoundTrip(t *testing.T) {
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var p payload
		if err := ReadJSON(r, &p); err != nil {
			WriteError(w, http.StatusBadRequest, err.Error())
			return
		}
		p.Count++
		WriteJSON(w, http.StatusOK, p)
	})
	srv := httptest.NewServer(h)
	defer srv.Close()

	c := NewClient(srv.Client(), simtime.NewReal(), 0)
	var out payload
	status, err := c.DoJSON("POST", srv.URL, payload{Name: "x", Count: 1}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if status != http.StatusOK || out.Count != 2 || out.Name != "x" {
		t.Fatalf("status=%d out=%+v", status, out)
	}
}

func TestReadJSONRejectsTrailingData(t *testing.T) {
	r := httptest.NewRequest("POST", "/", strings.NewReader(`{"name":"a"} {"extra":1}`))
	var p payload
	if err := ReadJSON(r, &p); err == nil {
		t.Fatal("trailing data accepted")
	}
}

func TestReadJSONRejectsGarbage(t *testing.T) {
	r := httptest.NewRequest("POST", "/", strings.NewReader(`not json`))
	var p payload
	if err := ReadJSON(r, &p); err == nil {
		t.Fatal("garbage accepted")
	}
}

func TestClientRetriesOn5xx(t *testing.T) {
	var calls atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) < 3 {
			w.WriteHeader(http.StatusServiceUnavailable)
			return
		}
		WriteJSON(w, http.StatusOK, payload{Name: "ok"})
	}))
	defer srv.Close()

	c := NewClient(srv.Client(), simtime.NewReal(), 3)
	c.backoff = func(int) time.Duration { return 0 }
	var out payload
	status, err := c.DoJSON("GET", srv.URL, nil, &out)
	if err != nil {
		t.Fatal(err)
	}
	if status != http.StatusOK || calls.Load() != 3 {
		t.Fatalf("status=%d calls=%d", status, calls.Load())
	}
}

func TestClientGivesUpAfterRetries(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusInternalServerError)
	}))
	defer srv.Close()

	c := NewClient(srv.Client(), simtime.NewReal(), 2)
	c.backoff = func(int) time.Duration { return 0 }
	if _, err := c.DoJSON("GET", srv.URL, nil, nil); err == nil {
		t.Fatal("expected error after exhausting retries")
	}
}

func TestClientDoesNotRetry4xx(t *testing.T) {
	var calls atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		WriteError(w, http.StatusUnauthorized, "bad key")
	}))
	defer srv.Close()

	c := NewClient(srv.Client(), simtime.NewReal(), 5)
	status, err := c.DoJSON("GET", srv.URL, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if status != http.StatusUnauthorized || calls.Load() != 1 {
		t.Fatalf("status=%d calls=%d, want 401 after exactly 1 call", status, calls.Load())
	}
}

func TestWithHeader(t *testing.T) {
	var got string
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		got = r.Header.Get("IFTTT-Service-Key")
		w.WriteHeader(http.StatusOK)
	}))
	defer srv.Close()

	c := NewClient(srv.Client(), simtime.NewReal(), 0)
	if _, err := c.DoJSON("GET", srv.URL, nil, nil, WithHeader("IFTTT-Service-Key", "k123")); err != nil {
		t.Fatal(err)
	}
	if got != "k123" {
		t.Fatalf("header = %q", got)
	}
}

func TestMiddlewareChain(t *testing.T) {
	log := slog.New(slog.NewTextHandler(&strings.Builder{}, nil))
	inner := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Header.Get(RequestIDHeader) == "" {
			t.Error("request ID missing inside handler")
		}
		w.WriteHeader(http.StatusNoContent)
	})
	h := Chain(inner, RequestID, func(next http.Handler) http.Handler { return Logging(log, next) })

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/x", nil))
	if rec.Code != http.StatusNoContent {
		t.Fatalf("code = %d", rec.Code)
	}
	if rec.Header().Get(RequestIDHeader) == "" {
		t.Fatal("request ID not echoed")
	}
}

func TestRequestIDPreserved(t *testing.T) {
	h := RequestID(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	req := httptest.NewRequest("GET", "/", nil)
	req.Header.Set(RequestIDHeader, "caller-chosen")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Header().Get(RequestIDHeader) != "caller-chosen" {
		t.Fatal("caller-supplied request ID replaced")
	}
}

func TestRecoverMiddleware(t *testing.T) {
	h := Recover(nil, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		panic("boom")
	}))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/", nil))
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("code = %d, want 500", rec.Code)
	}
}

func TestPreparedRoundTrip(t *testing.T) {
	var gotKey, gotCT string
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		gotKey = r.Header.Get("IFTTT-Service-Key")
		gotCT = r.Header.Get("Content-Type")
		var p payload
		if err := ReadJSON(r, &p); err != nil {
			WriteError(w, http.StatusBadRequest, err.Error())
			return
		}
		p.Count++
		WriteJSON(w, http.StatusOK, p)
	}))
	defer srv.Close()

	p, err := NewPrepared("POST", srv.URL, payload{Name: "x", Count: 1},
		WithHeader("IFTTT-Service-Key", "k123"))
	if err != nil {
		t.Fatal(err)
	}
	c := NewClient(srv.Client(), simtime.NewReal(), 0)
	// Send twice through the same prototype: the shared URL, headers and
	// body must survive reuse.
	for i := 0; i < 2; i++ {
		var out payload
		status, err := c.DoJSON("POST", srv.URL, nil, nil) // unrelated call between sends
		_ = status
		if err != nil {
			t.Fatal(err)
		}
		status, err = c.DoPrepared(p, &out)
		if err != nil {
			t.Fatal(err)
		}
		if status != http.StatusOK || out.Count != 2 || out.Name != "x" {
			t.Fatalf("send %d: status=%d out=%+v", i, status, out)
		}
		if gotKey != "k123" || gotCT != "application/json; charset=utf-8" {
			t.Fatalf("send %d: key=%q content-type=%q", i, gotKey, gotCT)
		}
	}
}

func TestPreparedRetriesOn5xx(t *testing.T) {
	var calls atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var p payload
		if err := ReadJSON(r, &p); err != nil {
			// The retried request must carry a fresh, complete body.
			WriteError(w, http.StatusBadRequest, err.Error())
			return
		}
		if calls.Add(1) < 3 {
			w.WriteHeader(http.StatusServiceUnavailable)
			return
		}
		WriteJSON(w, http.StatusOK, p)
	}))
	defer srv.Close()

	p, err := NewPrepared("POST", srv.URL, payload{Name: "retry"})
	if err != nil {
		t.Fatal(err)
	}
	c := NewClient(srv.Client(), simtime.NewReal(), 3)
	c.backoff = func(int) time.Duration { return 0 }
	var out payload
	status, err := c.DoPrepared(p, &out)
	if err != nil {
		t.Fatal(err)
	}
	if status != http.StatusOK || calls.Load() != 3 || out.Name != "retry" {
		t.Fatalf("status=%d calls=%d out=%+v", status, calls.Load(), out)
	}
}

func TestPreparedDecodeError(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
		w.Write([]byte("not json"))
	}))
	defer srv.Close()

	p, err := NewPrepared("GET", srv.URL, nil)
	if err != nil {
		t.Fatal(err)
	}
	c := NewClient(srv.Client(), simtime.NewReal(), 0)
	var out payload
	if _, err := c.DoPrepared(p, &out); err == nil {
		t.Fatal("malformed response body decoded without error")
	}
}

func TestNewPreparedRejectsBadURL(t *testing.T) {
	if _, err := NewPrepared("GET", "http://bad url with spaces/%zz", nil); err == nil {
		t.Fatal("unparseable URL accepted")
	}
}

// Bodies over MaxBodyBytes are refused by name, in both directions:
// they used to be cut at the limit and surface as "unexpected EOF".

func TestReadJSONRejectsOversizedBody(t *testing.T) {
	atLimit := `{"name":"` + strings.Repeat("a", MaxBodyBytes-len(`{"name":""}`)) + `"}`
	var p payload
	if err := ReadJSON(httptest.NewRequest("POST", "/", strings.NewReader(atLimit)), &p); err != nil {
		t.Fatalf("body of exactly MaxBodyBytes rejected: %v", err)
	}
	r := httptest.NewRequest("POST", "/", strings.NewReader(atLimit+" "))
	err := ReadJSON(r, &p)
	if !errors.Is(err, ErrBodyTooLarge) {
		t.Fatalf("oversized body: err = %v, want ErrBodyTooLarge", err)
	}
	rec := httptest.NewRecorder()
	WriteBodyError(rec, err)
	if rec.Code != http.StatusRequestEntityTooLarge || !strings.Contains(rec.Body.String(), "body exceeds 4 MiB") {
		t.Errorf("oversized body answered %d %s, want 413 naming the limit", rec.Code, rec.Body)
	}
	rec = httptest.NewRecorder()
	WriteBodyError(rec, ReadJSON(httptest.NewRequest("POST", "/", strings.NewReader(`{`)), &p))
	if rec.Code != http.StatusBadRequest {
		t.Errorf("malformed body answered %d, want 400", rec.Code)
	}
}

func TestClientRejectsOversizedResponse(t *testing.T) {
	c := NewClient(memDoer{body: `{"name":"` + strings.Repeat("a", MaxBodyBytes) + `"}`}, simtime.NewReal(), 0)
	var out payload
	_, err := c.DoJSON("GET", "http://svc.sim/big", nil, &out)
	if !errors.Is(err, ErrBodyTooLarge) {
		t.Fatalf("oversized response: err = %v, want ErrBodyTooLarge", err)
	}
}

// statusDoer answers each request with the next scripted response.
type statusDoer struct {
	script []memResponse
	calls  int
}

type memResponse struct {
	status int
	body   string
}

func (d *statusDoer) Do(req *http.Request) (*http.Response, error) {
	r := d.script[d.calls]
	d.calls++
	return &http.Response{StatusCode: r.status, Body: io.NopCloser(strings.NewReader(r.body))}, nil
}

// recordingTarget is a BodyDecoder that refuses bodies starting "bad".
type recordingTarget struct {
	status []int
	bodies []string
}

func (r *recordingTarget) DecodeBody(status int, body []byte) error {
	r.status = append(r.status, status)
	r.bodies = append(r.bodies, string(body))
	if strings.HasPrefix(string(body), "bad") {
		return errors.New("refused")
	}
	return nil
}

func TestBodyDecoderReceivesRawBodyPerAttempt(t *testing.T) {
	p, err := NewPrepared("POST", "http://svc.sim/v1/t", payload{Name: "x"})
	if err != nil {
		t.Fatal(err)
	}
	// A 5xx is retried without consulting the target; a refused 2xx body
	// is retried like a JSON decode error; the accepted one ends the call.
	d := &statusDoer{script: []memResponse{{503, "ignored"}, {200, "bad body"}, {201, "not json at all"}}}
	c := NewClient(d, simtime.NewReal(), 3)
	c.backoff = func(int) time.Duration { return 0 }
	var out recordingTarget
	status, err := c.DoPrepared(p, &out)
	if err != nil || status != 201 || d.calls != 3 {
		t.Fatalf("status=%d err=%v calls=%d, want 201 after 3 attempts", status, err, d.calls)
	}
	if want := []string{"bad body", "not json at all"}; !reflect.DeepEqual(out.bodies, want) || !reflect.DeepEqual(out.status, []int{200, 201}) {
		t.Errorf("target saw bodies %q with statuses %v, want %q", out.bodies, out.status, want)
	}
	// Nothing to decode: an empty 200 and a 404 leave the target alone.
	d = &statusDoer{script: []memResponse{{200, ""}, {404, "no"}}}
	c = NewClient(d, simtime.NewReal(), 0)
	out = recordingTarget{}
	for _, want := range []int{200, 404} {
		if status, err := c.DoJSON("GET", "http://svc.sim/x", nil, &out); err != nil || status != want {
			t.Fatalf("status=%d err=%v, want %d", status, err, want)
		}
	}
	if len(out.bodies) != 0 {
		t.Errorf("target consulted for %q", out.bodies)
	}
	// A refusal on the last attempt surfaces as the call's error.
	d = &statusDoer{script: []memResponse{{200, "bad"}}}
	if status, err := NewClient(d, simtime.NewReal(), 0).DoPrepared(p, &out); err == nil || status != 200 {
		t.Errorf("status=%d err=%v, want the refusal reported with its 200", status, err)
	}
}
