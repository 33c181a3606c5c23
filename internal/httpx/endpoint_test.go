package httpx

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/simtime"
)

func testEndpoint() *Endpoint {
	return NewEndpoint("POST", "http://svc.sim:81/v1/t?x=1", http.Header{
		"Content-Type": {"application/json"}, "X-Key": {"k"}})
}

type doerFunc func(*http.Request) (*http.Response, error)

func (f doerFunc) Do(req *http.Request) (*http.Response, error) { return f(req) }

// TestDoEndpointAssemblesRequest sends requests that differ in endpoint,
// credential and body back to back, so each is assembled in the scratch
// the one before it left behind.
func TestDoEndpointAssemblesRequest(t *testing.T) {
	var got []string
	d := doerFunc(func(req *http.Request) (*http.Response, error) {
		var body, again []byte
		if req.Body != nil {
			body, _ = io.ReadAll(req.Body)
			req.Body.Close()
			replay, err := req.GetBody()
			if err != nil {
				return nil, err
			}
			again, _ = io.ReadAll(replay)
		}
		got = append(got, fmt.Sprintf("%s %s %s %d %q %d %s %s", req.Method, req.URL, req.Host, req.ContentLength,
			req.Header["Authorization"], len(req.Header), body, again))
		return &http.Response{StatusCode: 200, Body: io.NopCloser(strings.NewReader(""))}, nil
	})
	c := NewClient(d, simtime.NewReal(), 0)
	ep, other := testEndpoint(), NewEndpoint("GET", "http://other.sim/", http.Header{"Accept": {"*/*"}})
	for _, call := range []struct {
		ep         *Endpoint
		auth, body string
	}{{ep, "Bearer a", `{"n":1}`}, {ep, "Bearer b", `{"n":22}`}, {other, "", ""}, {ep, "", `{}`}, {ep, "Bearer c", `{"n":3}`}} {
		if status, err := c.DoEndpoint(call.ep, "", call.auth, []byte(call.body), nil); err != nil || status != 200 {
			t.Fatal(status, err)
		}
	}
	want := []string{
		`POST http://svc.sim:81/v1/t?x=1 svc.sim:81 7 ["Bearer a"] 3 {"n":1} {"n":1}`,
		`POST http://svc.sim:81/v1/t?x=1 svc.sim:81 8 ["Bearer b"] 3 {"n":22} {"n":22}`,
		`GET http://other.sim/ other.sim 0 [] 1  `,
		`POST http://svc.sim:81/v1/t?x=1 svc.sim:81 2 [] 2 {} {}`,
		`POST http://svc.sim:81/v1/t?x=1 svc.sim:81 7 ["Bearer c"] 3 {"n":3} {"n":3}`,
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("request %d: %s\nwant       %s", i, got[i], want[i])
		}
	}
}

// TestScratchIsPerClient: what a client's completed exchanges leave
// behind is that client's; another client over the same Doer starts with
// none, whatever ran in the process before it.
func TestScratchIsPerClient(t *testing.T) {
	var who string
	seen := map[*http.Request]string{} // keeps every request reachable: an address is never reused
	d := doerFunc(func(req *http.Request) (*http.Response, error) {
		if owner, ok := seen[req]; ok && owner != who {
			t.Errorf("client %s was handed the request client %s left behind", who, owner)
		}
		seen[req] = who
		return &http.Response{StatusCode: 200, Body: io.NopCloser(strings.NewReader(""))}, nil
	})
	ep := testEndpoint()
	for _, who = range []string{"a", "b"} {
		c := NewClient(d, simtime.NewReal(), 0)
		for i := 0; i < 4; i++ {
			if status, err := c.DoEndpoint(ep, "", "Bearer x", []byte(`{}`), nil); err != nil || status != 200 {
				t.Fatal(status, err)
			}
		}
	}
}

func TestEndpointUnparsableURLFailsEveryAttempt(t *testing.T) {
	ep := NewEndpoint("POST", "http://bad host/%zz", nil)
	if ep.Err() == nil {
		t.Fatal("unparsable URL yields no error")
	}
	calls := 0
	c := NewClient(doerFunc(func(*http.Request) (*http.Response, error) { calls++; return nil, errors.New("reached") }), simtime.NewReal(), 2)
	slept := 0
	c.SetBackoff(func(int) time.Duration { slept++; return 0 })
	status, err := c.DoEndpoint(ep, "", "Bearer a", []byte("{}"), nil)
	if status != 0 || !errors.Is(err, ep.Err()) || !strings.HasPrefix(err.Error(), "POST http://bad host/%zz: parse ") {
		t.Errorf("status %d, err %v: want status 0 and the parse error behind the request line", status, err)
	}
	if calls != 0 || slept != 2 {
		t.Errorf("%d requests sent, %d backoffs: want none sent and the two retries backed off like any transport error", calls, slept)
	}
}

// lingerer is a Doer that gives up on chosen requests the way a
// transport does on a timeout — the call returns, a goroutine goes on
// reading the request — and checks that the request never changes under
// it. The scratch a request is assembled in may be reused for another
// only after an exchange that ran to its end; scratch from any of the
// exchanges below that did not must be left to the collector. Under
// -race a reuse is also a reported data race: the lingering reader
// against the next request's assembly.
type lingerer struct {
	t       *testing.T
	mode    func(auth string) string
	release chan struct{} // closed when the later requests have been made
	done    chan string   // one verdict per lingering reader; "" is good
	linger  int
}

func (l *lingerer) Do(req *http.Request) (*http.Response, error) {
	auth := req.Header["Authorization"][0]
	mode := l.mode(auth)
	if mode == "ok" {
		io.Copy(io.Discard, req.Body)
		return &http.Response{StatusCode: 200, Body: io.NopCloser(strings.NewReader(`{}`))}, nil
	}
	head := make([]byte, 4)
	if _, err := io.ReadFull(req.Body, head); err != nil {
		l.t.Error(err)
	}
	want := fmt.Sprint(auth, req.Host, req.URL, req.ContentLength, len(req.Header))
	l.linger++
	go func() {
		verdict := ""
		check := func() {
			if got := fmt.Sprint(req.Header["Authorization"][0], req.Host, req.URL, req.ContentLength, len(req.Header)); got != want {
				verdict = fmt.Sprintf("%s request changed under its reader: %s, was %s", mode, got, want)
			}
		}
		for waiting := true; waiting; {
			select {
			case <-l.release:
				waiting = false
			default:
				check()
			}
		}
		check()
		rest, _ := io.ReadAll(req.Body)
		if body := string(head) + string(rest); body != `{"for":"`+auth+`"}` {
			verdict = fmt.Sprintf("%s request body read %s after the call returned", mode, body)
		}
		l.done <- verdict
	}()
	switch mode {
	case "fail":
		return nil, errors.New("timed out")
	case "read error":
		return &http.Response{StatusCode: 200, Body: io.NopCloser(io.MultiReader(strings.NewReader(`{"da`), errReader{}))}, nil
	default: // "close error"
		return &http.Response{StatusCode: 200, Body: errCloser{strings.NewReader(`{}`)}}, nil
	}
}

type errReader struct{}

func (errReader) Read([]byte) (int, error) { return 0, errors.New("connection reset") }

type errCloser struct{ io.Reader }

func (errCloser) Close() error { return errors.New("close failed") }

func TestDoEndpointScratchDroppedUnlessExchangeCompleted(t *testing.T) {
	modes := map[string]string{"Bearer 3": "fail", "Bearer 5": "read error", "Bearer 8": "close error"}
	l := &lingerer{t: t, release: make(chan struct{}), done: make(chan string, len(modes)),
		mode: func(auth string) string {
			if m, ok := modes[auth]; ok {
				return m
			}
			return "ok"
		}}
	c := NewClient(l, simtime.NewReal(), 0)
	ep := testEndpoint()
	var buf []byte // every request is rendered into the one caller buffer
	for i := 0; i < 200; i++ {
		auth := fmt.Sprint("Bearer ", i)
		buf = append(append(append(buf[:0], `{"for":"`...), auth...), `"}`...)
		_, err := c.DoEndpoint(ep, "", auth, buf, nil)
		if mode := l.mode(auth); (err != nil) != (mode == "fail" || mode == "read error") {
			t.Fatalf("request %d (%s): err = %v", i, mode, err)
		}
	}
	close(l.release)
	if l.linger != len(modes) {
		t.Fatalf("%d lingering readers, want %d", l.linger, len(modes))
	}
	for range modes {
		if verdict := <-l.done; verdict != "" {
			t.Error(verdict)
		}
	}
}

// TestDoEndpointAbandonedExchangeKeepsItsBytes: DoEndpoint copies the
// body into the attempt's scratch, so a transport that gave up on an
// attempt and goes on reading it sees the credential and the bytes it
// was handed while the caller renders request after request into the
// buffer it passed the body from — after a call that failed, and after
// a first attempt that failed and whose retry succeeded. Under -race a
// request that still read the caller's buffer is also a reported data
// race.
func TestDoEndpointAbandonedExchangeKeepsItsBytes(t *testing.T) {
	for _, tc := range []struct {
		name    string
		retries int
	}{{"call abandoned", 0}, {"first attempt abandoned, retry succeeds", 1}} {
		t.Run(tc.name, func(t *testing.T) {
			const want = `Bearer 0 {"n":0}`
			release := make(chan struct{})
			late := make(chan string, 1)
			attempts := 0
			d := doerFunc(func(req *http.Request) (*http.Response, error) {
				if attempts++; attempts > 1 {
					io.Copy(io.Discard, req.Body)
					return &http.Response{StatusCode: 200, Body: io.NopCloser(strings.NewReader(`{}`))}, nil
				}
				go func() { // reads the request until released, then drains its body
					verdict := ""
					check := func(got string) {
						if got != want && verdict == "" {
							verdict = fmt.Sprintf("the abandoned attempt read %s, want %s", got, want)
						}
					}
					for waiting := true; waiting; {
						select {
						case <-release:
							waiting = false
						default:
							replay, err := req.GetBody()
							if err != nil {
								check(err.Error())
								continue
							}
							body, _ := io.ReadAll(replay)
							check(req.Header["Authorization"][0] + " " + string(body))
						}
					}
					body, _ := io.ReadAll(req.Body)
					check(req.Header["Authorization"][0] + " " + string(body))
					late <- verdict
				}()
				return nil, errors.New("timed out")
			})
			c := NewClient(d, simtime.NewReal(), tc.retries)
			c.SetBackoff(func(int) time.Duration { return 0 })
			ep := testEndpoint()
			var buf []byte
			send := func(i int) error {
				buf = fmt.Appendf(buf[:0], `{"n":%d}`, i)
				_, err := c.DoEndpoint(ep, "", fmt.Sprint("Bearer ", i), buf, nil)
				return err
			}
			if err := send(0); (err != nil) != (tc.retries == 0) {
				t.Fatalf("first call: err = %v with %d retries", err, tc.retries)
			}
			for i := 1; i <= 50; i++ {
				if err := send(i); err != nil {
					t.Fatal(err)
				}
			}
			close(release)
			if verdict := <-late; verdict != "" {
				t.Error(verdict)
			}
		})
	}
}

// TestDoEndpointOverHTTP2 sends requests over one HTTP/2 connection
// through a *http.Client, each with a credential of its own and its body
// rendered into one reused caller buffer. The client keeps header values
// in its HPACK table for the connection's life, so a credential that
// changed after it was sent would be indexed, evicted or sent back under
// the wrong bytes; enough credentials of one length to cycle that table
// several times must each reach the server as they were sent.
func TestDoEndpointOverHTTP2(t *testing.T) {
	const requests = 400
	credential := func(n int) string { return fmt.Sprintf("Bearer tok%06d", n) }
	srv := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var req struct{ N int }
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil || r.ProtoMajor != 2 {
			WriteError(w, http.StatusBadRequest, fmt.Sprintf("%s, body: %v", r.Proto, err))
			return
		}
		if got, want := r.Header.Get("Authorization"), credential(req.N); got != want {
			WriteError(w, http.StatusUnauthorized, fmt.Sprintf("request %d carried %q, want %q", req.N, got, want))
			return
		}
		WriteJSON(w, http.StatusOK, struct{}{})
	}))
	srv.EnableHTTP2 = true
	srv.StartTLS()
	defer srv.Close()
	c := NewClient(srv.Client(), simtime.NewReal(), 0)
	ep := NewEndpoint("POST", srv.URL+"/v1/t", http.Header{"Content-Type": {"application/json"}})
	var buf []byte
	for i := range requests {
		buf = fmt.Appendf(buf[:0], `{"n":%d}`, i)
		if status, err := c.DoEndpoint(ep, "", credential(i), buf, nil); err != nil || status != http.StatusOK {
			t.Fatalf("request %d: status %d, %v", i, status, err)
		}
	}
}
