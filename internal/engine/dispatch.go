package engine

import (
	"fmt"
	"net/http"
	"net/url"
	"strings"
	"sync"
	"time"

	"repro/internal/httpx"
	"repro/internal/obs"
	"repro/internal/proto"
)

// pollSubscription performs one trigger poll for a subscription and
// fans the result out to every member applet: each member dedups the
// response against its own ring, and the action is dispatched for every
// event that member has not seen, oldest first. Dispatch is sequential
// within the poll, which is what shapes a backlog of trigger events
// into the action clusters of Fig 6. hintAt is when a realtime poke
// provoked this poll (zero for scheduled polls); every trace event of
// the execution shares one freshly drawn ExecID, and per-applet
// provenance rides on the action/skip events' AppletID.
//
// members and prep are the worker's snapshot, taken under the shard
// lock; the subscription's scratch buffers (fresh slice, ranges) are
// owned by this worker for the duration — a subscription is never
// polled concurrently. The response itself is never held as a value:
// a pooled pollDecoder scans it in the HTTP client's read buffer and
// builds only the events some member has not seen (see collectFresh).
//
// The first return value reports whether the poll itself succeeded (a
// 200 with a decodable body); the worker feeds it to the backoff/
// breaker state machine. Action failures do not count against the
// trigger service's subscription. The second return value is the count
// of events new to the subscription — the lead member's fresh events,
// so late joiners replaying their backlog do not inflate it — which
// the worker feeds to the adaptive EWMA.
func (e *Engine) pollSubscription(sub *subscription, hintAt time.Time, members []*runningApplet, prep *httpx.Prepared) (bool, int) {
	sh := sub.shard
	leadID := members[0].def.ID
	execID := e.execSeq.Add(1)
	e.emit(sh, TraceEvent{Kind: TracePollSent, AppletID: leadID, Service: sub.trigger.Service, ExecID: execID, HintAt: hintAt})
	if n := len(members) - 1; n > 0 {
		sh.counters.pollsCoalesced.Add(int64(n))
	}
	if e.fanout != nil {
		e.fanout.Observe(float64(len(members)))
	}

	sub.fresh, sub.ranges = sub.fresh[:0], sub.ranges[:0]
	dec := pollDecoders.Get().(*pollDecoder)
	dec.sub, dec.members = sub, members
	var status int
	var err error
	if prep != nil {
		status, err = e.client.DoPrepared(prep, dec)
	} else {
		// Fallback for triggers whose base URL failed to parse into a
		// prototype at install time.
		a := &members[0].def
		req := proto.TriggerPollRequest{
			TriggerIdentity: sub.key,
			TriggerFields:   a.Trigger.Fields,
			User:            proto.UserInfo{ID: a.UserID},
			Source:          proto.Source{ID: a.ID},
		}
		if e.pollLimit > 0 {
			limit := e.pollLimit
			req.Limit = &limit
		}
		status, err = e.client.DoJSON("POST",
			proto.TriggerURL(a.Trigger.BaseURL, a.Trigger.Slug), req, dec,
			httpx.WithHeader(proto.ServiceKeyHeader, a.Trigger.ServiceKey),
			httpx.WithHeader("Authorization", "Bearer "+a.Trigger.UserToken),
		)
	}
	dec.release()
	pollDecoders.Put(dec)
	if err != nil || status != http.StatusOK {
		// status 0 means no attempt ever got an HTTP response (pure
		// transport failure); anything else is the endpoint answering
		// with a non-200 (httpx surfaces the last received status even
		// on retry exhaustion).
		if status == 0 {
			sh.counters.pollErrTransport.Add(1)
		} else {
			sh.counters.pollErrHTTP.Add(1)
		}
		msg := "status " + http.StatusText(status)
		if err != nil {
			msg = err.Error()
		}
		e.emit(sh, TraceEvent{Kind: TracePollFailed, AppletID: leadID, ExecID: execID, Err: msg})
		if e.log != nil {
			e.log.Warn("trigger poll failed", "applet", leadID, "err", msg)
		}
		return false, 0
	}

	// The decoder left each member's unseen events in sub.fresh, member
	// by member (empty when the 200 carried no body).
	fresh, ranges := sub.fresh, sub.ranges
	newEvents := 0
	if len(ranges) > 0 {
		newEvents = ranges[0].end - ranges[0].start
	}

	// Checkpoint the dedup delta before any action dispatches: after a
	// crash these events replay as already-seen, so an action issued
	// below can never be issued again by the recovered engine.
	if e.journal != nil && len(fresh) > 0 {
		e.journalCheckpoint(sub, fresh, ranges)
	}
	e.emit(sh, TraceEvent{Kind: TracePollResult, AppletID: leadID, ExecID: execID, N: len(fresh)})
	if len(fresh) > 0 && e.dispatch > 0 {
		e.clock.Sleep(e.dispatch)
	}
	for _, mr := range ranges {
		a := &mr.ra.def
		for _, ev := range fresh[mr.start:mr.end] {
			if !conditionsAllow(a.Conditions, e.clock.Now(), ev.Ingredients) {
				e.emit(sh, TraceEvent{Kind: TraceConditionSkip, AppletID: a.ID, ExecID: execID, EventID: ev.Meta.ID})
				continue
			}
			e.dispatchAction(mr.ra, ev, execID)
		}
	}
	return true, newEvents
}

// pollDecoder is the response target of one trigger poll: an
// httpx.BodyDecoder that scans the body where the client read it and
// does the subscription's dedup before anything is materialised. It
// carries no state between polls — it is pooled, not resident — beyond
// the scanner's scratch and its interned ingredient keys.
type pollDecoder struct {
	scan proto.EventScan
	// built caches event i of the scan once some member needed it, so a
	// coalesced subscription builds each event at most once.
	built   []proto.TriggerEvent
	sub     *subscription
	members []*runningApplet
}

var pollDecoders = sync.Pool{New: func() any { return new(pollDecoder) }}

// maxPooledBuilt bounds the build cache a decoder keeps between polls;
// a protocol-sized response holds at most proto.DefaultLimit events.
const maxPooledBuilt = 4 * proto.DefaultLimit

// release readies the decoder for its pool: no references to the poll
// it served, no outsized scratch from a hostile body.
func (d *pollDecoder) release() {
	d.sub, d.members = nil, nil
	d.scan.Release()
	if cap(d.built) > maxPooledBuilt {
		d.built = nil
	}
}

// DecodeBody validates the whole response first — a malformed body
// fails the attempt with the rings untouched — and only then, for the
// 200 that makes the poll a success, feeds the dedup rings.
func (d *pollDecoder) DecodeBody(status int, body []byte) error {
	if err := d.scan.ScanPollResponse(body); err != nil {
		return err
	}
	if status == http.StatusOK {
		d.collectFresh()
	}
	return nil
}

// collectFresh is the dedup half of a poll, run over the scanned spans:
// the wire order is newest first, and each member takes its unseen
// events oldest first so actions replay the trigger order. It is the
// loop the engine always ran — Add every event's ID to every member's
// ring, keep what was new — except that an event is built (map, strings)
// only when some ring reports its ID missing; for the re-served majority
// the ID bytes in the body are looked up and nothing is allocated. Add
// on a remembered ID never changed a ring, so skipping it changes
// nothing, evictions included. The dedup rings are owned by this worker
// — members cannot be polled through another subscription, and a
// removed member's ring is never touched again after this poll.
func (d *pollDecoder) collectFresh() {
	sub, scan := d.sub, &d.scan
	n := scan.Len()
	if cap(d.built) < n {
		d.built = make([]proto.TriggerEvent, n)
	}
	built := d.built[:n]
	fresh, ranges := sub.fresh[:0], sub.ranges[:0]
	for _, ra := range d.members {
		start := len(fresh)
		for i := n - 1; i >= 0; i-- {
			id := scan.ID(i)
			if len(id) == 0 || ra.dedup.Has(id) {
				continue
			}
			ev := &built[i]
			if ev.Ingredients == nil {
				*ev = scan.Event(i)
			}
			ra.dedup.Add(ev.Meta.ID)
			fresh = append(fresh, *ev)
		}
		ranges = append(ranges, memberRange{ra: ra, start: start, end: len(fresh)})
	}
	clear(built)
	sub.fresh, sub.ranges = fresh, ranges
}

// actionEndpoint is what every execution of one action shares: the
// parsed URL and the service-key header value. Cached engine-wide by
// (base URL, slug, key) — a handful per partner service, not one per
// applet.
type actionEndpoint struct {
	url *url.URL
	key []string
}

type actionKey struct{ baseURL, slug, serviceKey string }

// maxActionEndpoints bounds the endpoint cache; past it, endpoints are
// parsed per execution rather than remembered.
const maxActionEndpoints = 4096

func (e *Engine) actionEndpoint(ref *ServiceRef) (*actionEndpoint, error) {
	k := actionKey{ref.BaseURL, ref.Slug, ref.ServiceKey}
	e.epMu.RLock()
	ep := e.endpoints[k]
	e.epMu.RUnlock()
	if ep != nil {
		return ep, nil
	}
	raw := proto.ActionURL(ref.BaseURL, ref.Slug)
	u, err := url.Parse(raw)
	if err != nil {
		return nil, fmt.Errorf("POST %s: %w", raw, err)
	}
	ep = &actionEndpoint{url: u, key: []string{ref.ServiceKey}}
	e.epMu.Lock()
	if len(e.endpoints) < maxActionEndpoints {
		if e.endpoints == nil {
			e.endpoints = make(map[actionKey]*actionEndpoint)
		}
		e.endpoints[k] = ep
	}
	e.epMu.Unlock()
	return ep, nil
}

// Header values shared by every action request; read-only, like the
// header maps httpx.Prepared shares.
var (
	serviceKeyHeader = http.CanonicalHeaderKey(proto.ServiceKeyHeader)
	jsonContentType  = []string{"application/json; charset=utf-8"}
	acceptJSON       = []string{"application/json"}
)

// actionScratch holds what one action execution renders into.
type actionScratch struct {
	enc  proto.ActionEncoder
	prep httpx.Prepared
}

var actionScratches = sync.Pool{New: func() any { return new(actionScratch) }}

// actionBody renders the ActionRequest for a executing on an event
// with the given ingredients — {{ingredient}} placeholders resolved —
// byte for byte what json.Encoder wrote for the request struct.
func actionBody(sc *actionScratch, a *Applet, ingredients map[string]string) []byte {
	return sc.enc.Encode(a.Action.Fields, func(dst []byte, tmpl string) []byte {
		return appendExpanded(dst, tmpl, ingredients)
	}, a.UserID, a.ID)
}

// actionAck is the response target of an action request. The engine
// never reads the acknowledgement, but a 200 whose body is not an
// ActionResponse is still a failed (and retried) action.
type actionAck struct{}

func (actionAck) DecodeBody(_ int, body []byte) error { return proto.ValidateActionResponse(body) }

// dispatchAction POSTs one action execution, resolving {{ingredient}}
// placeholders in the action fields from the trigger event.
func (e *Engine) dispatchAction(ra *runningApplet, ev proto.TriggerEvent, execID uint64) {
	a := &ra.def
	eventTime := ev.Meta.Time()
	sh := ra.sub.shard
	e.emit(sh, TraceEvent{Kind: TraceActionSent, AppletID: a.ID, ExecID: execID, EventID: ev.Meta.ID, EventTime: eventTime})

	var status int
	ep, err := e.actionEndpoint(&a.Action)
	if err == nil {
		sc := actionScratches.Get().(*actionScratch)
		sc.prep = httpx.PreparedFrom("POST", ep.url, http.Header{
			"Content-Type":   jsonContentType,
			"Accept":         acceptJSON,
			serviceKeyHeader: ep.key,
			"Authorization":  {"Bearer " + a.Action.UserToken},
		}, actionBody(sc, a, ev.Ingredients))
		status, err = e.client.DoPrepared(&sc.prep, actionAck{})
		sc.prep = httpx.Prepared{}
		actionScratches.Put(sc)
	}
	if err != nil || status != http.StatusOK {
		if status == 0 {
			sh.counters.actionErrTransport.Add(1)
		} else {
			sh.counters.actionErrHTTP.Add(1)
		}
		msg := "status " + http.StatusText(status)
		if err != nil {
			msg = err.Error()
		}
		e.emit(sh, TraceEvent{Kind: TraceActionFailed, AppletID: a.ID, ExecID: execID, EventID: ev.Meta.ID, Err: msg})
		if e.log != nil {
			e.log.Warn("action failed", "applet", a.ID, "err", msg)
		}
		return
	}
	e.emit(sh, TraceEvent{Kind: TraceActionAcked, AppletID: a.ID, ExecID: execID, EventID: ev.Meta.ID})
}

// deleteUpstream tells the trigger service a subscription is gone (the
// protocol's DELETE /ifttt/v1/triggers/{slug}/trigger_identity/{id}).
// It runs once per subscription, when the last member leaves.
func (e *Engine) deleteUpstream(sub *subscription) {
	if e.stopped.Load() {
		// The engine stopped between the spawn and this actor running;
		// its transports may be mid-teardown, and the subscription state
		// is about to be discarded anyway.
		return
	}
	url := fmt.Sprintf("%s%s%s/trigger_identity/%s",
		sub.trigger.BaseURL, proto.TriggersPath, sub.trigger.Slug, sub.key)
	status, err := e.client.DoJSON("DELETE", url, nil, nil,
		httpx.WithHeader(proto.ServiceKeyHeader, sub.trigger.ServiceKey))
	if (err != nil || status >= 300) && e.log != nil {
		e.log.Warn("subscription delete failed", "identity", sub.key, "status", status, "err", err)
	}
}

// appendExpanded appends tmpl with its {{key}} placeholders replaced by
// trigger event ingredients; unknown keys expand to the empty string,
// mirroring IFTTT's lenient template behaviour.
func appendExpanded(dst []byte, tmpl string, ingredients map[string]string) []byte {
	for {
		open := strings.Index(tmpl, "{{")
		if open < 0 {
			return append(dst, tmpl...)
		}
		end := strings.Index(tmpl[open:], "}}")
		if end < 0 {
			return append(dst, tmpl...)
		}
		dst = append(dst, tmpl[:open]...)
		key := strings.TrimSpace(tmpl[open+2 : open+end])
		dst = append(dst, ingredients[key]...)
		tmpl = tmpl[open+end+2:]
	}
}

// Handler exposes the engine's HTTP surface: the realtime notification
// endpoint partner services POST hints to, the stats snapshot, the
// readiness probe, and — when the engine has a metrics registry —
// GET /metrics (Prometheus text, ?format=json for the JSON snapshot)
// plus GET /healthz and GET /debug/exemplars. With Config.SLO set,
// GET /debug/slo serves the burn-rate report and GET /debug/slowest
// the tail-retained spans.
func (e *Engine) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST "+proto.RealtimePath, e.handleRealtime)
	if e.push {
		mux.HandleFunc("POST "+proto.PushPath, e.handlePush)
	}
	mux.HandleFunc("GET /v1/stats", func(w http.ResponseWriter, r *http.Request) {
		httpx.WriteJSON(w, http.StatusOK, e.Stats())
	})
	obs.Mount(mux, e.metrics)
	mux.Handle("GET /readyz", e.Readiness())
	if e.metrics != nil {
		mux.Handle("GET /debug/exemplars", obs.ExemplarsHandler(e.metrics))
	}
	if e.slo != nil {
		mux.Handle("GET /debug/slo", e.slo)
		mux.Handle("GET /debug/slowest", e.tail)
	}
	return httpx.Chain(mux, httpx.RequestID)
}

// handleRealtime accepts a hint and — only for allow-listed services —
// provokes an early poll after RealtimeDelay. For all other services the
// hint is acknowledged and dropped: the paper found that "using the
// real-time API brings no performance impact for our service … the
// IFTTT engine has full control over trigger event queries and very
// likely ignores real-time API's hints" (§4).
//
// Every notification is traced and counted exactly once, whether or not
// it resolves to an installed applet — a hint racing an applet's
// removal must still show up in the engine's metrics. Identity hints
// resolve against the per-shard subscription indexes; user hints
// against the engine's user index, deduplicated to subscriptions so a
// shared identity is poked — and therefore polled — exactly once no
// matter how many of the user's applets share it.
func (e *Engine) handleRealtime(w http.ResponseWriter, r *http.Request) {
	var n proto.RealtimeNotification
	if err := httpx.ReadJSON(r, &n); err != nil {
		httpx.WriteBodyError(w, err)
		return
	}
	for _, hint := range n.Data {
		e.ApplyHint(hint)
	}
	httpx.WriteJSON(w, http.StatusOK, proto.StatusResponse{OK: true})
}

// ApplyHint processes one realtime hint exactly as the notifications
// endpoint does — trace + count it, then (for allow-listed services
// only) schedule the early poll. Exported so a cluster router can
// forward hints to the owning node without an HTTP round-trip.
func (e *Engine) ApplyHint(hint proto.RealtimeHint) {
	var targets []*subscription
	var firstID string
	var nApplets int
	switch {
	case hint.TriggerIdentity != "":
		for _, sh := range e.shards {
			if sub, first, members := sh.byIdentity(hint.TriggerIdentity); sub != nil {
				targets = append(targets, sub)
				firstID = first
				nApplets = members
				break
			}
		}
	case hint.UserID != "":
		// A user-scoped hint covers every applet of that user.
		targets, firstID, nApplets = e.userSubscriptions(hint.UserID)
	}
	ev := TraceEvent{Kind: TraceHintReceived, N: nApplets}
	if nApplets > 0 {
		ev.AppletID = firstID
	}
	e.emit(nil, ev)
	for _, sub := range targets {
		if e.realtime == nil || !e.realtime[sub.trigger.Service] {
			continue // hint ignored
		}
		sub := sub
		e.clock.AfterFunc(e.rtDelay, func() { e.pokeSubscription(sub) })
	}
}

// userSubscriptions resolves a user ID to the distinct subscriptions
// the user's applets poll through, plus one member applet ID and the
// total applet count (for hint tracing).
func (e *Engine) userSubscriptions(userID string) ([]*subscription, string, int) {
	e.mu.Lock()
	defer e.mu.Unlock()
	owned := e.byUser[userID]
	if len(owned) == 0 {
		return nil, "", 0
	}
	targets := make([]*subscription, 0, len(owned))
	seen := make(map[*subscription]struct{}, len(owned))
	var firstID string
	for id, ra := range owned {
		if firstID == "" {
			firstID = id
		}
		if _, dup := seen[ra.sub]; dup {
			continue
		}
		seen[ra.sub] = struct{}{}
		targets = append(targets, ra.sub)
	}
	return targets, firstID, len(owned)
}

// pokeSubscription pulls a subscription's next poll forward to now (the
// honoured realtime-hint path). Pokes for removed or mid-poll
// subscriptions are silently dropped, as with the old per-goroutine
// design. Under adaptive polling a hint also spikes the subscription's
// rate estimate: a push-assisted identity whose events always arrive
// via hints would otherwise look cold to the EWMA (each provoked poll
// finds one event after a short gap only because the hint moved it),
// so the spike pins its cadence near the fast floor until the estimate
// decays naturally.
func (e *Engine) pokeSubscription(sub *subscription) {
	sh := sub.shard
	sh.mu.Lock()
	if ap := e.adaptive; ap != nil && ap.boost > 0 && sub.rate < ap.boost && !sub.removed {
		// Stamp the estimate as fresh: leaving rateAt at the last poll
		// would let the next EWMA update decay the spike across the
		// whole pre-hint silence, erasing it.
		sub.rate = ap.boost
		sub.rateAt = e.clock.Now()
	}
	sh.pokeLocked(sub, e.clock.Now())
	sh.mu.Unlock()
}
