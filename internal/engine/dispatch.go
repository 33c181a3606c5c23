package engine

import (
	"net/http"
	"strings"
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
// dec carries the worker's snapshot of the subscription, taken under the
// shard lock together with auth and body (the two halves of sub.blob),
// and is the poll's response target: the response is never held as a
// value, the decoder scans it in the HTTP client's read buffer and
// builds only the events some member has not seen (see collectFresh). A
// subscription is never polled concurrently.
//
// The first return value reports whether the poll itself succeeded (a
// 200 with a decodable body); the worker feeds it to the backoff/
// breaker state machine. Action failures do not count against the
// trigger service's subscription. The second return value is the count
// of events new to the subscription — the lead member's fresh events,
// so late joiners replaying their backlog do not inflate it — which
// the worker feeds to the adaptive EWMA.
func (e *Engine) pollSubscription(dec *pollDecoder, hintAt time.Time, auth, body string) (bool, int) {
	sub, members := dec.sub, dec.members
	sh := sub.shard
	leadID := members[0].id
	execID := e.execSeq.Add(1)
	e.emit(sh, TraceEvent{Kind: TracePollSent, AppletID: leadID, Service: sub.ep.ref.Service, ExecID: execID, HintAt: hintAt})
	if n := len(members) - 1; n > 0 {
		sh.counters.pollsCoalesced.Add(int64(n))
	}
	if e.fanout != nil {
		e.fanout.Observe(float64(len(members)))
	}

	status, err := e.client.DoEndpoint(sub.ep.req, auth, body, dec)
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

	// The decoder holds each member's unseen events, member by member
	// (none when the 200 carried no body).
	newEvents := 0
	if len(dec.ranges) > 0 {
		newEvents = dec.ranges[0].end - dec.ranges[0].start
	}
	// Checkpoint the dedup delta before any action dispatches: after a
	// crash these events replay as already-seen, so an action issued
	// below can never be issued again by the recovered engine.
	if e.journal != nil && len(dec.fresh) > 0 {
		e.journalCheckpoint(dec)
	}
	e.emit(sh, TraceEvent{Kind: TracePollResult, AppletID: leadID, ExecID: execID, N: len(dec.fresh)})
	e.dispatchFresh(dec, execID)
	return true, newEvents
}

// dispatchFresh is the last part of an execution, poll or push alike:
// the engine's dispatch delay, then for every member its fresh events in
// order through conditions and the action path.
func (e *Engine) dispatchFresh(dec *pollDecoder, execID uint64) {
	fresh := dec.fresh
	if len(fresh) == 0 {
		return
	}
	if e.dispatch > 0 {
		e.clock.Sleep(e.dispatch)
	}
	sh := dec.sub.shard
	for _, mr := range dec.ranges {
		for _, ev := range fresh[mr.start:mr.end] {
			if !conditionsAllow(mr.ra.conditions, e.clock.Now(), ev.Ingredients) {
				e.emit(sh, TraceEvent{Kind: TraceConditionSkip, AppletID: mr.ra.id, ExecID: execID, EventID: ev.Meta.ID})
				continue
			}
			e.dispatchAction(dec, mr.ra, ev, execID)
		}
	}
}

// pollDecoder is what one execution works in. For a poll it is the
// response target: an httpx.BodyDecoder that scans the body where the
// client read it and does the subscription's dedup before anything is
// materialised. Poll or push, it holds the owner's membership snapshot
// and the fresh events on their way to dispatch. Pooled, not resident:
// between executions it keeps capacity and interned ingredient keys.
type pollDecoder struct {
	scan proto.EventScan
	// built caches event i of the scan once some member needed it, so a
	// coalesced subscription builds each event at most once.
	built []proto.TriggerEvent
	// The execution's subject, snapshotted under the shard lock.
	sub     *subscription
	members []*runningApplet
	// fresh holds every member's unseen events back to back; ranges marks
	// each member's share.
	fresh  []proto.TriggerEvent
	ranges []memberRange
	// enc and buf are what each action request is rendered in.
	enc proto.ActionEncoder
	buf []byte
}

// What a decoder keeps between executions is bounded: the event buffers
// (a protocol-sized response holds at most proto.DefaultLimit events) and
// the action-request buffer.
const (
	maxPooledBuilt = 4 * proto.DefaultLimit
	maxPooledBody  = 64 << 10
)

// borrowDecoder takes a decoder for an execution of sub, with the
// membership as it stands. Caller holds s.mu and has set sub.polling.
func borrowDecoder(sub *subscription) *pollDecoder {
	d := sub.shard.e.decoders.Get().(*pollDecoder)
	d.sub, d.members = sub, append(d.members[:0], sub.members...)
	return d
}

// resetFresh empties the fresh-event buffer, dropping what it referenced.
func (d *pollDecoder) resetFresh() {
	clear(d.fresh)
	clear(d.ranges)
	d.fresh, d.ranges = d.fresh[:0], d.ranges[:0]
}

// release returns the decoder to its pool: no references to the
// execution it served, no outsized scratch from a hostile body.
func (d *pollDecoder) release() {
	e := d.sub.shard.e
	d.resetFresh()
	clear(d.members[:cap(d.members)])
	d.sub = nil
	d.scan.Release()
	if cap(d.built) > maxPooledBuilt {
		d.built = nil
	}
	if cap(d.fresh) > maxPooledBuilt {
		d.fresh = nil
	}
	if cap(d.buf) > maxPooledBody {
		d.buf, d.enc = nil, proto.ActionEncoder{}
	}
	e.decoders.Put(d)
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
	scan := &d.scan
	n := scan.Len()
	if cap(d.built) < n {
		d.built = make([]proto.TriggerEvent, n)
	}
	built := d.built[:n]
	d.resetFresh()
	fresh, ranges := d.fresh, d.ranges
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
	d.fresh, d.ranges = fresh, ranges
}

// actionRequest renders what an action request carries beyond its
// endpoint, in one string: ra's bearer credential, then the ActionRequest
// for ra executing on an event with the given ingredients —
// {{ingredient}} placeholders resolved — as json.Encoder wrote it.
func (d *pollDecoder) actionRequest(ra *runningApplet, ingredients map[string]string) (auth, body string) {
	b := append(append(d.buf[:0], "Bearer "...), ra.actionToken...)
	n := len(b)
	b = d.enc.Append(b, ra.actionFields, func(dst []byte, tmpl string) []byte {
		return appendExpanded(dst, tmpl, ingredients)
	}, ra.user, ra.id)
	d.buf = b
	s := string(b)
	return s[:n], s[n:]
}

// actionAck is the response target of an action request. The engine
// never reads the acknowledgement, but a 200 whose body is not an
// ActionResponse is still a failed (and retried) action.
type actionAck struct{}

func (actionAck) DecodeBody(_ int, body []byte) error { return proto.ValidateActionResponse(body) }

// dispatchAction POSTs one action execution, resolving {{ingredient}}
// placeholders in the action fields from the trigger event.
func (e *Engine) dispatchAction(dec *pollDecoder, ra *runningApplet, ev proto.TriggerEvent, execID uint64) {
	eventTime := ev.Meta.Time()
	sh := ra.sub.shard
	e.emit(sh, TraceEvent{Kind: TraceActionSent, AppletID: ra.id, ExecID: execID, EventID: ev.Meta.ID, EventTime: eventTime})

	auth, body := dec.actionRequest(ra, ev.Ingredients)
	status, err := e.client.DoEndpoint(ra.action.req, auth, body, actionAck{})
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
		e.emit(sh, TraceEvent{Kind: TraceActionFailed, AppletID: ra.id, ExecID: execID, EventID: ev.Meta.ID, Err: msg})
		if e.log != nil {
			e.log.Warn("action failed", "applet", ra.id, "err", msg)
		}
		return
	}
	e.emit(sh, TraceEvent{Kind: TraceActionAcked, AppletID: ra.id, ExecID: execID, EventID: ev.Meta.ID})
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
	ref := &sub.ep.ref
	url := proto.TriggerURL(ref.BaseURL, ref.Slug) + "/trigger_identity/" + sub.key
	status, err := e.client.DoJSON("DELETE", url, nil, nil,
		httpx.WithHeader(proto.ServiceKeyHeader, ref.ServiceKey))
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
		var sub *subscription
		if sub, firstID, nApplets = e.byIdentity(hint.TriggerIdentity); sub != nil {
			targets = append(targets, sub)
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
		if e.realtime == nil || !e.realtime[sub.ep.ref.Service] {
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
		sub.rateAt = e.sinceEpoch(e.clock.Now())
	}
	sh.pokeLocked(sub, e.clock.Now())
	sh.mu.Unlock()
}
