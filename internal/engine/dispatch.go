package engine

import (
	"net/http"
	"slices"
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
// provoked this poll (zero for scheduled polls). When something
// observes the engine, every trace event and span of the execution
// shares one freshly drawn ExecID, and per-applet provenance rides on
// the action/skip events' AppletID; a silent poll nobody observes does
// no more than count itself.
//
// dec carries the worker's snapshot of the subscription, taken under the
// shard lock together with auth and body (the two halves of sub.blob),
// and is the poll's response target: the response is never held as a
// value, the decoder scans it in the HTTP client's read buffer and
// records only the events some member has not seen (see collectFresh).
// A subscription is never polled concurrently.
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
	sh.counters.polls.Add(1)
	if e.observed {
		// A span sink needs the poll's send instant before it is known
		// whether an action will complete a span.
		at := e.clock.Now()
		if e.spans {
			dec.stamps = spanStamps{hintAt: hintAt, sentAt: at}
		}
		if e.trace != nil {
			dec.execID = sh.nextExecID()
			e.trace(TraceEvent{Time: at, Kind: TracePollSent, AppletID: members[0].id, Service: sub.ep.ref.Service, ExecID: dec.execID, HintAt: hintAt})
		}
	}
	if n := len(members) - 1; n > 0 {
		sh.counters.pollsCoalesced.Add(int64(n))
	}
	if e.fanout != nil {
		e.fanout.Observe(float64(len(members)))
	}

	// DoEndpoint only reads body, so the compiler passes the string's own
	// bytes (TestPollIdleAllocs fails if the conversion ever copies).
	status, err := e.client.DoEndpoint(sub.ep.req, "", auth, []byte(body), dec)
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
		sh.counters.pollFailures.Add(1)
		msg := "status " + http.StatusText(status)
		if err != nil {
			msg = err.Error()
		}
		if e.trace != nil {
			e.trace(TraceEvent{Time: e.clock.Now(), Kind: TracePollFailed, AppletID: members[0].id, ExecID: dec.execID, Err: msg})
		}
		if e.log != nil {
			e.log.Warn("trigger poll failed", "applet", members[0].id, "err", msg)
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
	sh.counters.eventsReceived.Add(int64(len(dec.fresh)))
	if e.observes(dec) {
		at := e.clock.Now()
		if e.trace != nil {
			e.trace(TraceEvent{Time: at, Kind: TracePollResult, AppletID: members[0].id, ExecID: dec.execID, N: len(dec.fresh)})
		}
		if e.spans {
			dec.stamps.resultAt = at
		}
	}
	e.dispatchFresh(dec)
	return true, newEvents
}

// observes reports whether a trace observer or a span sink sees dec's
// execution from this step on, and draws the execution's ID when one
// does for the first time. A trace observer sees every step; a span sink
// only an execution with fresh events, as only an action completes a
// span. A silent poll, the common case, draws no ID even with a sink.
func (e *Engine) observes(dec *pollDecoder) bool {
	if e.trace == nil && (!e.spans || len(dec.fresh) == 0) {
		return false
	}
	if dec.execID == 0 {
		dec.execID = dec.sub.shard.nextExecID()
	}
	return true
}

// dispatchFresh is the last part of an execution, poll or push alike:
// the engine's dispatch delay, then for every member its fresh events in
// order through conditions and the action path.
func (e *Engine) dispatchFresh(dec *pollDecoder) {
	fresh := dec.fresh
	if len(fresh) == 0 {
		return
	}
	if e.dispatch > 0 {
		e.clock.Sleep(e.dispatch)
	}
	sh := dec.sub.shard
	for _, mr := range dec.ranges {
		for i := mr.start; i < mr.end; i++ {
			ev := &fresh[i]
			ing := dec.ingredients(ev)
			if !conditionsAllow(mr.ra.conditions(), e.clock.Now(), ing) {
				sh.counters.conditionSkips.Add(1)
				if e.trace != nil {
					e.trace(TraceEvent{Time: e.clock.Now(), Kind: TraceConditionSkip, AppletID: mr.ra.id, ExecID: dec.execID, EventID: dec.idString(ev)})
				}
				continue
			}
			e.dispatchAction(dec, mr.ra, ev, ing)
		}
	}
}

// event is the engine's record of one trigger event: the hash its ID is
// remembered by, its meta timestamps, and where its ID and ingredients
// are, vals[id:idEnd] and ings[lo:hi] of the eventArena it was recorded
// in. The ID's string is made only when something reads it (idString).
// A polled event is recorded in its execution's decoder; a pushed one in
// its subscription's mailbox, whose records and arena its execution's
// decoder copies as they are (pushLocked), ranges and all.
type event struct {
	hash        uint64
	ts, tsNanos int64 // proto.EventMeta's Timestamp and TimestampNanos
	id, idEnd   int32
	lo, hi      int32
}

// time is the event's occurrence time, as proto.EventMeta.Time reads it.
func (ev *event) time() time.Time {
	return proto.EventMeta{Timestamp: ev.ts, TimestampNanos: ev.tsNanos}.Time()
}

// eventArena holds recorded events' IDs and ingredients: each ingredient
// an interned key and a range of vals, so an event costs no map and no
// string per value.
type eventArena struct {
	ings []ingredient
	vals []byte
}

// ingredients is the view of ev's ingredients.
func (a *eventArena) ingredients(ev *event) Ingredients {
	return Ingredients{fields: a.ings[ev.lo:ev.hi], vals: a.vals}
}

// idString makes ev's ID string, for a reader that keeps it.
func (a *eventArena) idString(ev *event) string { return string(a.vals[ev.id:ev.idEnd]) }

// recordID starts the record of an event with the given ID, hash and
// timestamps, copying the ID into the arena; the ingredients the caller
// adds next are the record's, up to the hi it then sets.
func recordID[S string | []byte](a *eventArena, id S, h uint64, ts, tsNanos int64) event {
	lo := len(a.vals)
	a.vals = append(a.vals, id...)
	return event{hash: h, ts: ts, tsNanos: tsNanos, id: int32(lo), idEnd: int32(len(a.vals)), lo: int32(len(a.ings))}
}

// scanned records scanned event i, whose ID hashes to h, copying its ID
// and ingredients out of the scanned body.
func (a *eventArena) scanned(scan *proto.EventScan, i int, h uint64) event {
	ts, tsNanos := scan.Timestamps(i)
	ev := recordID(a, scan.ID(i), h, ts, tsNanos)
	scan.EachIngredient(i, func(key string, val []byte) { addIngredient(a, key, val) })
	ev.hi = int32(len(a.ings))
	return ev
}

// typed records ev, keeping its ingredient keys and copying its ID and
// values.
func (a *eventArena) typed(ev *proto.TriggerEvent) event {
	rec := recordID(a, ev.Meta.ID, idHash(ev.Meta.ID), ev.Meta.Timestamp, ev.Meta.TimestampNanos)
	for key, val := range ev.Ingredients {
		addIngredient(a, key, val)
	}
	rec.hi = int32(len(a.ings))
	return rec
}

func addIngredient[V string | []byte](a *eventArena, key string, val V) {
	lo := len(a.vals)
	a.vals = append(a.vals, val...)
	a.ings = append(a.ings, ingredient{key: key, lo: int32(lo), hi: int32(len(a.vals))})
}

// materialise builds the TriggerEvent ev stands for. Keys are applied in
// the order they were recorded, so a repeated key's last value wins.
func (a *eventArena) materialise(ev *event) proto.TriggerEvent {
	m := make(map[string]string, ev.hi-ev.lo)
	for _, f := range a.ings[ev.lo:ev.hi] {
		m[f.key] = string(a.vals[f.lo:f.hi])
	}
	return proto.TriggerEvent{Ingredients: m, Meta: proto.EventMeta{ID: a.idString(ev), Timestamp: ev.ts, TimestampNanos: ev.tsNanos}}
}

// reset empties the arena, dropping its references to interned keys.
func (a *eventArena) reset() {
	clear(a.ings)
	a.ings, a.vals = a.ings[:0], a.vals[:0]
}

// outsized reports an arena grown past what a pooled or free-listed
// holder may keep.
func (a *eventArena) outsized() bool {
	return cap(a.ings) > maxPooledFields || cap(a.vals) > maxPooledBody
}

// pollDecoder is what one execution works in. For a poll it is the
// response target: an httpx.BodyDecoder that scans the body where the
// client read it and does the subscription's dedup before anything is
// materialised. Poll or push, it holds the owner's membership snapshot
// and the fresh events on their way to dispatch. Pooled, not resident:
// between executions it keeps capacity and interned ingredient keys.
type pollDecoder struct {
	scan proto.EventScan
	// built[i] is 1 + the index in fresh of scanned event i's record
	// once some member took the event, so a coalesced subscription
	// records each event at most once; hashes[i] is its ID's hash.
	built  []int32
	hashes []uint64
	// The arena holds the ingredients of the execution's events: for a
	// poll, the fresh ones, copied out of the response (the client's
	// read buffer is reused before the dispatch delay ends); for a push,
	// every event of the deliveries it runs, copied out of the mailbox.
	eventArena
	// push holds the events a push execution runs, delivery by delivery
	// in arrival order, each oldest first; pushAt is when its first
	// delivery was accepted.
	push   []event
	pushAt time.Time
	// The execution's subject, snapshotted under the shard lock.
	sub     *subscription
	key     string
	members []*runningApplet
	// fresh holds every member's unseen events back to back; ranges marks
	// each member's share.
	fresh  []event
	ranges []memberRange
	// execID is the ID the execution's trace events and spans carry,
	// drawn only once something observes the execution (0 until then, see
	// observes); stamps are what its spans share, taken only for a span
	// sink. Each span is assembled only when an action completes it
	// (dispatchAction).
	execID uint64
	stamps spanStamps
	// enc and buf are what each action request's body is rendered in.
	// httpx copies the body into scratch of its own, so buf is free again
	// once DoEndpoint returns.
	enc proto.ActionEncoder
	buf []byte
	// cp and cpIDs are what the execution's checkpoint is journaled in
	// (journalCheckpoint), empty between checkpoints; its ID strings are
	// carved out of cpStrs (journalID).
	cp     Checkpoint
	cpIDs  []string
	cpStrs strings.Builder
}

// spanStamps are the instants every span of one execution shares: the
// hint that provoked a poll, or the push ingress accept; the poll's send
// and result, both the dispatch start for a push.
type spanStamps struct {
	hintAt, ingestAt, sentAt, resultAt time.Time
	pushed                             bool
}

// What a decoder keeps between executions is bounded: the event buffers
// (a protocol-sized response holds at most proto.DefaultLimit events),
// the ingredient entries, and the byte buffers for ingredient values and
// the action request.
const (
	maxPooledBuilt  = 4 * proto.DefaultLimit
	maxPooledFields = 4096
	maxPooledBody   = 64 << 10
)

// borrowDecoder takes a decoder for an execution of sub, with the
// membership as it stands. Caller holds s.mu and runs sub.
func borrowDecoder(sub *subscription) *pollDecoder {
	d := sub.shard.e.decoders.Get().(*pollDecoder)
	d.sub, d.key, d.members = sub, sub.key, append(d.members[:0], sub.members...)
	return d
}

// resetFresh empties the fresh-event buffer and the ingredients it
// referenced, dropping their references.
func (d *pollDecoder) resetFresh() {
	clear(d.fresh)
	clear(d.ranges)
	d.fresh, d.ranges = d.fresh[:0], d.ranges[:0]
	d.reset()
}

// release returns the decoder to its pool: no references to the
// execution it served, no outsized scratch from a hostile body.
func (d *pollDecoder) release() {
	e := d.sub.shard.e
	d.resetFresh()
	clear(d.members)
	clear(d.push)
	d.sub, d.key, d.members, d.push, d.pushAt = nil, "", d.members[:0], d.push[:0], time.Time{}
	d.execID = 0
	if e.spans {
		d.stamps = spanStamps{}
	}
	d.scan.Release()
	if cap(d.members) > maxPooledBuilt {
		d.members = nil
	}
	if cap(d.built) > maxPooledBuilt {
		d.built, d.hashes = nil, nil
	}
	if cap(d.fresh) > maxPooledBuilt {
		d.fresh = nil
	}
	if cap(d.push) > maxPooledBuilt {
		d.push = nil
	}
	if d.outsized() {
		d.eventArena = eventArena{}
	}
	if cap(d.cpIDs) > maxPooledBuilt {
		d.cpIDs = nil
	}
	if d.cpStrs.Cap() > journalIDChunk {
		d.cpStrs.Reset()
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
// ring, keep what was new — with each ID hashed once, from its bytes in
// the body, and an event recorded only when some ring reports its hash
// new; for the re-served majority nothing is copied or allocated. Add
// on a remembered hash never changes a ring, evictions included. The
// dedup rings are owned by this worker — members cannot be polled
// through another subscription, and a removed member's ring is never
// touched again after this poll.
func (d *pollDecoder) collectFresh() {
	scan := &d.scan
	n := scan.Len()
	if cap(d.built) < n {
		d.built, d.hashes = make([]int32, n), make([]uint64, n)
	}
	built, hashes := d.built[:n], d.hashes[:n]
	for i := range hashes {
		hashes[i] = idHash(scan.ID(i))
	}
	d.resetFresh()
	fresh, ranges := d.fresh, d.ranges
	for _, ra := range d.members {
		start := len(fresh)
		for i := n - 1; i >= 0; i-- {
			if len(scan.ID(i)) == 0 || !ra.remember(hashes[i]) {
				continue
			}
			if built[i] == 0 {
				fresh = append(fresh, d.scanned(scan, i, hashes[i]))
				built[i] = int32(len(fresh))
			} else {
				fresh = append(fresh, fresh[built[i]-1])
			}
		}
		ranges = append(ranges, memberRange{ra: ra, start: start, end: len(fresh)})
	}
	clear(built)
	d.fresh, d.ranges = fresh, ranges
}

// actionRequest returns what an action request carries beyond its
// endpoint: ra's bearer credential (actionAuth), and the ActionRequest
// for ra executing on an event with the given ingredients —
// {{ingredient}} placeholders resolved — as json.Encoder wrote it,
// rendered into the request buffer.
func (d *pollDecoder) actionRequest(ra *runningApplet, ingredients Ingredients) (auth string, body []byte) {
	d.buf = d.enc.Append(d.buf[:0], ra.actionFields, func(dst []byte, tmpl string) []byte {
		return appendExpanded(dst, tmpl, ingredients)
	}, ra.user, ra.id)
	return ra.actionAuth(), d.buf
}

// actionAck is the response target of an action request. The engine
// never reads the acknowledgement, but a 200 whose body is not an
// ActionResponse is still a failed (and retried) action.
type actionAck struct{}

func (actionAck) DecodeBody(_ int, body []byte) error { return proto.ValidateActionResponse(body) }

// dispatchAction POSTs one action execution, resolving {{ingredient}}
// placeholders in the action fields from the trigger event's
// ingredients. Acked or failed, the action completes a span of dec's
// execution when the engine has a span sink.
func (e *Engine) dispatchAction(dec *pollDecoder, ra *runningApplet, ev *event, ing Ingredients) {
	sh := ra.sub.shard
	// The event's ID and time are read only by a trace observer or a span
	// sink.
	var eventID string
	var eventTime, sentAt time.Time
	if e.observed {
		eventID, eventTime, sentAt = dec.idString(ev), ev.time(), e.clock.Now()
		if e.trace != nil {
			e.trace(TraceEvent{Time: sentAt, Kind: TraceActionSent, AppletID: ra.id, ExecID: dec.execID, EventID: eventID, EventTime: eventTime})
		}
	}

	auth, body := dec.actionRequest(ra, ing)
	status, err := e.client.DoEndpoint(ra.action.req, "", auth, body, actionAck{})
	failed := err != nil || status != http.StatusOK
	var msg string
	if failed {
		if status == 0 {
			sh.counters.actionErrTransport.Add(1)
		} else {
			sh.counters.actionErrHTTP.Add(1)
		}
		sh.counters.actionsFailed.Add(1)
		msg = "status " + http.StatusText(status)
		if err != nil {
			msg = err.Error()
		}
	} else {
		sh.counters.actionsOK.Add(1)
	}
	if e.observed {
		doneAt := e.clock.Now()
		if e.trace != nil {
			kind := TraceActionAcked
			if failed {
				kind = TraceActionFailed
			}
			e.trace(TraceEvent{Time: doneAt, Kind: kind, AppletID: ra.id, ExecID: dec.execID, EventID: eventID, Err: msg})
		}
		if e.spans {
			st := &dec.stamps
			e.recordSpan(obs.ExecSpan{
				ExecID: dec.execID, AppletID: ra.id, EventID: eventID, TriggerService: dec.sub.ep.ref.Service,
				HintAt: st.hintAt, IngestAt: st.ingestAt, PollSentAt: st.sentAt, PollResultAt: st.resultAt,
				EventAt: eventTime, ActionSentAt: sentAt, ActionDoneAt: doneAt,
				Pushed: st.pushed, Failed: failed, Err: msg,
			})
		}
	}
	if failed && e.log != nil {
		e.log.Warn("action failed", "applet", ra.id, "err", msg)
	}
}

// deleteUpstream tells the trigger service a subscription is gone (the
// protocol's DELETE /ifttt/v1/triggers/{slug}/trigger_identity/{id}),
// through the trigger endpoint's interned DELETE with the key as the
// last path segment. It runs once per subscription, when the last
// member leaves.
func (e *Engine) deleteUpstream(sub *subscription) {
	if e.stopped.Load() {
		// The engine stopped between the spawn and this actor running;
		// its transports may be mid-teardown, and the subscription state
		// is about to be discarded anyway.
		return
	}
	status, err := e.client.DoEndpoint(sub.ep.del, sub.key, "", nil, nil)
	if (err != nil || status >= 300) && e.log != nil {
		e.log.Warn("subscription delete failed", "identity", sub.key, "status", status, "err", err)
	}
}

// appendExpanded appends tmpl with its {{key}} placeholders replaced by
// trigger event ingredients; unknown keys expand to the empty string,
// mirroring IFTTT's lenient template behaviour.
func appendExpanded(dst []byte, tmpl string, ingredients Ingredients) []byte {
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
		dst = ingredients.appendValue(dst, key)
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
		if sub := lockIdentity(e, hint.TriggerIdentity); sub != nil {
			targets = append(targets, sub)
			firstID, nApplets = sub.members[0].id, len(sub.members)
			sub.shard.mu.Unlock()
		}
	case hint.UserID != "":
		// A user-scoped hint covers every applet of that user.
		targets, firstID, nApplets = e.userSubscriptions(hint.UserID)
	}
	e.hints.Add(1)
	e.emit(TraceEvent{Kind: TraceHintReceived, AppletID: firstID, N: nApplets})
	for _, sub := range targets {
		if e.realtime == nil || !e.realtime[sub.ep.ref.Service] {
			continue // hint ignored
		}
		e.clock.AfterFunc(e.rtDelay, func() { e.pokeSubscription(sub) })
	}
}

// userSubscriptions resolves a user ID to the distinct subscriptions
// the user's applets poll through, in the order the applets were
// installed, plus the oldest surviving applet's ID and the applet count
// (for hint tracing). A user has few applets, so coalesced duplicates
// are found by scanning the targets found so far.
func (e *Engine) userSubscriptions(userID string) ([]*subscription, string, int) {
	e.mu.Lock()
	defer e.mu.Unlock()
	owned := e.byUser[userID]
	if len(owned) == 0 {
		return nil, "", 0
	}
	targets := make([]*subscription, 0, len(owned))
	for _, ra := range owned {
		if !slices.Contains(targets, ra.sub) {
			targets = append(targets, ra.sub)
		}
	}
	return targets, owned[0].id, len(owned)
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
