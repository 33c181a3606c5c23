// Package engine implements the IFTTT engine ❼ of the paper's Figure 1:
// the centralized component that executes applets by polling trigger
// services and dispatching actions. Its externally visible behaviour
// follows what the paper measured rather than any idealized design:
//
//   - Each applet is polled independently on its own schedule; responses
//     for one applet are never piggybacked on another's (Fig 7).
//   - The polling gap is long and highly variable (Fig 4: 25/50/75th
//     percentiles of 58/84/122 s, tail up to 15 minutes). PollPolicy
//     models it; the paper-calibrated model lives in policy.go.
//   - A poll fetches up to k buffered events (k=50 by default), so
//     sequentially activated triggers surface as clustered actions
//     (Fig 6).
//   - Realtime-API hints are honoured only for an allow-list of
//     services (the paper observed Alexa-backed applets executing in
//     seconds while identical self-hosted services saw full polling
//     delays); for everyone else the hint is accepted and ignored.
//   - No loop detection of any kind is performed (§4 "Infinite Loop");
//     the detector in internal/loopdetect is a separate, optional
//     extension reproducing §6's recommendation.
package engine

import (
	"fmt"
	"log/slog"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/httpx"
	"repro/internal/ingest"
	"repro/internal/obs"
	"repro/internal/obs/slo"
	"repro/internal/simtime"
	"repro/internal/stats"
)

// ServiceRef points an applet at one trigger or action of a partner
// service.
type ServiceRef struct {
	// Service is the partner service's name (e.g. "hue"); realtime
	// allow-listing matches on it.
	Service string
	// BaseURL is the service's API root (e.g. "https://api.hue.sim").
	BaseURL string
	// Slug names the trigger or action under the base URL.
	Slug string
	// Fields are the user-chosen parameters.
	Fields map[string]string
	// ServiceKey authenticates the engine to the service.
	ServiceKey string
	// UserToken is the cached OAuth access token for the applet owner.
	UserToken string
}

// Applet is one user-installed trigger-action rule.
type Applet struct {
	ID      string
	Name    string
	UserID  string
	Trigger ServiceRef
	Action  ServiceRef
	// Conditions optionally gate execution (the "queries and
	// conditions" feature the paper lists as future work); all must
	// pass for the action to run. Nil means unconditional.
	Conditions []Condition
}

// TriggerIdentity derives the stable subscription identity the engine
// presents to the trigger service. It covers the applet and its trigger
// configuration, so distinct applets — even with identical triggers —
// poll distinct subscriptions, as the paper observed.
func (a *Applet) TriggerIdentity() string {
	h := fnvJoin(fnvJoin(fnvOffset64, 0, a.ID), '|', a.Trigger.BaseURL, a.Trigger.Slug)
	return identity("ti-", a.hashTriggerFields(h))
}

// CoalescedTriggerIdentity is the subscription key used when poll
// coalescing is on (Config.Coalesce): unlike TriggerIdentity it omits
// the applet ID, so applets with byte-identical trigger configurations
// share one upstream subscription and one poll schedule. The user and
// token stay in the key — the engine polls a trigger *on behalf of a
// user*, and coalescing across credentials would leak one user's events
// into another's applets.
func (a *Applet) CoalescedTriggerIdentity() string {
	h := fnvJoin(fnvJoin(fnvOffset64, 0, a.Trigger.Service), '|', a.Trigger.BaseURL,
		a.Trigger.Slug, a.Trigger.ServiceKey, a.UserID, a.Trigger.UserToken)
	return identity("ci-", a.hashTriggerFields(h))
}

// Identities are FNV-64a over the parts joined by '|', then "|k=v" per
// trigger field, hashed in place. They are on the wire, in WAL records
// and in snapshots, so the bytes hashed may never change.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// fnvJoin folds each part into h, sep (unless 0) before it.
func fnvJoin(h uint64, sep byte, parts ...string) uint64 {
	for _, p := range parts {
		if sep != 0 {
			h = (h ^ uint64(sep)) * fnvPrime64
		}
		for i := 0; i < len(p); i++ {
			h = (h ^ uint64(p[i])) * fnvPrime64
		}
	}
	return h
}

// hashTriggerFields folds the trigger's field map into h in sorted key
// order, so identity hashes are stable across map iteration order.
func (a *Applet) hashTriggerFields(h uint64) uint64 {
	var arr [8]string
	keys := arr[:0]
	for k := range a.Trigger.Fields {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	for _, k := range keys {
		h = fnvJoin(fnvJoin(h, '|', k), '=', a.Trigger.Fields[k])
	}
	return h
}

// identity is prefix followed by h as sixteen hex digits.
func identity(prefix string, h uint64) string {
	const hex = "0123456789abcdef"
	var b [19]byte
	n := copy(b[:], prefix)
	for i := n + 15; i >= n; i-- {
		b[i] = hex[h&0xf]
		h >>= 4
	}
	return string(b[:n+16])
}

// TraceKind labels engine trace events.
type TraceKind string

// Trace event kinds, in the order they occur during one execution.
const (
	TraceHintReceived TraceKind = "hint_received"
	TracePollSent     TraceKind = "poll_sent"
	TracePollResult   TraceKind = "poll_result"
	TraceActionSent   TraceKind = "action_sent"
	TraceActionAcked  TraceKind = "action_acked"
	TraceActionFailed TraceKind = "action_failed"
	TracePollFailed   TraceKind = "poll_failed"
	TraceInstall      TraceKind = "install"
	TraceRemove       TraceKind = "remove"
	// TraceConditionSkip marks an event whose action was suppressed by
	// the applet's conditions.
	TraceConditionSkip TraceKind = "condition_skip"
	// TracePushDispatch marks a push-path execution starting (ingress.go):
	// the analogue of poll_sent+poll_result in one event, since pushed
	// events need no round-trip. N is the fresh-event count after dedup,
	// IngestAt when the ingress accepted the batch; action/skip events
	// follow under the same ExecID exactly as for a poll.
	TracePushDispatch TraceKind = "push_dispatch"
	// Breaker transitions (resilience.go): a subscription's circuit
	// breaker opened after N consecutive failures, a half-open probe
	// poll was issued, or a successful poll closed the breaker.
	TraceBreakerOpen  TraceKind = "breaker_open"
	TraceBreakerProbe TraceKind = "breaker_probe"
	TraceBreakerClose TraceKind = "breaker_close"
	// SLO alert transitions (Config.SLO): the burn-rate tracker entered
	// warn, entered page, or cleared back toward ok. Service carries the
	// affected series ("" = global), Err the burn rates.
	TraceSLOWarn  TraceKind = "slo_warn"
	TraceSLOPage  TraceKind = "slo_page"
	TraceSLOClear TraceKind = "slo_clear"
)

// TraceEvent records one step of applet execution; the testbed's
// latency instrumentation, Table 5's timeline, and the span-based T2A
// breakdown are built from these.
type TraceEvent struct {
	Time     time.Time
	Kind     TraceKind
	AppletID string
	// Service is the upstream trigger service involved: set on poll_sent
	// (the polled service) and on slo_* transitions (the affected SLO
	// series, "" = global).
	Service string
	// ExecID ties together every event surfaced by one poll execution
	// (poll_sent through the final action ack); zero for events outside
	// a poll (install, remove, hint_received).
	ExecID uint64
	// EventID is the trigger event being acted upon (action kinds).
	EventID string
	// EventTime is when the trigger service buffered the event (from the
	// event's protocol metadata — nanosecond precision when the service
	// publishes "timestamp_ns", whole seconds otherwise); set on
	// action_sent, zero when the service sent no timestamp.
	EventTime time.Time
	// HintAt is when a realtime hint rescheduled this poll; set on
	// poll_sent for hint-provoked executions, zero otherwise.
	HintAt time.Time
	// IngestAt is when the push ingress accepted the event batch; set on
	// push_dispatch, zero otherwise.
	IngestAt time.Time
	// N is the number of new events in a poll result.
	N int
	// Err holds failure detail for *_failed kinds.
	Err string
}

// Config assembles an Engine.
type Config struct {
	// Clock drives all scheduling (virtual in experiments).
	Clock simtime.Clock
	// RNG seeds the polling jitter; required.
	RNG *stats.RNG
	// Doer issues HTTP requests (live client or simnet client).
	Doer httpx.Doer
	// Poll schedules the gap between polls of one applet. Nil means
	// the paper-calibrated PaperPollModel.
	Poll PollPolicy
	// RealtimeServices lists service names whose realtime hints are
	// honoured; hints from other services are accepted and ignored,
	// matching the paper's observation.
	RealtimeServices map[string]bool
	// RealtimeDelay is the lag between an honoured hint and the poll
	// it provokes. Zero means DefaultRealtimeDelay.
	RealtimeDelay time.Duration
	// Trace, when non-nil, observes every TraceEvent synchronously on
	// the emitting goroutine. It must be fast and safe for concurrent
	// use; a slow Trace func stalls the poll worker that emitted the
	// event. Deterministic tests rely on this synchrony — events are
	// visible the moment the emitting actor blocks.
	Trace func(TraceEvent)
	// Observers receive every TraceEvent asynchronously through a
	// lock-free bounded ring drained by a dedicated consumer actor:
	// publishing costs the hot path two atomic ops, and a slow observer
	// can never stall a poll worker — the ring drops (and counts) events
	// instead. Observers run on the consumer goroutine, one event at a
	// time, in publish order.
	Observers []func(TraceEvent)
	// TraceBuffer is the observer ring capacity (rounded up to a power
	// of two); zero means DefaultTraceBuffer.
	TraceBuffer int
	// Metrics, when non-nil, receives the engine's operational counters
	// and gauges plus the span-derived T2A segment histograms (an
	// implicit SpanRecorder is appended to Observers). Serve it over
	// HTTP via Engine.Handler's GET /metrics.
	Metrics *obs.Registry
	// Logger receives warnings; nil disables logging.
	Logger *slog.Logger
	// DedupWindow bounds remembered event IDs per applet; zero means
	// DefaultDedupWindow.
	DedupWindow int
	// DispatchDelay models the engine's internal processing between
	// receiving a poll result with fresh events and issuing the first
	// action request (≈1 s in the paper's Table 5 timeline). Negative
	// disables it; zero means DefaultDispatchDelay.
	DispatchDelay time.Duration
	// PollLimit is the k parameter sent in poll requests — the maximum
	// buffered events a service returns per poll (§4 measured the
	// production default as 50). Zero sends no limit (the service
	// applies the protocol default, also 50).
	PollLimit int
	// Shards is the number of poll-scheduler shards. Zero means
	// GOMAXPROCS. Each shard owns a timer heap, an RNG stream split off
	// Config.RNG, and its share of the applet indexes; experiments that
	// must be reproducible across machines should pin this (the testbed
	// uses a fixed count).
	Shards int
	// ShardWorkers caps concurrent in-flight polls per shard. Zero
	// means DefaultShardWorkers. Total engine goroutines are
	// O(Shards × ShardWorkers), independent of the applet population.
	ShardWorkers int
	// Resilience tunes per-subscription failure handling: capped
	// exponential backoff and the circuit breaker of resilience.go. The
	// zero value enables both with defaults; set Resilience.Disable for
	// the paper-faithful full-cadence re-polling.
	Resilience ResilienceConfig
	// Adaptive, when non-nil, replaces Poll's gap draws with the
	// per-subscription EWMA cadence of adaptive.go: subscriptions that
	// produce events converge to AdaptiveConfig.FastFloor, silent ones
	// decay to SlowCeiling, and honoured realtime hints spike the
	// estimate. Poll is still used as a fallback (and keeps its
	// calibrated default) so disabling adaptive mode restores the
	// paper-faithful behaviour unchanged.
	Adaptive *AdaptiveConfig
	// PollBudgetQPS, when positive, enables the global admission
	// controller: each upstream service's polls are bounded by a token
	// bucket refilled at this rate. An empty bucket defers the poll to
	// the instant its token accrues (never drops it); deferrals are
	// counted in Stats and metrics. Circuit-breaker probe polls bypass
	// the budget. Zero disables admission.
	PollBudgetQPS float64
	// PollBudgetBurst caps each service's token bucket (the number of
	// polls that may be issued back-to-back after idleness). Zero means
	// max(PollBudgetQPS, 1) — about one second of refill.
	PollBudgetBurst float64
	// SLO, when non-nil, enables the burn-rate tracker and tail-based
	// span store of internal/obs/slo on the span stream (an implicit
	// SpanRecorder is installed even without Metrics): per-service and
	// global T2A objectives with ok/warn/page alerting surfaced as
	// ifttt_slo_* metrics, slo_* trace events, GET /debug/slo, and
	// GET /debug/slowest. Clock and Metrics default to the engine's own.
	SLO *slo.Config
	// Push enables the push ingestion tier (internal/ingest): the engine
	// mounts POST /v1/push, partner services with a push delivery mode
	// POST fully-formed event batches there, and accepted events dispatch
	// through per-shard bounded ingress queues without waiting for a poll
	// round-trip. The poll path keeps running as the reconciliation
	// safety net — per-applet dedup makes an event seen both ways execute
	// exactly once.
	Push bool
	// IngressQueue bounds each shard's ingress queue in pending push
	// deliveries; above the bound the ingress answers 429 for the
	// overflow (counted, never silent). Zero means
	// ingest.DefaultCapacity.
	IngressQueue int
	// IngressBatch caps the push deliveries one ingress consumer wake
	// hands to dispatch — the micro-batch; co-arriving deliveries for
	// one subscription within a batch merge into a single execution.
	// Zero means ingest.DefaultBatch.
	IngressBatch int
	// Journal, when non-nil, receives an append-only record of every
	// install, remove, subscription migration, and execution checkpoint
	// (journal.go) — the hook internal/durable's WAL plugs into.
	// Lifecycle records are appended before the in-memory commit, so
	// journal order equals commit order; a failed install append aborts
	// the install.
	Journal Journal
	// RetiredDedup bounds how many removed applets' dedup windows the
	// engine retains so a reinstall of the same applet ID stays
	// exactly-once for events the first installation executed. Zero
	// means DefaultRetiredDedup; negative disables retention (the
	// pre-durability behaviour: a reinstall starts with an empty
	// window).
	RetiredDedup int
	// Coalesce groups applets with identical trigger configurations
	// (same service, slug, fields, and user credentials — see
	// Applet.CoalescedTriggerIdentity) into shared subscriptions: one
	// upstream poll per subscription, fanned out to every member. Off by
	// default, because the paper observed the production engine polling
	// per applet even for identical triggers (Fig 7) and the simulation
	// reproduces that; the daemon (cmd/iftttd) turns it on.
	Coalesce bool
}

// DefaultRealtimeDelay approximates the hint-to-poll lag the paper
// measured for Alexa-backed applets (a few seconds end to end).
const DefaultRealtimeDelay = 1500 * time.Millisecond

// DefaultDedupWindow bounds the per-applet seen-event memory. It must
// exceed the poll batch limit, or re-served events would re-execute.
const DefaultDedupWindow = 1024

// DefaultDispatchDelay matches the ≈1 s poll-to-action-request gap of
// the paper's Table 5 timeline.
const DefaultDispatchDelay = time.Second

// DefaultShardWorkers is the per-shard in-flight poll cap.
const DefaultShardWorkers = 8

// DefaultTraceBuffer is the observer ring capacity.
const DefaultTraceBuffer = 4096

// Engine executes applets on a sharded poll scheduler: applets join
// per-trigger subscriptions, subscriptions hash to shards, each shard
// times its polls with a min-heap drained by a small worker pool, and
// hint routing resolves against per-shard subscription and engine-wide
// user indexes. See scheduler.go for the scheduling design and shard.go
// for the subscription model.
type Engine struct {
	clock     simtime.Clock
	epoch     time.Time // origin of the scheduler's integer time axis (scheduler.go)
	client    *httpx.Client
	poll      PollPolicy
	realtime  map[string]bool
	rtDelay   time.Duration
	trace     func(TraceEvent)
	log       *slog.Logger
	dedupCap  int
	dispatch  time.Duration
	pollLimit int
	workers   int
	coalesce  bool

	// Resolved resilience settings (resilience.go); immutable after New.
	resilient   bool
	backoffBase time.Duration
	backoffMax  time.Duration
	brThreshold int // 0 = breaker disabled
	probeIvl    time.Duration

	// Adaptive cadence and the global poll budget (adaptive.go); either
	// may be nil — they compose but do not require each other.
	adaptive  *adaptiveParams
	admission *admission

	// mu guards the engine-wide applet indexes. Lock ordering: mu may be
	// taken before a shard's mutex, never after.
	mu      sync.Mutex
	applets map[string]*runningApplet
	byUser  map[string]map[string]*runningApplet

	// journal, when set, records durable state changes (journal.go).
	journal Journal
	// Retired dedup windows of removed applets (journal.go), FIFO by
	// removal order. retMu is a leaf lock: safe to take under e.mu or a
	// shard's mutex, and nothing is acquired while holding it.
	retMu    sync.Mutex
	retired  map[string][]string
	retiredQ []string
	retCap   int

	// endpoints interns what every request to one trigger or action
	// shares (endpoint.go); epMu is a leaf lock.
	epMu      sync.Mutex
	endpoints map[endpointKey]*endpoint
	// decoders pools execution scratch (pollDecoder), per engine so that
	// a new engine starts with none; behind a pointer because the runtime
	// keeps a used Pool reachable for two collections.
	decoders *sync.Pool

	shards  []*shard
	stopped atomic.Bool
	// delMu serializes Stop against the spawn of upstream-DELETE actors
	// (Remove's last-member path): once Stop has set stopped under
	// delMu, no new delete actor starts, so a stopping engine never
	// issues DELETEs from freshly spawned actors — and under a
	// simulated clock no actor is left behind after the test's Run
	// section to trip the deadlock detector.
	delMu sync.Mutex
	// fanout, when metrics are registered, records members-per-poll.
	fanout *obs.Histogram
	// backoffHist, when metrics are registered, records every
	// failure-driven reschedule delay (backoff or probe interval).
	backoffHist *obs.Histogram
	// cadenceHist, when metrics are registered, records every
	// policy-driven (non-failure) poll gap the scheduler draws, so the
	// live cadence distribution — adaptive or not — is observable.
	cadenceHist *obs.Histogram
	// breakerOpen counts subscriptions whose breaker is currently open
	// or half-open; mutated under the owning shard's lock.
	breakerOpen atomic.Int64
	// hints counts realtime notifications at the HTTP surface, matched
	// or not; the per-shard counters cover the poll/dispatch hot path.
	hints atomic.Int64
	// Push ingress accounting (ingress.go), in events as seen at the
	// HTTP surface; per-delivery queue counters live on the shard
	// queues. push is set when Config.Push enabled the tier.
	push            bool
	ingressAccepted atomic.Int64
	ingressRejected atomic.Int64
	ingressUnmatch  atomic.Int64
	// execSeq numbers poll executions; every trace event of one poll
	// carries the same ExecID.
	execSeq atomic.Uint64
	// pump fans trace events out to the async observers; nil when none
	// are configured.
	pump    *obs.Pump[TraceEvent]
	metrics *obs.Registry
	// slo and tail are the burn-rate tracker and tail-based span store,
	// set when Config.SLO is non-nil.
	slo  *slo.Tracker
	tail *slo.TailStore
}

// Stats are the engine's monotonic operational counters, exposed on the
// engine's HTTP surface at GET /v1/stats.
type Stats struct {
	Applets int `json:"applets"`
	// Subscriptions counts the live upstream poll subscriptions; it
	// equals Applets when coalescing is off and is smaller by the
	// sharing factor when on.
	Subscriptions int   `json:"subscriptions"`
	Polls         int64 `json:"polls"`
	PollFailures  int64 `json:"poll_failures"`
	// Failure classification: transport errors never got an HTTP
	// response; HTTP errors carry a real (non-200) status.
	PollErrorsTransport   int64 `json:"poll_errors_transport"`
	PollErrorsHTTP        int64 `json:"poll_errors_http"`
	ActionErrorsTransport int64 `json:"action_errors_transport"`
	ActionErrorsHTTP      int64 `json:"action_errors_http"`
	// Circuit-breaker activity (resilience.go). BreakersOpen is the
	// current open/half-open population; the rest are monotonic.
	BreakersOpen  int64 `json:"breakers_open"`
	BreakerOpens  int64 `json:"breaker_opens"`
	BreakerCloses int64 `json:"breaker_closes"`
	BreakerProbes int64 `json:"breaker_probes"`
	// PollsDeferred counts polls the admission controller pushed past
	// their due time because the service's token bucket was empty;
	// BudgetGrants counts polls it admitted on time. Both stay zero
	// without Config.PollBudgetQPS.
	PollsDeferred int64 `json:"polls_deferred"`
	BudgetGrants  int64 `json:"budget_grants"`
	// PollsCoalesced counts upstream polls avoided by coalescing: each
	// poll of an n-member subscription adds n-1.
	PollsCoalesced int64 `json:"polls_coalesced"`
	EventsReceived int64 `json:"events_received"`
	ActionsOK      int64 `json:"actions_ok"`
	ActionsFailed  int64 `json:"actions_failed"`
	HintsReceived  int64 `json:"hints_received"`
	ConditionSkips int64 `json:"condition_skips"`
	// Push ingestion tier (Config.Push). PushBatches counts
	// per-subscription push dispatch executions; PushEvents the fresh
	// events they delivered (after dedup — the push analogue of
	// EventsReceived). The Ingress* counters account every pushed event
	// at the front door: accepted into a queue, rejected with 429 by
	// backpressure, or unmatched to any installed subscription.
	// IngressDepth is the current queued (plus in-flight) delivery
	// count, bounded by Config.IngressQueue per shard.
	PushBatches      int64 `json:"push_batches"`
	PushEvents       int64 `json:"push_events"`
	IngressAccepted  int64 `json:"ingress_accepted"`
	IngressRejected  int64 `json:"ingress_rejected"`
	IngressUnmatched int64 `json:"ingress_unmatched"`
	IngressDepth     int64 `json:"ingress_depth"`
}

// runningApplet is one installed applet's execution state. Scheduling
// lives on the subscription it belongs to; the applet keeps what cannot
// be shared — its dedup window and its definition, minus the strings on
// the two interned endpoints (applet rebuilds the public form). sub is
// set once at install (under the shard lock) and immutable after; dedup
// is touched only by the single worker polling the subscription.
type runningApplet struct {
	id, name, user              string
	trigger, action             *endpoint
	triggerToken, actionToken   string
	triggerFields, actionFields map[string]string
	conditions                  []Condition
	sub                         *subscription
	dedup                       dedupRing
}

func (e *Engine) newRunningApplet(a *Applet, dedup dedupRing) *runningApplet {
	return &runningApplet{
		id: a.ID, name: a.Name, user: a.UserID,
		trigger: e.endpointFor(&a.Trigger, false), action: e.endpointFor(&a.Action, true),
		triggerToken: a.Trigger.UserToken, actionToken: a.Action.UserToken,
		triggerFields: a.Trigger.Fields, actionFields: a.Action.Fields,
		conditions: a.Conditions,
		dedup:      dedup,
	}
}

// applet is the definition ra was installed from.
func (ra *runningApplet) applet() Applet {
	return Applet{
		ID: ra.id, Name: ra.name, UserID: ra.user,
		Trigger:    ra.trigger.serviceRef(ra.triggerFields, ra.triggerToken),
		Action:     ra.action.serviceRef(ra.actionFields, ra.actionToken),
		Conditions: ra.conditions,
	}
}

// New creates an engine. It panics if required config is missing.
func New(cfg Config) *Engine {
	if cfg.Clock == nil || cfg.RNG == nil || cfg.Doer == nil {
		panic("engine: Clock, RNG and Doer are required")
	}
	poll := cfg.Poll
	if poll == nil {
		poll = NewPaperPollModel()
	}
	rtDelay := cfg.RealtimeDelay
	if rtDelay <= 0 {
		rtDelay = DefaultRealtimeDelay
	}
	dedup := cfg.DedupWindow
	if dedup <= 0 {
		dedup = DefaultDedupWindow
	}
	dispatch := cfg.DispatchDelay
	if dispatch == 0 {
		dispatch = DefaultDispatchDelay
	}
	if dispatch < 0 {
		dispatch = 0
	}
	nShards := cfg.Shards
	if nShards <= 0 {
		nShards = runtime.GOMAXPROCS(0)
	}
	workers := cfg.ShardWorkers
	if workers <= 0 {
		workers = DefaultShardWorkers
	}
	e := &Engine{
		clock:     cfg.Clock,
		epoch:     cfg.Clock.Now(),
		client:    httpx.NewClient(cfg.Doer, cfg.Clock, 1),
		poll:      poll,
		realtime:  cfg.RealtimeServices,
		rtDelay:   rtDelay,
		trace:     cfg.Trace,
		log:       cfg.Logger,
		dedupCap:  dedup,
		dispatch:  dispatch,
		pollLimit: cfg.PollLimit,
		workers:   workers,
		coalesce:  cfg.Coalesce,
		applets:   make(map[string]*runningApplet),
		byUser:    make(map[string]map[string]*runningApplet),
		endpoints: make(map[endpointKey]*endpoint),
		decoders:  &sync.Pool{New: func() any { return new(pollDecoder) }},
		journal:   cfg.Journal,
	}
	switch {
	case cfg.RetiredDedup > 0:
		e.retCap = cfg.RetiredDedup
	case cfg.RetiredDedup == 0:
		e.retCap = DefaultRetiredDedup
	default:
		e.retCap = 0 // negative: retention disabled
	}
	if e.retCap > 0 {
		e.retired = make(map[string][]string)
	}
	res := cfg.Resilience
	e.resilient = !res.Disable
	if e.backoffBase = res.BackoffBase; e.backoffBase <= 0 {
		e.backoffBase = DefaultBackoffBase
	}
	if e.backoffMax = res.BackoffMax; e.backoffMax <= 0 {
		e.backoffMax = DefaultBackoffMax
	}
	if e.backoffMax < e.backoffBase {
		e.backoffMax = e.backoffBase
	}
	switch {
	case res.BreakerThreshold > 0:
		e.brThreshold = res.BreakerThreshold
	case res.BreakerThreshold == 0:
		e.brThreshold = DefaultBreakerThreshold
	default:
		e.brThreshold = 0 // negative: breaker disabled, backoff only
	}
	if e.probeIvl = res.ProbeInterval; e.probeIvl <= 0 {
		e.probeIvl = DefaultProbeInterval
	}
	e.adaptive = resolveAdaptive(cfg.Adaptive)
	if cfg.PollBudgetQPS > 0 {
		e.admission = newAdmission(cfg.PollBudgetQPS, cfg.PollBudgetBurst)
	}

	// The retry layer's backoff gets seeded jitter so coalesced
	// subscriptions retrying one dead endpoint spread out. The stream is
	// shared across workers, hence the mutex (stats.RNG is not
	// thread-safe).
	jr := cfg.RNG.Split("retry-jitter")
	var jmu sync.Mutex
	e.client.SetBackoff(httpx.ExpBackoff(httpx.DefaultRetryBase, httpx.DefaultRetryCap, func() float64 {
		jmu.Lock()
		defer jmu.Unlock()
		return jr.Float64()
	}))

	e.shards = make([]*shard, nShards)
	for i := range e.shards {
		// Shard RNG streams are split in index order, so a given
		// (seed, shard count) always yields the same streams.
		e.shards[i] = newShard(e, i, cfg.RNG.Split(fmt.Sprintf("shard-%d", i)))
	}
	if cfg.Push {
		e.push = true
		for _, sh := range e.shards {
			sh := sh
			sh.ingress = ingest.NewQueue(cfg.Clock, cfg.IngressQueue,
				cfg.IngressBatch, sh.deliverPush)
		}
	}

	observers := cfg.Observers
	if cfg.Metrics != nil {
		e.metrics = cfg.Metrics
		e.registerMetrics(cfg.Metrics)
	}
	if cfg.SLO != nil {
		sc := *cfg.SLO
		if sc.Clock == nil {
			sc.Clock = cfg.Clock
		}
		if sc.Metrics == nil {
			sc.Metrics = cfg.Metrics
		}
		// Surface alert transitions as trace events alongside the
		// caller's own callback.
		userTr := sc.OnTransition
		sc.OnTransition = func(tr slo.Transition) {
			kind := TraceSLOClear
			switch tr.To {
			case slo.StateWarn:
				kind = TraceSLOWarn
			case slo.StatePage:
				kind = TraceSLOPage
			}
			e.emit(nil, TraceEvent{Kind: kind, Service: tr.Service,
				Err: fmt.Sprintf("%s->%s fast %.2fx slow %.2fx", tr.From, tr.To, tr.FastBurn, tr.SlowBurn)})
			if userTr != nil {
				userTr(tr)
			}
		}
		e.slo = slo.NewTracker(sc)
		e.tail = slo.NewTailStore(sc.RetainSpans, e.slo.Objective().Threshold)
		if cfg.Metrics != nil {
			e.tail.RegisterMetrics(cfg.Metrics)
		}
	}
	if cfg.Metrics != nil || e.slo != nil {
		// The implicit span recorder turns the trace stream into the T2A
		// segment histograms on the registry and feeds the SLO tracker
		// and tail store.
		src := SpanRecorderConfig{Metrics: cfg.Metrics}
		if e.slo != nil {
			tracker, tail := e.slo, e.tail
			src.OnSpan = func(s obs.ExecSpan) {
				tracker.Observe(s)
				tail.Offer(s)
			}
		}
		rec := NewSpanRecorder(src)
		observers = append(observers[:len(observers):len(observers)], rec.Observe)
	}
	if len(observers) > 0 {
		buf := cfg.TraceBuffer
		if buf <= 0 {
			buf = DefaultTraceBuffer
		}
		e.pump = obs.NewPump(cfg.Clock, buf, observers...)
	}
	return e
}

// FlushTrace blocks until every trace event emitted before the call has
// been delivered to all async observers (no-op without observers).
// Tests use it to read observer state deterministically.
func (e *Engine) FlushTrace() {
	if e.pump != nil {
		e.pump.Sync()
	}
}

// TraceDrops reports how many trace events the observer ring rejected
// because it was full (or the engine stopped).
func (e *Engine) TraceDrops() int64 {
	if e.pump == nil {
		return 0
	}
	return e.pump.Drops()
}

// emit bumps the counter for ev on sh (nil for engine-level events) and
// forwards it to the trace observer.
func (e *Engine) emit(sh *shard, ev TraceEvent) {
	switch ev.Kind {
	case TracePollSent:
		sh.counters.polls.Add(1)
	case TracePollFailed:
		sh.counters.pollFailures.Add(1)
	case TracePollResult:
		sh.counters.eventsReceived.Add(int64(ev.N))
	case TracePushDispatch:
		sh.counters.pushBatches.Add(1)
		sh.counters.pushEvents.Add(int64(ev.N))
	case TraceActionAcked:
		sh.counters.actionsOK.Add(1)
	case TraceActionFailed:
		sh.counters.actionsFailed.Add(1)
	case TraceConditionSkip:
		sh.counters.conditionSkips.Add(1)
	case TraceHintReceived:
		e.hints.Add(1)
	}
	if e.trace == nil && e.pump == nil {
		return
	}
	ev.Time = e.clock.Now()
	if e.trace != nil {
		e.trace(ev)
	}
	if e.pump != nil {
		e.pump.Publish(ev)
	}
}

// Stats returns a snapshot of the engine's operational counters, merged
// across shards.
func (e *Engine) Stats() Stats {
	var st Stats
	for _, sh := range e.shards {
		st.Polls += sh.counters.polls.Load()
		st.PollFailures += sh.counters.pollFailures.Load()
		st.PollErrorsTransport += sh.counters.pollErrTransport.Load()
		st.PollErrorsHTTP += sh.counters.pollErrHTTP.Load()
		st.ActionErrorsTransport += sh.counters.actionErrTransport.Load()
		st.ActionErrorsHTTP += sh.counters.actionErrHTTP.Load()
		st.BreakerOpens += sh.counters.breakerOpens.Load()
		st.BreakerCloses += sh.counters.breakerCloses.Load()
		st.BreakerProbes += sh.counters.breakerProbes.Load()
		st.PollsDeferred += sh.counters.pollsDeferred.Load()
		st.PollsCoalesced += sh.counters.pollsCoalesced.Load()
		st.EventsReceived += sh.counters.eventsReceived.Load()
		st.ActionsOK += sh.counters.actionsOK.Load()
		st.ActionsFailed += sh.counters.actionsFailed.Load()
		st.ConditionSkips += sh.counters.conditionSkips.Load()
		st.PushBatches += sh.counters.pushBatches.Load()
		st.PushEvents += sh.counters.pushEvents.Load()
		if sh.ingress != nil {
			st.IngressDepth += sh.ingress.Depth()
		}
		sh.mu.Lock()
		st.Subscriptions += len(sh.subs)
		sh.mu.Unlock()
	}
	e.mu.Lock()
	st.Applets = len(e.applets)
	e.mu.Unlock()
	st.HintsReceived = e.hints.Load()
	st.BreakersOpen = e.breakerOpen.Load()
	st.IngressAccepted = e.ingressAccepted.Load()
	st.IngressRejected = e.ingressRejected.Load()
	st.IngressUnmatched = e.ingressUnmatch.Load()
	if e.admission != nil {
		st.BudgetGrants = e.admission.grants()
	}
	return st
}

// subscriptionKey derives the grouping key an applet polls under: its
// own TriggerIdentity normally, the applet-agnostic coalesced identity
// when Config.Coalesce is set.
func (e *Engine) subscriptionKey(a *Applet) string {
	if e.coalesce {
		return a.CoalescedTriggerIdentity()
	}
	return a.TriggerIdentity()
}

// Install registers an applet, joining it to the subscription for its
// trigger (creating and scheduling one when it is the first member). It
// returns an error for duplicate IDs or after Stop.
func (e *Engine) Install(a Applet) error {
	if a.ID == "" {
		return fmt.Errorf("engine: applet ID required")
	}
	ra := e.newRunningApplet(&a, newDedupRing(e.dedupCap))
	key := e.subscriptionKey(&a)
	// Without coalescing, subscriptions shard by applet ID — the exact
	// placement (and therefore RNG stream assignment) of the
	// per-applet design. With coalescing they shard by key, so every
	// member of a subscription lands on the shard that owns it.
	shardKey := a.ID
	if e.coalesce {
		shardKey = key
	}
	sh := e.shardFor(shardKey)

	e.mu.Lock()
	if e.stopped.Load() {
		e.mu.Unlock()
		return fmt.Errorf("engine: stopped")
	}
	if _, dup := e.applets[a.ID]; dup {
		e.mu.Unlock()
		return fmt.Errorf("engine: applet %q already installed", a.ID)
	}
	sh.mu.Lock()
	if sh.stopped {
		sh.mu.Unlock()
		e.mu.Unlock()
		return fmt.Errorf("engine: stopped")
	}
	// Journal before commit, inside both critical sections, so the WAL's
	// record order is the engine's commit order and a crash can never
	// leave a committed install unjournaled.
	if e.journal != nil {
		if err := e.journal.AppendInstall(a); err != nil {
			sh.mu.Unlock()
			e.mu.Unlock()
			return fmt.Errorf("engine: journal install %q: %w", a.ID, err)
		}
	}
	// A reinstall of a removed applet ID resumes its dedup window, so
	// events the previous installation executed stay executed-once.
	if ids := e.takeRetiredDedup(a.ID); ids != nil {
		ra.dedup = restoreDedupRing(e.dedupCap, ids)
	}
	sh.joinLocked(ra, key)
	sh.mu.Unlock()
	e.applets[a.ID] = ra
	u := e.byUser[a.UserID]
	if u == nil {
		u = make(map[string]*runningApplet)
		e.byUser[a.UserID] = u
	}
	u[a.ID] = ra
	e.mu.Unlock()

	e.emit(sh, TraceEvent{Kind: TraceInstall, AppletID: a.ID})
	return nil
}

// Remove stops and forgets an applet. When it was its subscription's
// last member the engine also notifies the trigger service that the
// subscription is gone (the protocol's DELETE
// /ifttt/v1/triggers/{slug}/trigger_identity/{id}), so the service can
// drop its event buffer.
func (e *Engine) Remove(id string) {
	e.mu.Lock()
	ra := e.applets[id]
	if ra == nil {
		e.mu.Unlock()
		return
	}
	// Journal the removal before the commit (same ordering argument as
	// Install); unlike installs, a failed append does not abort — the
	// user asked for the applet to be gone, and the worst a lost record
	// costs is a resurrected applet after a crash.
	if e.journal != nil {
		if err := e.journal.AppendRemove(id); err != nil && e.log != nil {
			e.log.Warn("journal remove failed", "applet", id, "err", err)
		}
	}
	delete(e.applets, id)
	if u := e.byUser[ra.user]; u != nil {
		delete(u, id)
		if len(u) == 0 {
			delete(e.byUser, ra.user)
		}
	}
	sub := ra.sub
	sh := sub.shard
	sh.mu.Lock()
	last := sh.leaveLocked(ra)
	// Retain the applet's dedup window for a future reinstall. While an
	// execution owns the subscription its worker may still be feeding
	// the ring (the member snapshot was taken before this removal), so
	// hand retention to the owner's release path instead of snapshotting
	// a ring that is mid-write.
	if sub.polling {
		p := sub.park()
		p.retire = append(p.retire, ra)
	} else {
		e.retainDedup(ra)
	}
	sh.mu.Unlock()
	e.mu.Unlock()

	e.emit(sh, TraceEvent{Kind: TraceRemove, AppletID: id})
	if last {
		// Serialized against Stop under delMu: a stopping engine spawns
		// no new delete actors (see the field's comment).
		e.delMu.Lock()
		if !e.stopped.Load() {
			e.clock.Go(func() { e.deleteUpstream(sub) })
		}
		e.delMu.Unlock()
	}
}

// Applets returns the IDs of installed applets (unordered).
func (e *Engine) Applets() []string {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]string, 0, len(e.applets))
	for id := range e.applets {
		out = append(out, id)
	}
	return out
}

// AppletKeys maps every installed applet ID to its subscription key.
// The cluster re-indexes a node's recovered applets with this after a
// durable restore.
func (e *Engine) AppletKeys() map[string]string {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make(map[string]string, len(e.applets))
	for id, ra := range e.applets {
		out[id] = ra.sub.key
	}
	return out
}

// Stop halts all scheduling. In-flight polls finish their current
// round; pending ones are abandoned. The engine cannot be restarted.
// Stop also retires the observer pump after a final drain: under a
// simulated clock an engine with observers MUST be stopped, or the
// parked consumer actor trips the simulator's deadlock detector.
func (e *Engine) Stop() {
	// Setting stopped under delMu fences Remove's last-member path: after
	// this section no upstream-DELETE actor can start, and one observed
	// mid-section has already been spawned (in-flight work finishing its
	// round, like an in-flight poll).
	e.delMu.Lock()
	e.stopped.Store(true)
	e.delMu.Unlock()
	for _, sh := range e.shards {
		sh.stop()
	}
	// Retire the ingress queues before the trace pump: their final drain
	// (which drops — the shards are stopped) may still emit trace events.
	for _, sh := range e.shards {
		if sh.ingress != nil {
			sh.ingress.Close()
		}
	}
	if e.pump != nil {
		e.pump.Close()
	}
}
