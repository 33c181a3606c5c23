// Observability glue: the engine's metric registrations and the span
// sink. The goroutine that runs an execution completes its ExecSpans
// itself (dispatch.go), one per dispatched action — the data behind the
// paper's trigger-to-action latency decomposition (Sec 6, Fig 5) — and
// hands each to recordSpan, so no span is ever lost or reassembled.
package engine

import (
	"strconv"

	"repro/internal/obs"
)

// registerMetrics exposes the engine's operational state on reg. The
// counter funcs read the same shard-local atomics Stats merges; the
// scheduler gauges take each shard's mutex briefly, which is fine at
// scrape frequency. One registry serves one engine: registering a
// second engine on the same registry panics on the duplicate names. A
// cluster gives each node a child registry (Registry.AddChild) and sums
// them, so every gauge here must add up across engines.
func (e *Engine) registerMetrics(reg *obs.Registry) {
	sum := func(pick func(*shardCounters) int64) func() int64 {
		return func() int64 {
			var n int64
			for _, sh := range e.shards {
				n += pick(&sh.counters)
			}
			return n
		}
	}
	reg.CounterFunc("ifttt_engine_polls_total", "Trigger polls issued.",
		sum(func(c *shardCounters) int64 { return c.polls.Load() }))
	reg.CounterFunc("ifttt_engine_poll_failures_total", "Trigger polls that failed.",
		sum(func(c *shardCounters) int64 { return c.pollFailures.Load() }))
	reg.CounterFunc("ifttt_engine_poll_errors_transport_total",
		"Poll failures that never got an HTTP response.",
		sum(func(c *shardCounters) int64 { return c.pollErrTransport.Load() }))
	reg.CounterFunc("ifttt_engine_poll_errors_http_total",
		"Poll failures with a real non-200 HTTP status.",
		sum(func(c *shardCounters) int64 { return c.pollErrHTTP.Load() }))
	reg.CounterFunc("ifttt_engine_action_errors_transport_total",
		"Action failures that never got an HTTP response.",
		sum(func(c *shardCounters) int64 { return c.actionErrTransport.Load() }))
	reg.CounterFunc("ifttt_engine_action_errors_http_total",
		"Action failures with a real non-200 HTTP status.",
		sum(func(c *shardCounters) int64 { return c.actionErrHTTP.Load() }))
	reg.CounterFunc("ifttt_engine_breaker_opens_total",
		"Circuit breakers opened by consecutive poll failures.",
		sum(func(c *shardCounters) int64 { return c.breakerOpens.Load() }))
	reg.CounterFunc("ifttt_engine_breaker_closes_total",
		"Circuit breakers closed by a successful probe.",
		sum(func(c *shardCounters) int64 { return c.breakerCloses.Load() }))
	reg.CounterFunc("ifttt_engine_breaker_probes_total",
		"Half-open probe polls issued while a breaker was open.",
		sum(func(c *shardCounters) int64 { return c.breakerProbes.Load() }))
	reg.GaugeFunc("ifttt_engine_breakers_open",
		"Subscriptions whose circuit breaker is currently open or half-open.",
		func() float64 { return float64(e.breakerOpen.Load()) })
	// Seconds from 1s to ~4096s: backoff spans BackoffBase..BackoffMax
	// and probe intervals, all well inside this range.
	e.backoffHist = reg.Histogram("ifttt_engine_poll_backoff_seconds",
		"Failure-driven poll reschedule delay (exponential backoff or probe interval).",
		obs.LogBuckets(1, 4096, 2))
	// Scheduled poll gaps span the adaptive fast floor (seconds) to the
	// slow ceiling (tens of minutes); the same range covers every
	// static policy's draws.
	e.cadenceHist = reg.Histogram("ifttt_engine_poll_cadence_seconds",
		"Scheduled (non-failure) poll gap drawn per subscription; under adaptive polling this is the live cadence distribution.",
		obs.LogBuckets(1, 4096, 2))
	reg.CounterFunc("ifttt_engine_polls_deferred_total",
		"Polls pushed past their due time by an empty upstream-budget token bucket.",
		sum(func(c *shardCounters) int64 { return c.pollsDeferred.Load() }))
	if adm := e.admission; adm != nil {
		reg.CounterFunc("ifttt_engine_poll_budget_grants_total",
			"Polls the admission controller admitted without deferral.",
			adm.grants)
		reg.GaugeFunc("ifttt_engine_poll_budget_tokens",
			"Token balance summed across upstream services; negative is the outstanding reservation backlog.",
			adm.tokenBalance)
		reg.GaugeFunc("ifttt_engine_poll_budget_qps",
			"Configured per-service upstream poll budget (polls/sec).",
			func() float64 { return adm.qps })
	}
	reg.CounterFunc("ifttt_engine_events_received_total", "Fresh trigger events received.",
		sum(func(c *shardCounters) int64 { return c.eventsReceived.Load() }))
	reg.CounterFunc("ifttt_engine_actions_ok_total", "Actions acknowledged by the action service.",
		sum(func(c *shardCounters) int64 { return c.actionsOK.Load() }))
	reg.CounterFunc("ifttt_engine_actions_failed_total", "Actions that failed.",
		sum(func(c *shardCounters) int64 { return c.actionsFailed.Load() }))
	reg.CounterFunc("ifttt_engine_condition_skips_total", "Events suppressed by applet conditions.",
		sum(func(c *shardCounters) int64 { return c.conditionSkips.Load() }))
	reg.CounterFunc("ifttt_engine_polls_coalesced_total",
		"Upstream polls avoided by subscription coalescing (n-1 per poll of an n-member subscription).",
		sum(func(c *shardCounters) int64 { return c.pollsCoalesced.Load() }))
	reg.CounterFunc("ifttt_engine_hints_received_total", "Realtime notifications received.",
		func() int64 { return e.hints.Load() })
	if e.push {
		reg.CounterFunc("ifttt_engine_push_batches_total",
			"Per-subscription push dispatch executions (ingress.go).",
			sum(func(c *shardCounters) int64 { return c.pushBatches.Load() }))
		reg.CounterFunc("ifttt_engine_push_events_total",
			"Fresh trigger events delivered via the push path (the push analogue of events_received).",
			sum(func(c *shardCounters) int64 { return c.pushEvents.Load() }))
		reg.CounterFunc("ifttt_ingest_accepted_total",
			"Pushed events accepted into subscription mailboxes.",
			func() int64 { return e.ingressAccepted.Load() })
		reg.CounterFunc("ifttt_ingest_rejected_total",
			"Pushed events shed with 429 by ingress backpressure.",
			func() int64 { return e.ingressRejected.Load() })
		reg.CounterFunc("ifttt_ingest_unmatched_total",
			"Pushed events that matched no installed subscription.",
			func() int64 { return e.ingressUnmatch.Load() })
		reg.GaugeFunc("ifttt_ingest_queue_depth",
			"Push deliveries waiting or in flight across the shards (bounded by IngressQueue per shard).",
			func() float64 {
				n := 0
				for _, sh := range e.shards {
					sh.mu.Lock()
					n += sh.pushDepth
					sh.mu.Unlock()
				}
				return float64(n)
			})
	}
	reg.GaugeFunc("ifttt_engine_applets", "Installed applets.", func() float64 {
		e.mu.Lock()
		n := len(e.applets)
		e.mu.Unlock()
		return float64(n)
	})
	reg.GaugeFunc("ifttt_engine_subscriptions", "Live upstream poll subscriptions.", func() float64 {
		n := 0
		for _, sh := range e.shards {
			sh.mu.Lock()
			n += len(sh.subs)
			sh.mu.Unlock()
		}
		return float64(n)
	})
	// Powers of two up to 4096 members: with coalescing off every poll
	// lands in the first bucket, so the histogram doubles as an A/B
	// sanity check.
	e.fanout = reg.Histogram("ifttt_engine_poll_fanout_members",
		"Member applets served per upstream poll.", obs.LogBuckets(1, 4096, 2))
	reg.GaugeFunc("ifttt_engine_pending_polls", "Entries waiting in the shard timer heaps.", func() float64 {
		n := 0
		for _, sh := range e.shards {
			sh.mu.Lock()
			n += len(sh.heap)
			sh.mu.Unlock()
		}
		return float64(n)
	})
	reg.GaugeFunc("ifttt_engine_ready_queue", "Due applets awaiting a free poll worker.", func() float64 {
		n := 0
		for _, sh := range e.shards {
			sh.mu.Lock()
			n += sh.readyLenLocked()
			sh.mu.Unlock()
		}
		return float64(n)
	})
	reg.GaugeFunc("ifttt_engine_inflight_workers", "Poll workers currently running.", func() float64 {
		n := 0
		for _, sh := range e.shards {
			sh.mu.Lock()
			n += sh.inflight
			sh.mu.Unlock()
		}
		return float64(n)
	})
	// A stopped engine (a failed cluster node) counts no capacity, so a
	// cluster's sums are those of its live nodes.
	shards := func() int {
		if e.stopped.Load() {
			return 0
		}
		return len(e.shards)
	}
	reg.GaugeFunc("ifttt_engine_shards", "Poll scheduler shards running.",
		func() float64 { return float64(shards()) })
	reg.GaugeFunc("ifttt_engine_worker_slots", "Executions that may run at once: running shards times the per-shard worker cap.",
		func() float64 { return float64(shards() * e.workers) })

	b := obs.DefaultLatencyBuckets
	e.spanMetrics = &spanMetrics{
		t2a: reg.Histogram("ifttt_t2a_seconds",
			"Trigger-to-action latency: event buffered at the trigger service to action acknowledged.", b),
		pollGap: reg.Histogram("ifttt_polling_gap_seconds",
			"Time the event waited in the trigger service's buffer before the engine polled.", b),
		pollRTT: reg.Histogram("ifttt_poll_rtt_seconds",
			"Trigger poll round-trip time.", b),
		processing: reg.Histogram("ifttt_engine_processing_seconds",
			"Engine-internal time from poll result to action request.", b),
		delivery: reg.Histogram("ifttt_action_delivery_seconds",
			"Action request round-trip to acknowledgement.", b),
		hintLag: reg.Histogram("ifttt_hint_lag_seconds",
			"Realtime hint to provoked poll latency.", b),
		ingestLag: reg.Histogram("ifttt_ingest_lag_seconds",
			"Push-path queue wait: ingress accept to dispatch start.", b),
		spans:     reg.Counter("ifttt_spans_total", "Execution spans completed."),
		pushSpans: reg.Counter("ifttt_spans_pushed_total", "Execution spans delivered via the push ingestion tier."),
		spanFails: reg.Counter("ifttt_spans_failed_total", "Execution spans that ended in action failure."),
	}
}

// spanMetrics are the T2A segment histograms and span counters that
// Config.Metrics receives; all are safe for concurrent use.
type spanMetrics struct {
	t2a, pollGap, pollRTT, processing, delivery, hintLag, ingestLag *obs.Histogram
	spans, pushSpans, spanFails                                     *obs.Counter
}

// recordSpan hands one completed execution span to every sink: the
// segment histograms, the SLO tracker and tail store, Config.OnSpan. It
// runs on the goroutine that executed the action, so the sinks must be
// safe for concurrent use.
func (e *Engine) recordSpan(s obs.ExecSpan) {
	if m := e.spanMetrics; m != nil {
		// The exec ID doubles as the exemplar trace ID: a breaching
		// bucket on /metrics resolves to the retained span at
		// /debug/slowest via the same decimal ID.
		m.t2a.ObserveExemplar(s.T2A().Seconds(),
			strconv.FormatUint(s.ExecID, 10), float64(s.ActionDoneAt.UnixNano())/1e9)
		if s.Pushed {
			// Pushed executions have no polling gap or poll RTT;
			// observing zeros would skew the poll-path histograms.
			m.ingestLag.Observe(s.Ingest().Seconds())
			m.pushSpans.Inc()
		} else {
			if !s.EventAt.IsZero() {
				m.pollGap.Observe(s.PollingGap().Seconds())
			}
			m.pollRTT.Observe(s.PollRTT().Seconds())
		}
		m.processing.Observe(s.Processing().Seconds())
		m.delivery.Observe(s.Delivery().Seconds())
		if !s.HintAt.IsZero() {
			m.hintLag.Observe(s.HintLag().Seconds())
		}
		m.spans.Inc()
		if s.Failed {
			m.spanFails.Inc()
		}
	}
	if e.slo != nil {
		e.slo.Observe(s)
		e.tail.Offer(s)
	}
	if e.onSpan != nil {
		e.onSpan(s)
	}
}
