// Push-vs-poll A/B study: the quantitative case for the push ingestion
// tier. Both arms run the same skewed population (a hot set producing
// all the events inside the horizon over a long cold tail) under the
// same adaptive polling policy and the same per-service QPS budget —
// sized so hot demand oversubscribes the budget, exactly the regime the
// paper's Fig 5 measures where polling-gap dominates T2A. The poll arm
// delivers every event through that saturated poll loop; the push arm
// additionally POSTs each event to the engine's push ingress the
// instant it occurs. Per-identity dedup reconciles the two paths, so
// the push arm's polls become a reconciliation safety net and its T2A
// collapses from poll-cadence scale to ingress scale: seconds, not poll
// cycles.
package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"strings"
	"time"

	"repro/internal/engine"
	"repro/internal/proto"
	"repro/internal/stats"
)

// PushVsPollConfig tunes RunPushVsPoll. Zero fields select the defaults
// noted on each.
type PushVsPollConfig struct {
	Seed uint64
	// Subs and Hot size the population: Subs subscriptions of which the
	// first Hot are hot. Defaults 100000 and 10000 — hot demand
	// (Hot/HotPeriod ≈ 333 events/s) oversubscribes the default budget,
	// so the poll arm's cadence stretches well past the event period.
	Subs, Hot int
	// HotPeriod and ColdPeriod are the event cadences. Defaults 30s and
	// 4h (cold subscriptions produce no events inside the horizon).
	HotPeriod, ColdPeriod time.Duration
	// BudgetQPS is the per-service poll budget both arms share.
	// Default 200.
	BudgetQPS float64
	// Horizon is each arm's simulated run length; spans from its first
	// half (EWMA warm-up and initial-gap spreading) are discarded.
	// Default 40m.
	Horizon time.Duration
	// IngressQueue forwards to the push arm's engine.Config. Default
	// 4096.
	IngressQueue int
	// FlushInterval is the push partner's batching cadence: events that
	// occurred since the previous flush are POSTed together at each
	// flush. Default 1s, so a pushed event waits up to one second before
	// ingestion: the realistic sub-second latency the push arm measures.
	FlushInterval time.Duration
}

// QuickPushVsPollConfig is the study at cmd/report -quick's size: 2 000
// subscriptions of which 200 are hot, a 10 QPS budget, 30 minutes.
func QuickPushVsPollConfig(seed uint64) PushVsPollConfig {
	return PushVsPollConfig{Seed: seed, Subs: 2000, Hot: 200, BudgetQPS: 10, Horizon: 30 * time.Minute}
}

// PushVsPollArm is one arm's measurement.
type PushVsPollArm struct {
	Push bool
	// P50/P90/P99 are T2A percentiles in seconds over all events
	// delivered after warm-up.
	P50, P90, P99 float64
	// Events is the number of measured deliveries behind the
	// percentiles; PushShare is the fraction of them that arrived
	// through the push ingress (always 0 for the poll arm).
	Events    int
	PushShare float64
	// IngestP50 is the median ingress queue wait of pushed spans in
	// seconds (the "ingest" segment of the T2A breakdown).
	IngestP50 float64
	// MeasuredQPS is the poll rate actually spent; Polls its count.
	MeasuredQPS float64
	Polls       int64
	// Accepted and Rejected are the engine's ingress event counters:
	// rejected events were shed with 429 and left to the poll path.
	Accepted, Rejected int64
}

// PushVsPollResults carries both arms.
type PushVsPollResults struct {
	Cfg  PushVsPollConfig
	Poll PushVsPollArm
	Push PushVsPollArm
}

// Speedup is the headline ratio: poll-arm T2A p50 over push-arm T2A
// p50. Event timestamps carry nanosecond precision ("timestamp_ns"),
// so sub-second push T2As are real measurements; the floor is only a
// millisecond guard against division blow-ups.
func (r *PushVsPollResults) Speedup() float64 {
	p := r.Push.P50
	if p < 0.001 {
		p = 0.001
	}
	return r.Poll.P50 / p
}

// RunPushVsPoll runs the two arms and returns their T2A distributions.
func RunPushVsPoll(cfg PushVsPollConfig) (*PushVsPollResults, error) {
	orDefault(&cfg.Subs, 100_000)
	orDefault(&cfg.Hot, 10_000)
	orDefault(&cfg.HotPeriod, 30*time.Second)
	orDefault(&cfg.ColdPeriod, 4*time.Hour)
	orDefault(&cfg.BudgetQPS, 200)
	orDefault(&cfg.Horizon, 40*time.Minute)
	orDefault(&cfg.IngressQueue, 4096)
	orDefault(&cfg.FlushInterval, time.Second)
	res := &PushVsPollResults{Cfg: cfg}
	var err error
	if res.Poll, err = runPushVsPollArm(cfg, false); err != nil {
		return nil, fmt.Errorf("poll arm: %w", err)
	}
	if res.Push, err = runPushVsPollArm(cfg, true); err != nil {
		return nil, fmt.Errorf("push arm: %w", err)
	}
	return res, nil
}

// pushStudyAdaptive is the adaptive polling of the push-vs-poll and
// cluster studies: the engine's best non-push configuration, not a
// strawman, and the reconciliation path of the push tier.
func pushStudyAdaptive() *engine.AdaptiveConfig {
	return &engine.AdaptiveConfig{
		HalfLife: 2 * time.Minute, FastFloor: 10 * time.Second,
		SlowCeiling: 15 * time.Minute, TargetEventsPerPoll: 0.3,
	}
}

func runPushVsPollArm(cfg PushVsPollConfig, push bool) (PushVsPollArm, error) {
	rig := newSimRig()
	clock := rig.clock
	doer := NewSkewedLoad(clock, cfg.HotPeriod, cfg.ColdPeriod)
	rig.cutoff = clock.Now().Add(cfg.Horizon / 2)
	ecfg := engine.Config{
		Clock: clock, RNG: stats.NewRNG(cfg.Seed), Doer: doer,
		// A small but nonzero dispatch delay (both arms, so the
		// comparison stays fair) models per-dispatch engine work; it is
		// what makes ingress queueing visible as a real sub-second wait
		// instead of an instantaneous sim artifact.
		DispatchDelay: 10 * time.Millisecond,
		Shards:        8, ShardWorkers: 8,
		PollBudgetQPS: cfg.BudgetQPS,
		// Both arms poll adaptively; the push arm keeps the same loop.
		Adaptive: pushStudyAdaptive(),
		OnSpan:   rig.onSpan,
	}
	if push {
		ecfg.Push = true
		ecfg.IngressQueue = cfg.IngressQueue
	}
	eng := engine.New(ecfg)
	if err := rig.run(func() error {
		defer eng.Stop()
		if err := installN(eng.Install, cfg.Subs, func(j int) engine.Applet { return paretoApplet(j, cfg.Hot) }); err != nil {
			return err
		}
		if push {
			// The partner POSTs a batch every FlushInterval, in-process
			// against the engine handler: the study measures the
			// ingestion tier, not a simulated WAN hop.
			handler := eng.Handler()
			flushes := int(cfg.Horizon/cfg.FlushInterval) - 1 // the last one interval before the horizon
			pushPartner(clock, doer, cfg.Hot, func() bool {
				if flushes <= 0 {
					return false
				}
				flushes--
				clock.Sleep(cfg.FlushInterval)
				return true
			}, func(ds []proto.PushDelivery) {
				body, _ := json.Marshal(proto.PushBatch{Data: ds})
				req := httptest.NewRequest("POST", proto.PushPath, bytes.NewReader(body))
				handler.ServeHTTP(httptest.NewRecorder(), req)
			})
		}
		clock.Sleep(cfg.Horizon)
		return nil
	}); err != nil {
		return PushVsPollArm{}, err
	}
	st, t2a := eng.Stats(), summary(rig.t2a)
	arm := PushVsPollArm{
		Push:        push,
		P50:         t2a.P50,
		P90:         t2a.P90,
		P99:         t2a.P99,
		Events:      t2a.N,
		IngestP50:   summary(rig.ingest).P50,
		MeasuredQPS: float64(st.Polls) / cfg.Horizon.Seconds(),
		Polls:       st.Polls,
		Accepted:    st.IngressAccepted,
		Rejected:    st.IngressRejected,
	}
	if t2a.N > 0 {
		arm.PushShare = float64(rig.pushed) / float64(t2a.N)
	}
	return arm, nil
}

// FormatPushVsPoll renders the push-vs-poll section of EXPERIMENTS.md.
func FormatPushVsPoll(r *PushVsPollResults) string {
	var b strings.Builder
	b.WriteString("## Push ingestion: T2A in seconds, not poll cycles\n\n")
	fmt.Fprintf(&b,
		"%d subscriptions (%d hot at one event/%s) under a %g QPS poll budget — hot demand oversubscribes the budget, "+
			"so the poll arm's adaptive cadence stretches far past the event period. The push arm runs the identical "+
			"engine and poll loop plus the push ingress: partners POST each event as it happens, dedup reconciles the "+
			"paths, and polling becomes the safety net. T2A percentiles over events delivered after warm-up.\n\n",
		r.Cfg.Subs, r.Cfg.Hot, r.Cfg.HotPeriod, r.Cfg.BudgetQPS)
	b.WriteString("| Arm | T2A p50 | T2A p90 | T2A p99 | Events | Push share | Ingest p50 | Spent (QPS) | 429 events |\n")
	b.WriteString("|---|---|---|---|---|---|---|---|---|\n")
	for _, a := range []PushVsPollArm{r.Poll, r.Push} {
		name := "adaptive poll"
		if a.Push {
			name = "push + poll"
		}
		fmt.Fprintf(&b, "| %s | %.1f s | %.1f s | %.1f s | %d | %.0f%% | %.2f s | %.1f | %d |\n",
			name, a.P50, a.P90, a.P99, a.Events, 100*a.PushShare, a.IngestP50, a.MeasuredQPS, a.Rejected)
	}
	fmt.Fprintf(&b, "\nHeadline: push delivers the same events **%.0fx** faster at the median. "+
		"The poll arm's p50 is the budget-starved polling gap the paper measured; the push arm's is the "+
		"partner's flush cadence plus ingress queueing (measured at nanosecond timestamp precision), which "+
		"the bounded per-shard queues keep at micro-batch scale.\n", r.Speedup())
	return b.String()
}
