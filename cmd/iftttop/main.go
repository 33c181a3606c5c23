// Command iftttop is a live terminal console for a running iftttd (or
// any engine.Handler): top(1) for applet executions. It polls the
// engine's JSON observability surface — /metrics?format=json,
// /readyz, /debug/slo, /debug/slowest, /v1/cluster — and renders
// breaker states, poll-budget utilization and deferrals, the live
// cadence and T2A distributions, SLO burn rates with the alert state,
// per-node rows when the daemon runs a cluster (-cluster-nodes), and
// the current slowest executions. Endpoints the engine does not serve
// (no metrics registry, SLO tier off, single-engine build) degrade to
// "-" rather than erroring, so the console works against any engine
// build.
//
// Usage:
//
//	iftttop -addr http://localhost:8080            # live, 2s refresh
//	iftttop -addr http://localhost:8080 -once      # one snapshot, exit
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"time"

	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/obs/slo"
)

func main() {
	var (
		addr     = flag.String("addr", "http://127.0.0.1:8080", "base URL of the engine HTTP surface")
		interval = flag.Duration("interval", 2*time.Second, "refresh interval")
		once     = flag.Bool("once", false, "render one snapshot and exit (non-zero on fetch failure)")
		topN     = flag.Int("top", 8, "slowest executions to show")
	)
	flag.Parse()

	c := &console{
		base: strings.TrimRight(*addr, "/"),
		hc:   &http.Client{Timeout: 5 * time.Second},
		topN: *topN,
	}

	if *once {
		frame, err := c.snapshot()
		if err != nil {
			fmt.Fprintf(os.Stderr, "iftttop: %v\n", err)
			os.Exit(1)
		}
		fmt.Print(frame)
		return
	}
	for {
		frame, err := c.snapshot()
		// ANSI clear + home; errors render inside the frame so a daemon
		// restart does not kill the console.
		fmt.Print("\x1b[2J\x1b[H")
		if err != nil {
			fmt.Printf("iftttop: %s — %v\n", c.base, err)
		} else {
			fmt.Print(frame)
		}
		time.Sleep(*interval)
	}
}

type console struct {
	base string
	hc   *http.Client
	topN int

	// Previous counter sample for rate columns (zero on first frame).
	prevAt    time.Time
	prevPolls float64
	prevOK    float64
	prevPush  float64
}

// get fetches path and decodes JSON into out. A 404 returns ok=false
// with no error: the endpoint is simply not served by this engine.
func (c *console) get(path string, out any) (bool, error) {
	resp, err := c.hc.Get(c.base + path)
	if err != nil {
		return false, err
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusNotFound {
		io.Copy(io.Discard, resp.Body)
		return false, nil
	}
	// /readyz answers 503 when degraded — still a valid body.
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusServiceUnavailable {
		return false, fmt.Errorf("GET %s: status %d", path, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return false, fmt.Errorf("GET %s: %w", path, err)
	}
	return true, nil
}

// metricSet indexes a /metrics?format=json snapshot by name.
type metricSet map[string]obs.MetricSnapshot

func (m metricSet) value(name string) float64 {
	if ms, ok := m[name]; ok && ms.Value != nil {
		return *ms.Value
	}
	return 0
}

func (m metricSet) hist(name string) *obs.HistogramSnapshot {
	if ms, ok := m[name]; ok {
		return ms.Histogram
	}
	return nil
}

type readyReport struct {
	Status  string            `json:"status"`
	Reasons map[string]string `json:"reasons"`
}

// snapshot fetches every surface once and renders a frame. Only the
// metrics fetch is fatal — everything else degrades.
func (c *console) snapshot() (string, error) {
	var snaps []obs.MetricSnapshot
	if ok, err := c.get("/metrics?format=json", &snaps); err != nil {
		return "", err
	} else if !ok {
		return "", fmt.Errorf("engine at %s serves no /metrics", c.base)
	}
	m := make(metricSet, len(snaps))
	for _, s := range snaps {
		m[s.Name] = s
	}

	ready := readyReport{Status: "?"}
	c.get("/readyz", &ready)
	var status slo.Status
	haveSLO, _ := c.get("/debug/slo", &status)
	var slowest []slo.SpanView
	c.get("/debug/slowest", &slowest)
	var cst cluster.ClusterStatus
	haveCluster, _ := c.get("/v1/cluster", &cst)

	now := time.Now()
	var b strings.Builder

	// Header: address, time, readiness.
	fmt.Fprintf(&b, "iftttop · %s · %s · %s\n", c.base, now.Format("15:04:05"), ready.Status)
	for check, reason := range ready.Reasons {
		fmt.Fprintf(&b, "  not ready [%s]: %s\n", check, reason)
	}

	// Population + throughput.
	polls := m.value("ifttt_engine_polls_total")
	ok := m.value("ifttt_engine_actions_ok_total")
	pollRate, okRate := "", ""
	if !c.prevAt.IsZero() {
		if dt := now.Sub(c.prevAt).Seconds(); dt > 0 {
			pollRate = fmt.Sprintf(" (%.1f/s)", (polls-c.prevPolls)/dt)
			okRate = fmt.Sprintf(" (%.1f/s)", (ok-c.prevOK)/dt)
		}
	}
	pushEvents := m.value("ifttt_engine_push_events_total")
	pushRate := ""
	if !c.prevAt.IsZero() {
		if dt := now.Sub(c.prevAt).Seconds(); dt > 0 {
			pushRate = fmt.Sprintf(" (%.1f/s)", (pushEvents-c.prevPush)/dt)
		}
	}
	c.prevAt, c.prevPolls, c.prevOK, c.prevPush = now, polls, ok, pushEvents
	fmt.Fprintf(&b, "applets %.0f   subscriptions %.0f   pending %.0f   inflight %.0f/%.0f   shards %.0f\n",
		m.value("ifttt_engine_applets"), m.value("ifttt_engine_subscriptions"),
		m.value("ifttt_engine_pending_polls"), m.value("ifttt_engine_inflight_workers"),
		m.value("ifttt_engine_worker_slots"), m.value("ifttt_engine_shards"))
	fmt.Fprintf(&b, "polls %.0f%s   failures %.0f   events %.0f   actions ok %.0f%s fail %.0f   hints %.0f\n",
		polls, pollRate, m.value("ifttt_engine_poll_failures_total"),
		m.value("ifttt_engine_events_received_total"), ok, okRate,
		m.value("ifttt_engine_actions_failed_total"), m.value("ifttt_engine_hints_received_total"))

	// Breakers.
	fmt.Fprintf(&b, "breakers open %.0f   opens %.0f   closes %.0f   probes %.0f\n",
		m.value("ifttt_engine_breakers_open"), m.value("ifttt_engine_breaker_opens_total"),
		m.value("ifttt_engine_breaker_closes_total"), m.value("ifttt_engine_breaker_probes_total"))

	// Cluster tier (iftttd -cluster-nodes): one row per node. A
	// single-engine daemon 404s /v1/cluster and the section is skipped.
	if haveCluster {
		fmt.Fprintf(&b, "cluster %d nodes   ring %d pts   moves %d   moved applets %d   parked ops %d   failovers %d\n",
			len(cst.Nodes), cst.RingPoints, cst.Moves, cst.MovedApplets, cst.ParkedOps, cst.Failovers)
		for _, n := range cst.Nodes {
			state := "up"
			if !n.Alive {
				state = "DOWN"
			}
			s := n.Stats
			fmt.Fprintf(&b, "  %-8s %-4s applets %6d  subs %6d  polls %8d  events %8d  ok %8d  fail %5d  brk %d\n",
				n.Name, state, s.Applets, s.Subscriptions, s.Polls,
				s.EventsReceived+s.PushEvents, s.ActionsOK, s.ActionsFailed, s.BreakersOpen)
		}
	}

	// Push ingress (only mounted with -push: the depth gauge's presence
	// is how the console detects the tier).
	if _, havePush := m["ifttt_ingest_queue_depth"]; havePush {
		polled := m.value("ifttt_engine_events_received_total")
		share := 0.0
		if total := pushEvents + polled; total > 0 {
			share = 100 * pushEvents / total
		}
		fmt.Fprintf(&b, "ingress depth %.0f   push events %.0f%s   push share %.1f%%   accepted %.0f   rejected %.0f   unmatched %.0f\n",
			m.value("ifttt_ingest_queue_depth"), pushEvents, pushRate, share,
			m.value("ifttt_ingest_accepted_total"), m.value("ifttt_ingest_rejected_total"),
			m.value("ifttt_ingest_unmatched_total"))
	}

	// Poll budget (zero-valued without -poll-qps).
	if qps := m.value("ifttt_engine_poll_budget_qps"); qps > 0 {
		fmt.Fprintf(&b, "budget %.3g qps   grants %.0f   deferred %.0f   tokens %+.1f\n",
			qps, m.value("ifttt_engine_poll_budget_grants_total"),
			m.value("ifttt_engine_polls_deferred_total"), m.value("ifttt_engine_poll_budget_tokens"))
	} else {
		fmt.Fprintf(&b, "budget unlimited   deferred %.0f\n", m.value("ifttt_engine_polls_deferred_total"))
	}

	// Distributions: live cadence and T2A.
	writeHist(&b, "cadence", m.hist("ifttt_engine_poll_cadence_seconds"))
	writeHist(&b, "t2a    ", m.hist("ifttt_t2a_seconds"))

	// SLO.
	if haveSLO {
		g := status.Global
		fmt.Fprintf(&b, "SLO [%s] %g%% < %.0fs   fast %.2fx (%d/%d)   slow %.2fx (%d/%d)   breaches %d/%d\n",
			strings.ToUpper(g.State), status.Ratio*100, status.ThresholdSeconds,
			g.FastBurn, g.FastBad, g.FastTotal, g.SlowBurn, g.SlowBad, g.SlowTotal,
			g.Breaches, g.Executions)
		for _, s := range status.Services {
			fmt.Fprintf(&b, "  %-16s [%s] fast %.2fx slow %.2fx breaches %d/%d\n",
				s.Service, s.State, s.FastBurn, s.SlowBurn, s.Breaches, s.Executions)
		}
	} else {
		fmt.Fprintln(&b, "SLO tier disabled (-slo-target)")
	}

	// Slowest retained executions.
	if len(slowest) > 0 {
		fmt.Fprintf(&b, "slowest executions (%d retained, %.0f evicted):\n",
			len(slowest), m.value("ifttt_slo_span_evictions_total"))
		for i, s := range slowest {
			if i >= c.topN {
				break
			}
			state := "ok"
			if s.Failed {
				state = "FAILED " + s.Err
			}
			fmt.Fprintf(&b, "  exec %-8d %-12s %-12s t2a %8.1fs  gap %8.1fs  rtt %6.3fs  %s\n",
				s.ExecID, s.AppletID, s.Service, s.T2AS, s.PollingGapS, s.PollRTTS, state)
		}
	}
	return b.String(), nil
}

// writeHist renders one histogram line: count, p50/p90/p99, and a
// sparkline over the per-bucket (non-cumulative) counts.
func writeHist(b *strings.Builder, label string, h *obs.HistogramSnapshot) {
	if h == nil || h.Count == 0 {
		fmt.Fprintf(b, "%s s: -\n", label)
		return
	}
	fmt.Fprintf(b, "%s s: n %d   p50 %.3g   p90 %.3g   p99 %.3g   %s\n",
		label, h.Count, h.P50, h.P90, h.P99, spark(h.Buckets))
}

// spark turns cumulative bucket counts into a unicode sparkline of the
// per-bucket distribution, trimmed to the occupied range.
func spark(buckets []obs.BucketCount) string {
	counts := make([]int64, len(buckets))
	var prev, max int64
	first, last := -1, -1
	for i, bc := range buckets {
		counts[i] = bc.Count - prev
		prev = bc.Count
		if counts[i] > 0 {
			if first < 0 {
				first = i
			}
			last = i
			if counts[i] > max {
				max = counts[i]
			}
		}
	}
	if first < 0 {
		return ""
	}
	levels := []rune("▁▂▃▄▅▆▇█")
	var sb strings.Builder
	for _, n := range counts[first : last+1] {
		if n == 0 {
			sb.WriteRune(' ')
			continue
		}
		idx := int(n * int64(len(levels)-1) / max)
		sb.WriteRune(levels[idx])
	}
	return sb.String()
}
