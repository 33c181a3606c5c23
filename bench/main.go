// Command bench is the repository's benchmark: five workloads over the
// engine's public functions, each building its inputs from a seed,
// checking its outputs, and printing every metric by name with its
// unit. See README.md in this directory and BENCHMARK.json at the
// repository root.
//
//	go run -C bench . -workload poll_hot -seed 1 -seconds 15 -trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
)

type metricDef struct{ name, unit string }

// endToEnd are the metrics of the end-to-end run, reported by every
// workload and bounded in BENCHMARK.json.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ops_per_s", "op/s"},
	{"cpu_us_per_op", "us/op"},
	{"allocs_per_op", "allocs/op"},
	{"alloc_bytes_per_op", "B/op"},
	{"heap_bytes_per_applet", "B/applet"},
}

// perLayer are the metrics of the traced run. A metric that does not
// apply to a workload reads 0 there. The first block holds the headline
// numbers only some workloads have; the contract wants every end-to-end
// metric from every workload, so they are reported here instead.
var perLayer = []metricDef{
	{"t2a_sim_p50_s", "sim_s"}, {"t2a_sim_p99_s", "sim_s"}, {"t2a_sim_samples", "count"},
	{"t2a_real_p50_ms", "ms"}, {"snapshot_s", "s"}, {"recovery_s", "s"}, {"rebalance_subs_per_s", "subs/s"},

	{"simtime.cpu_share", "ratio"}, {"simtime.timer_ns", "ns"}, {"simtime.sleep_wake_ns", "ns"},

	{"engine.cpu_share", "ratio"}, {"engine.install_ns", "ns"}, {"engine.remove_ns", "ns"},
	{"engine.polls", "count"}, {"engine.poll_hit_ratio", "ratio"}, {"engine.events_per_poll", "ratio"},
	{"engine.deferred_ratio", "ratio"}, {"engine.dedup_drop_ratio", "ratio"}, {"engine.push_merge_ratio", "ratio"},
	{"engine.actions_failed", "count"}, {"engine.goroutines_peak", "count"},
	{"engine.self_us_per_op", "us/op"}, {"engine.serial_ops_per_s", "op/s"},

	{"httpx.cpu_share", "ratio"}, {"proto.cpu_share", "ratio"}, {"json.cpu_share", "ratio"},
	{"httpx.do_prepared_ns.ev0", "ns"}, {"httpx.do_prepared_ns.ev1", "ns"}, {"httpx.do_prepared_ns.ev50", "ns"},
	{"httpx.do_prepared_allocs.ev1", "allocs/op"}, {"proto.push_decode_ns_per_event", "ns"},
	{"partner.requests", "count"}, {"partner.bytes_out", "B"}, {"partner.busy_s", "s"},

	{"ingest.cpu_share", "ratio"}, {"ingest.offer_ns", "ns"}, {"ingest.wait_p50_ms", "ms"}, {"ingest.wait_p99_ms", "ms"},
	{"ingest.depth_max", "count"}, {"ingest.rejected_ratio", "ratio"},
	{"ingest.t2a_real_p99_ms.r5k", "ms"}, {"ingest.t2a_real_p99_ms.r20k", "ms"}, {"ingest.t2a_real_p99_ms.r40k", "ms"},
	{"ingest.samples.r5k", "count"}, {"ingest.samples.r20k", "count"}, {"ingest.samples.r40k", "count"},
	{"ingest.max_rate_ok_eps", "1/s"}, {"ingest.gen_late_p99_ms", "ms"},

	{"durable.cpu_share", "ratio"}, {"durable.append_ns.install", "ns"}, {"durable.append_ns.checkpoint", "ns"},
	{"durable.append_busy_s", "s"}, {"durable.wal_bytes_per_record", "B"},
	{"durable.append_nofsync_ns", "ns"}, {"durable.append_fsync_ns", "ns"},
	{"durable.snapshot_bytes_per_sub", "B"}, {"durable.open_s", "s"}, {"durable.restore_s", "s"},
	{"durable.replayed_records", "count"}, {"durable.overhead_x", "ratio"},

	{"cluster.cpu_share", "ratio"}, {"cluster.ring_owner_ns", "ns"}, {"cluster.install_overhead_ns", "ns"},
	{"cluster.push_forward_ns_per_delivery", "ns"}, {"cluster.moved_subs", "count"},
	{"cluster.sweep_s", "s"}, {"cluster.addnode_s", "s"}, {"cluster.parked_ops", "count"}, {"cluster.spread", "ratio"},

	{"obs.cpu_share", "ratio"}, {"obs.histogram_observe_ns", "ns"}, {"obs.ring_publish_ns", "ns"},
	{"obs.span_overhead_pct", "%"}, {"obs.trace_drops", "count"},

	{"runtime.cpu_share", "ratio"}, {"runtime.gc_cpu_share", "ratio"}, {"runtime.gc_cycles", "count"},
	{"runtime.gc_pause_total_ms", "ms"}, {"runtime.heap_live_mb", "MB"}, {"runtime.peak_rss_mb", "MB"},
	{"runtime.mutex_wait_s", "s"}, {"runtime.sched_latency_p99_us", "us"},

	{"bench.cpu_share", "ratio"}, {"stdlib.cpu_share", "ratio"}, {"other.cpu_share", "ratio"},
	{"trace.overhead_pct", "%"},
}

var workloads = map[string]func(options) *result{
	"poll_idle":        runPollIdle,
	"poll_hot":         runPollHot,
	"push_storm":       runPushStorm,
	"churn_recover":    runChurnRecover,
	"cluster_failover": runClusterFailover,
}

// partnerLayers reports the stub's own counters.
func (r *run) partnerLayers(p *partner) {
	r.layers["partner.requests"] = float64(p.polls.Load() + p.actions.Load() + p.deletes.Load())
	r.layers["partner.bytes_out"] = float64(p.bytesOut.Load())
}

// abort ends a run that could not be carried out at all.
func (r *run) abort(err error) *result {
	r.res.attempted++
	r.res.fail(1, err.Error())
	return r.res
}

// done assembles the per-layer metrics of a finished run.
func (r *run) done() *result {
	if r.res.attempted == 0 {
		r.res.attempted = 1
	}
	if r.tr == nil {
		return r.res
	}
	t := r.tr
	t.flush()
	stubS := t.busySeconds(spPartnerPoll, spPartnerAction, spPartnerDelete)
	journalS := t.busySeconds(spJournalInstall, spJournalRemove, spJournalCheckpoint, spJournalAttach)
	r.layers["engine.install_ns"] = t.meanNs(spEngineInstall)
	r.layers["engine.remove_ns"] = t.meanNs(spEngineRemove)
	r.layers["durable.append_ns.install"] = t.meanNs(spJournalInstall)
	r.layers["durable.append_ns.checkpoint"] = t.meanNs(spJournalCheckpoint)
	r.layers["durable.append_busy_s"] = journalS
	r.layers["partner.busy_s"] = stubS
	if len(t.waits) > 0 {
		r.layers["ingest.wait_p50_ms"] = quantile(t.waits, 0.5)
		r.layers["ingest.wait_p99_ms"] = quantile(t.waits, 0.99)
	}
	// Engine self time: the window's CPU per operation less the share the
	// profile charges to the bench's own code (stub, generator, wrappers)
	// and to the durable layer. The wrappers' own timings cannot serve:
	// time inside the journal is mostly waiting for its lock.
	cpu, _ := cpuUsPerOp(r.win.segs)
	r.layers["engine.self_us_per_op"] = cpu * (1 - r.layers["bench.cpu_share"] - r.layers["durable.cpu_share"])
	runProbes(r.o.workload, filepath.Join(r.o.outDir, "tmp"), r.layers)
	if err := t.writeTrace(r.o); err != nil {
		r.res.fail(1, "write trace: "+err.Error())
	}
	for _, m := range r.res.extra {
		r.layers[m.Name] = m.Value
	}
	for _, d := range perLayer {
		r.res.layer = append(r.res.layer, metric{Name: d.name, Value: r.layers[d.name], Unit: d.unit})
	}
	return r.res
}

// print writes the human-readable report and, as the last line, the
// result object the benchmark contract asks for.
func (res *result) print(w io.Writer, o options) {
	fmt.Fprintf(w, "workload %s seed %d seconds %g trace %v %s GOMAXPROCS %d\n",
		res.workload, o.seed, o.seconds, o.trace, runtime.Version(), runtime.GOMAXPROCS(0))
	show := func(ms []metric) {
		for _, m := range ms {
			fmt.Fprintf(w, "%-40s %16.6g %s\n", m.Name, m.Value, m.Unit)
			if m.Spread != 0 {
				fmt.Fprintf(w, "%-40s %16.6g ratio\n", m.Name+".spread", m.Spread)
			}
		}
	}
	show(res.e2e)
	reported := res.e2e
	if o.trace {
		show(res.layer)
		reported = res.layer
	} else {
		show(res.extra)
	}
	fmt.Fprintf(w, "attempted %d failed %d\n", res.attempted, res.failed)
	for _, f := range res.failures {
		fmt.Fprintln(w, "FAILED:", f)
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.failed == 0, res.attempted, res.failed, map[string]value{}}
	for _, m := range reported {
		out.Metrics[m.Name] = value{m.Value, m.Unit}
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(2)
	}
	fmt.Fprintf(w, "%s\n", line)
}

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "poll_idle | poll_hot | push_storm | churn_recover | cluster_failover")
	flag.Uint64Var(&o.seed, "seed", 1, "input seed: applet IDs and users, hot set, event phases, churn order, push interleaving")
	flag.Float64Var(&o.seconds, "seconds", 15, "how long the timed window measures")
	flag.IntVar(&trace, "trace", 0, "1 = traced run: wrappers, CPU profile, extra arms and probes; prints the per-layer metrics")
	flag.StringVar(&o.outDir, "out", "out", "directory for trace files and scratch data")
	cmp := flag.Bool("compare", false, "compare result sets: -compare BENCHMARK.json set1 set2 ... (see run.sh)")
	flag.Parse()
	o.trace, o.scale = trace != 0, 1

	if *cmp {
		if flag.NArg() < 2 {
			fmt.Fprintln(os.Stderr, "bench: -compare BENCHMARK.json set1 [set2 ...]")
			os.Exit(2)
		}
		ok, err := compare(os.Stdout, flag.Arg(0), flag.Args()[1:])
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(2)
		}
		if !ok {
			os.Exit(1)
		}
		return
	}
	run, ok := workloads[o.workload]
	if !ok || flag.NArg() > 0 || o.seconds <= 0 {
		fmt.Fprintln(os.Stderr, "bench: -workload must be one of poll_idle, poll_hot, push_storm, churn_recover, cluster_failover")
		os.Exit(2)
	}
	if err := os.MkdirAll(filepath.Join(o.outDir, "tmp"), 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(2)
	}
	res := run(o)
	res.print(os.Stdout, o)
	if res.failed > 0 {
		os.Exit(1)
	}
}
