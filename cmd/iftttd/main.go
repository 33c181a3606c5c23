// Command iftttd runs the IFTTT engine as a live daemon: it loads applet
// definitions from a JSON file, polls their trigger services over real
// HTTP, dispatches actions, and serves the realtime notification
// endpoint plus the observability surface (GET /metrics, GET /healthz,
// GET /readyz, and — with -slo-target — GET /debug/slo, /debug/slowest,
// and /debug/exemplars for cmd/iftttop).
//
// Applet file format (JSON array of engine.Applet):
//
//	[{"ID":"a1","UserID":"u1",
//	  "Trigger":{"Service":"wemo","BaseURL":"http://localhost:8081",
//	             "Slug":"switched_on","ServiceKey":"k"},
//	  "Action":{"Service":"hue","BaseURL":"http://localhost:8082",
//	            "Slug":"turn_on_lights","ServiceKey":"k"}}]
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	_ "net/http/pprof"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/durable"
	"repro/internal/engine"
	"repro/internal/faults"
	"repro/internal/httpx"
	"repro/internal/obs"
	"repro/internal/obs/slo"
	"repro/internal/simtime"
	"repro/internal/stats"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout); err != nil && !errors.Is(err, flag.ErrHelp) {
		fmt.Fprintln(os.Stderr, "iftttd:", err)
		os.Exit(1)
	}
}

// run is the daemon: it parses args, builds the engine or cluster
// (recovering -wal-dir first), installs -applets, listens, writes the
// bound address to stdout, and serves until ctx is done.
func run(ctx context.Context, args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("iftttd", flag.ContinueOnError)
	var (
		addr     = fs.String("addr", ":8080", "listen address for the engine HTTP surface")
		applets  = fs.String("applets", "", "path to a JSON file of applets to install")
		interval = fs.Duration("poll", 0, "fixed polling interval (0 = paper-calibrated model)")
		seed     = fs.Uint64("seed", 1, "RNG seed for polling jitter")
		realtime = fs.String("realtime", "alexa", "comma-separated services whose realtime hints are honoured")
		shards   = fs.Int("shards", 0, "poll-scheduler shards (0 = GOMAXPROCS)")
		workers  = fs.Int("shard-workers", 0, "cap on concurrent executions (polls and pushes) per shard (0 = default)")
		nodes    = fs.Int("cluster-nodes", 0, "run N engine nodes behind a consistent-hash ring instead of one engine (0/1 = single engine); adds GET /v1/cluster and ifttt_cluster_* metrics")
		coalesce = fs.Bool("coalesce", true, "share one upstream poll across applets with identical triggers (disable for per-applet polling A/B runs)")
		pprof    = fs.String("pprof", "", "optional listen address for net/http/pprof (e.g. localhost:6060)")

		// Durability: WAL + snapshot crash recovery (internal/durable).
		walDir       = fs.String("wal-dir", "", "root directory for the durable applet store: installs/removes/checkpoints are write-ahead logged, state snapshots periodically, and a restart recovers everything the directory holds (cluster mode uses one subdirectory per node)")
		snapInterval = fs.Duration("snapshot-interval", 0, "durable snapshot + WAL-compaction cadence (0 = 5m default; requires -wal-dir)")
		walFsync     = fs.Bool("wal-fsync", false, "fsync every WAL append: survives machine crashes, not just process death, at a throughput cost")

		// Push ingestion tier: partner services POST event batches to
		// POST /v1/push and skip the poll round-trip entirely.
		push         = fs.Bool("push", false, "mount the push ingress (POST /v1/push) with per-shard bounded queues")
		ingressQueue = fs.Int("ingress-queue", 0, "per-shard bound on pending push deliveries (0 = 1024 default); overflow answers 429")

		// Adaptive polling + global upstream-QPS budget.
		adaptive     = fs.Bool("adaptive", false, "schedule each subscription by its observed event rate (EWMA) instead of a fixed policy")
		ewmaHalfLife = fs.Duration("ewma-halflife", 0, "adaptive rate-estimate half-life (0 = 5m default)")
		adaptiveFast = fs.Duration("adaptive-fast", 0, "fastest adaptive cadence a hot subscription reaches (0 = 10s default)")
		adaptiveSlow = fs.Duration("adaptive-slow", 0, "slowest adaptive cadence a cold subscription decays to (0 = 15m default)")
		pollQPS      = fs.Float64("poll-qps", 0, "per-upstream-service poll budget in QPS; empty budget defers polls (0 = unlimited)")
		pollBurst    = fs.Float64("poll-burst", 0, "poll-budget bucket depth (0 = one second of refill)")

		// SLO tier: burn-rate tracking + tail-based span retention.
		sloTarget = fs.Duration("slo-target", 0, "T2A objective threshold (e.g. 120s); 0 disables the SLO tier")
		sloRatio  = fs.Float64("slo-ratio", 0, "fraction of executions that must meet -slo-target (0 = 0.99 default)")
		sloWindow = fs.Duration("slo-window", 0, "fast burn-rate window; the slow window is 12x (0 = 5m default)")

		// Resilient polling (failure backoff + per-trigger circuit breaker).
		resilience  = fs.Bool("resilience", true, "failure backoff and circuit breaking on trigger polls (false = paper-faithful fixed cadence)")
		backoffBase = fs.Duration("backoff-base", 0, "first failure-backoff delay (0 = 30s default)")
		backoffMax  = fs.Duration("backoff-max", 0, "failure-backoff ceiling (0 = 10m default)")
		brThreshold = fs.Int("breaker-threshold", 0, "consecutive poll failures that open a trigger's breaker (0 = 5 default, negative = backoff only)")
		brProbe     = fs.Duration("breaker-probe", 0, "half-open probe spacing while a breaker is open (0 = 5m default)")

		// Fault injection (testing/chaos only): wraps the outbound client.
		faultErrRate  = fs.Float64("fault-error-rate", 0, "inject transport errors on this fraction of outbound requests")
		fault5xxRate  = fs.Float64("fault-5xx-rate", 0, "inject 503 responses on this fraction of outbound requests")
		faultSlowRate = fs.Float64("fault-latency-rate", 0, "inject a latency spike on this fraction of outbound requests")
		faultSlow     = fs.Duration("fault-latency", 2*time.Second, "duration of an injected latency spike")
		faultTimeout  = fs.Duration("fault-timeout", 0, "stall before an injected transport error (models client timeouts)")
		faultBlackout = fs.String("fault-blackout", "", "comma-separated start:end offsets from startup during which all matched requests fail (e.g. 10m:15m,1h:65m)")
		faultHost     = fs.String("fault-host", "", "restrict injected faults to this host (empty = all hosts)")
		faultSeed     = fs.Uint64("fault-seed", 0, "RNG seed for fault draws (0 = derive from -seed)")

		logFlags = obs.BindLogFlags(fs)
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	log := logFlags.New()

	var poll engine.PollPolicy
	if *interval > 0 {
		poll = engine.FixedInterval{Interval: *interval}
	}
	rtServices := map[string]bool{}
	for _, s := range splitComma(*realtime) {
		rtServices[s] = true
	}

	clock := simtime.NewReal()
	reg := obs.NewRegistry()

	doer := httpx.Doer(&http.Client{Timeout: 30 * time.Second})
	if *faultErrRate > 0 || *fault5xxRate > 0 || *faultSlowRate > 0 || *faultBlackout != "" {
		windows, err := parseBlackouts(*faultBlackout)
		if err != nil {
			return fmt.Errorf("-fault-blackout: %w", err)
		}
		fseed := *faultSeed
		if fseed == 0 {
			fseed = *seed + 1
		}
		inj := faults.New(clock, stats.NewRNG(fseed))
		inj.AddRule(faults.Rule{
			Host:      *faultHost,
			ErrorRate: *faultErrRate,
			Rate5xx:   *fault5xxRate,
			SlowRate:  *faultSlowRate,
			Slow:      *faultSlow,
			Timeout:   *faultTimeout,
			Blackouts: windows,
		})
		inj.RegisterMetrics(reg)
		doer = inj.Wrap(doer)
		log.Warn("fault injection active",
			"error_rate", *faultErrRate, "rate_5xx", *fault5xxRate,
			"latency_rate", *faultSlowRate, "blackouts", *faultBlackout, "host", *faultHost)
	}

	var adCfg *engine.AdaptiveConfig
	if *adaptive {
		adCfg = &engine.AdaptiveConfig{
			HalfLife:    *ewmaHalfLife,
			FastFloor:   *adaptiveFast,
			SlowCeiling: *adaptiveSlow,
		}
	}

	resCfg := engine.ResilienceConfig{
		Disable:          !*resilience,
		BackoffBase:      *backoffBase,
		BackoffMax:       *backoffMax,
		BreakerThreshold: *brThreshold,
		ProbeInterval:    *brProbe,
	}

	var sloCfg *slo.Config
	if *sloTarget > 0 {
		sloCfg = &slo.Config{
			Objective:  slo.Objective{Threshold: *sloTarget, Ratio: *sloRatio},
			FastWindow: *sloWindow,
		}
		log.Info("slo tier active", "target", *sloTarget, "ratio", *sloRatio, "fast_window", *sloWindow)
	}

	ecfg := engine.Config{
		Clock:            clock,
		RNG:              stats.NewRNG(*seed),
		Doer:             doer,
		Poll:             poll,
		RealtimeServices: rtServices,
		Shards:           *shards,
		ShardWorkers:     *workers,
		Coalesce:         *coalesce,
		Push:             *push,
		IngressQueue:     *ingressQueue,
		Adaptive:         adCfg,
		PollBudgetQPS:    *pollQPS,
		PollBudgetBurst:  *pollBurst,
		Resilience:       resCfg,
		SLO:              sloCfg,
		Logger:           log,
		Metrics:          reg,
		Trace: func(ev engine.TraceEvent) {
			log.Debug("trace", "kind", ev.Kind, "applet", ev.AppletID, "exec", ev.ExecID, "n", ev.N, "err", ev.Err)
		},
	}

	// The daemon's host is either one engine or a cluster of them; both
	// expose the same Install/Handler/Stop surface. With -wal-dir every
	// engine is opened by durable.OpenEngine (a node in the subdirectory
	// named after it), so its store's series land in reg.
	var host interface {
		Install(engine.Applet) error
		Handler() http.Handler
		Stop()
	}
	var stores []*durable.Store
	defer func() {
		for _, st := range stores {
			if err := st.Close(); err != nil {
				log.Warn("close durable store", "err", err)
			}
		}
		log.Info("stopped")
	}()
	newEngine := func(cfg engine.Config, dir string) (*engine.Engine, error) {
		if *walDir == "" {
			return engine.New(cfg), nil
		}
		eng, st, err := durable.OpenEngine(cfg, durable.Options{Dir: dir, SnapshotInterval: *snapInterval, Fsync: *walFsync})
		if err != nil {
			return nil, fmt.Errorf("durable store %s: %w", dir, err)
		}
		stores = append(stores, st)
		return eng, nil
	}
	if *nodes > 1 {
		// The cluster serves reg: every engine and store series summed
		// over its nodes, beside the ifttt_cluster_* family. It turns the
		// SLO tier off and logs so: the tier's debug endpoints serve one
		// engine.
		var nodeErr error
		c := cluster.New(cluster.Config{
			Nodes:  *nodes,
			Engine: ecfg,
			Logger: log,
			NewEngine: func(node string, cfg engine.Config) *engine.Engine {
				if nodeErr == nil {
					eng, err := newEngine(cfg, filepath.Join(*walDir, node))
					if err == nil {
						return eng
					}
					nodeErr = fmt.Errorf("node %s: %w", node, err)
				}
				// Start-up fails below; this engine is never served.
				cfg.Metrics = nil
				return engine.New(cfg)
			},
		})
		defer c.Stop()
		if nodeErr != nil {
			return nodeErr
		}
		c.StartCoordinator(0)
		log.Info("cluster mode", "nodes", *nodes)
		host = c
	} else {
		eng, err := newEngine(ecfg, *walDir)
		if err != nil {
			return err
		}
		defer eng.Stop()
		host = eng
	}

	if *applets != "" {
		data, err := os.ReadFile(*applets)
		if err != nil {
			return fmt.Errorf("read applets: %w", err)
		}
		var defs []engine.Applet
		if err := json.Unmarshal(data, &defs); err != nil {
			return fmt.Errorf("parse applets: %w", err)
		}
		// Definitions -wal-dir recovery already brought back change
		// nothing and are skipped.
		for _, a := range defs {
			switch err := host.Install(a); {
			case errors.Is(err, engine.ErrNoChange):
				log.Info("already installed", "applet", a.ID, "name", a.Name)
			case err != nil:
				return fmt.Errorf("install %s: %w", a.ID, err)
			default:
				log.Info("installed", "applet", a.ID, "name", a.Name)
			}
		}
	}

	if *pprof != "" {
		// net/http/pprof registers its handlers on DefaultServeMux;
		// serve it on its own listener so profiling stays off the
		// engine's public surface.
		ln, err := net.Listen("tcp", *pprof)
		if err != nil {
			return fmt.Errorf("pprof listen: %w", err)
		}
		psrv := &http.Server{}
		defer psrv.Close()
		go psrv.Serve(ln)
		log.Info("pprof listening", "addr", ln.Addr())
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	srv := &http.Server{Handler: host.Handler()}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	log.Info("iftttd listening", "addr", ln.Addr())
	fmt.Fprintf(stdout, "iftttd listening on %s\n", ln.Addr())

	select {
	case <-ctx.Done():
	case err = <-served:
	}
	log.Info("shutting down")
	// Drain in-flight HTTP first (bounded); the deferred calls then stop
	// the engine and close its stores.
	drain, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if derr := srv.Shutdown(drain); derr != nil {
		log.Warn("http drain", "err", derr)
	}
	return err
}

// parseBlackouts parses "start:end,start:end" duration-offset pairs.
func parseBlackouts(s string) ([]faults.Window, error) {
	var out []faults.Window
	for _, part := range splitComma(s) {
		lo, hi, ok := strings.Cut(part, ":")
		if !ok {
			return nil, fmt.Errorf("window %q: want start:end", part)
		}
		start, err := time.ParseDuration(lo)
		if err != nil {
			return nil, fmt.Errorf("window %q: %w", part, err)
		}
		end, err := time.ParseDuration(hi)
		if err != nil {
			return nil, fmt.Errorf("window %q: %w", part, err)
		}
		if end <= start {
			return nil, fmt.Errorf("window %q: end before start", part)
		}
		out = append(out, faults.Window{Start: start, End: end})
	}
	return out, nil
}

func splitComma(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}
