// Package testbed assembles the paper's Figure 1 end to end inside the
// simulator: Hue lamp ❶ and hub ❷, WeMo switch, Echo Dot, and
// SmartThings hub in a home LAN behind the local proxy ❸ and gateway
// router ❹; the self-implemented service server ❺; the official vendor
// services ❻; the IFTTT engine ❼; the web apps; and the test
// controller ❾ that activates triggers and measures trigger-to-action
// (T2A) latency.
//
// The testbed is the shared substrate of every §4 experiment: Fig 4
// (T2A of applets A1–A7), Fig 5 (E1/E2/E3 substitutions), Table 5
// (execution timeline), Fig 6 (sequential activation clustering), Fig 7
// (concurrent applets), and the infinite-loop demonstrations.
package testbed

import (
	"net/http"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/devices"
	"repro/internal/engine"
	"repro/internal/faults"
	"repro/internal/homenet"
	"repro/internal/httpx"
	"repro/internal/oauth"
	"repro/internal/obs"
	"repro/internal/obs/slo"
	"repro/internal/proto"
	"repro/internal/service"
	"repro/internal/services"
	"repro/internal/simnet"
	"repro/internal/simtime"
	"repro/internal/stats"
	"repro/internal/webapps"
)

// Host names of the simulated deployment.
const (
	HostEngine      = "engine.ifttt.sim"
	HostHue         = "api.hue.sim"
	HostWemo        = "api.wemo.sim"
	HostAlexa       = "api.alexa.sim"
	HostSmartThings = "api.smartthings.sim"
	HostGmail       = "api.gmail.sim"
	HostDrive       = "api.gdrive.sim"
	HostSheets      = "api.gsheets.sim"
	HostOurService  = "api.ourservice.sim"
	HostWeather     = "api.weather.sim"
	HostRSS         = "api.rss.sim"
	HostNest        = "api.nest.sim"
)

// Account details of the testbed's single user.
const (
	UserID      = "u1"
	UserEmail   = "user@mail.sim"
	ServiceKey  = "testbed-service-key"
	OAuthClient = "ifttt-engine"
	OAuthSecret = "engine-secret"
)

// Config tunes a testbed build. The testbed's engine journals nothing:
// crash recovery is studied on an engine of its own (durable.OpenEngine,
// core.RunDurableChurn).
type Config struct {
	// Seed drives all randomness; equal seeds give identical runs.
	Seed uint64
	// Poll overrides the engine's polling policy (nil = paper model).
	Poll engine.PollPolicy
	// RealtimeServices overrides the engine's realtime allow-list
	// (nil = {"alexa"}, the paper's observed special case).
	RealtimeServices map[string]bool
	// OurServiceRealtime makes the self-implemented service send
	// realtime hints on every event (the §4 realtime-API experiment).
	OurServiceRealtime bool
	// Push forwards to engine.Config.Push: mount the push ingress.
	Push bool
	// IngressQueue forwards to engine.Config (the per-shard bound on
	// pending push deliveries; zero = default).
	IngressQueue int
	// OurServicePush makes the self-implemented service POST its
	// buffered events to the engine's push ingress as they happen (the
	// push-vs-poll experiment). Requires Push.
	OurServicePush bool
	// DispatchDelay forwards to engine.Config.DispatchDelay.
	DispatchDelay time.Duration
	// Shards forwards to engine.Config.Shards. Zero pins
	// DefaultShards rather than GOMAXPROCS so that experiment
	// schedules are reproducible across machines.
	Shards int
	// ShardWorkers forwards to engine.Config.ShardWorkers.
	ShardWorkers int
	// OnSpan forwards to engine.Config.OnSpan: every completed
	// execution span, delivered on the engine's execution goroutines.
	OnSpan func(obs.ExecSpan)
	// Metrics forwards to engine.Config.Metrics.
	Metrics *obs.Registry
	// Coalesce forwards to engine.Config.Coalesce. Off by default: the
	// paper-reproduction experiments model the production engine's
	// per-applet polling (Fig 7).
	Coalesce bool
	// FaultRules, when non-empty, builds a faults.Injector on the
	// testbed's clock (seeded from Seed) and wraps the engine's
	// outbound client with it, so every poll and action delivery passes
	// through the fault model. The injector is exposed as tb.Faults.
	FaultRules []faults.Rule
	// Resilience forwards to engine.Config.Resilience (zero value =
	// resilient polling with defaults; set Disable for the
	// paper-faithful fixed cadence).
	Resilience engine.ResilienceConfig
	// Adaptive forwards to engine.Config.Adaptive: when non-nil the
	// engine schedules each subscription by its EWMA event-rate
	// estimate instead of Poll.
	Adaptive *engine.AdaptiveConfig
	// PollBudgetQPS and PollBudgetBurst forward to engine.Config: a
	// positive QPS bounds each upstream service's polls with a
	// deferring token bucket.
	PollBudgetQPS   float64
	PollBudgetBurst float64
	// SLO forwards to engine.Config.SLO: when non-nil the engine runs
	// the burn-rate tracker and tail span store of internal/obs/slo on
	// its span stream (clock and metrics default to the testbed's).
	SLO *slo.Config
	// ClusterNodes, when > 1, replaces the single engine with a
	// cluster of that many engine nodes behind a consistent-hash ring
	// (internal/cluster): HostEngine serves the cluster router's
	// handler, Testbed.Cluster is set, and Testbed.Engine is nil — use
	// the InstallApplet/RemoveApplet/StopEngine helpers, which work in
	// both modes. Metrics then carries every engine series summed over
	// the nodes; SLO is off (cluster.New turns it off).
	ClusterNodes int
}

// DefaultShards is the testbed's pinned engine shard count. Experiments
// must not vary with the host's core count, so the testbed never lets
// the engine fall back to its GOMAXPROCS default.
const DefaultShards = 8

// Testbed is a fully wired Figure-1 deployment on a virtual clock.
type Testbed struct {
	Clock *simtime.SimClock
	RNG   *stats.RNG
	Net   *simnet.Network

	// Home devices.
	Hue  *devices.HueHub
	Wemo *devices.WemoSwitch
	Echo *devices.EchoDot
	ST   *devices.SmartThingsHub
	Nest *devices.Thermostat

	// Web apps.
	Mail    *webapps.Gmail
	Drive   *webapps.Drive
	Sheets  *webapps.Sheets
	Weather *webapps.Weather

	// Partner services.
	HueSvc, WemoSvc, AlexaSvc, STSvc *service.Service
	NestSvc                          *service.Service
	GmailSvc, DriveSvc, SheetsSvc    *service.Service
	WeatherSvc                       *service.Service
	OurSvc                           *service.Service
	Auth                             *oauth.Server
	GmailToken                       string

	// Home network.
	Proxy      *homenet.Proxy
	ServerLink *homenet.ServerTap

	// Engine. Exactly one of Engine and Cluster is non-nil
	// (Config.ClusterNodes selects which); the InstallApplet /
	// RemoveApplet / StopEngine helpers work against either.
	Engine  *engine.Engine
	Cluster *cluster.Cluster
	// Faults is the injector built from Config.FaultRules (nil when no
	// rules were given).
	Faults *faults.Injector

	mu     sync.Mutex
	traces []engine.TraceEvent
}

// New builds a testbed. Components are constructed immediately; applets
// are installed inside Run via the controller.
func New(cfg Config) *Testbed {
	clock := simtime.NewSimDefault()
	rng := stats.NewRNG(cfg.Seed)

	tb := &Testbed{Clock: clock, RNG: rng}
	tb.Net = simnet.New(clock, rng.Split("net"))
	tb.Net.SetDefaultLink(simnet.WAN())

	// Devices ❶❷ and web apps.
	tb.Hue = devices.NewHueHub(clock, "1", "2")
	tb.Wemo = devices.NewWemoSwitch(clock, "wemo-1")
	tb.Echo = devices.NewEchoDot(clock, "echo-1")
	tb.ST = devices.NewSmartThingsHub(clock)
	tb.ST.Attach(devices.NewOutlet(clock, "outlet-1"))
	tb.ST.Attach(devices.NewSensor(clock, "motion-1", "motion"))
	tb.Nest = devices.NewThermostat(clock, "nest-1")

	tb.Mail = webapps.NewGmail(clock)
	tb.Drive = webapps.NewDrive(clock)
	tb.Sheets = webapps.NewSheets(clock, tb.Mail)

	// OAuth server shared by the Google-backed services.
	tb.Auth = oauth.NewServer(clock, "testbed-oauth", 24*365*time.Hour)
	tb.Auth.RegisterClient(OAuthClient, OAuthSecret)
	code := tb.Auth.Authorize(UserID, OAuthClient, services.GmailScopes)
	token, err := tb.Auth.Exchange(code, OAuthClient, OAuthSecret)
	if err != nil {
		panic("testbed: oauth bootstrap: " + err.Error())
	}
	tb.GmailToken = token

	// Official partner services ❻. The vendor-cloud → device control
	// path costs most of a second (Table 5 rows 5–7). All push-mode
	// vendor services send realtime hints; the engine only honours the
	// allow-listed ones (Alexa), per the paper's observation.
	env := &services.Env{
		Clock: clock, RNG: rng.Split("services"), ServiceKey: ServiceKey,
		PathDelay: stats.Clamped{D: stats.Lognormal{Median: 0.8, Sigma: 0.3}, Lo: 0.2, Hi: 3},
		Realtime: &service.RealtimeConfig{
			URL:        "http://" + HostEngine + proto.RealtimePath,
			Client:     httpx.NewClient(tb.Net.Client("vendor-clouds.sim"), clock, 0),
			ServiceKey: ServiceKey,
		},
	}
	tb.HueSvc = services.NewHueService(env, tb.Hue)
	tb.WemoSvc = services.NewWemoService(env, tb.Wemo)
	tb.AlexaSvc = services.NewAlexaService(env, tb.Echo)
	tb.STSvc = services.NewSmartThingsService(env, tb.ST)
	tb.NestSvc = services.NewNestService(env, tb.Nest)

	webEnv := &services.Env{Clock: clock, RNG: rng.Split("webservices"), ServiceKey: ServiceKey}
	tb.GmailSvc = services.NewGmailService(webEnv, tb.Mail, UserEmail, tb.Auth)
	tb.DriveSvc = services.NewDriveService(webEnv, tb.Drive, UserID)
	tb.SheetsSvc = services.NewSheetsService(webEnv, tb.Sheets, UserID)
	tb.Weather = webapps.NewWeather(clock)
	tb.WeatherSvc = services.NewWeatherService(webEnv, tb.Weather)

	// Home network ❸❹: LAN between proxy and devices, and the custom
	// framed protocol between proxy and service server ❺.
	lanRNG := rng.Split("lan")
	proxyEnd, rawServerEnd := homenet.SimPair(clock,
		stats.Clamped{D: stats.Lognormal{Median: 0.05, Sigma: 0.3}, Lo: 0.01, Hi: 0.5},
		lanRNG)
	serverEnd := homenet.NewServerTap(rawServerEnd)
	tb.ServerLink = serverEnd
	tb.Proxy = homenet.NewProxy(proxyEnd)
	tb.Proxy.Register("hue", homenet.AdapterFunc(
		func(cmd string, args map[string]string) (map[string]string, error) {
			switch cmd {
			case "blink":
				return nil, tb.Hue.Blink(lampArg(args))
			default:
				return nil, tb.Hue.SetLampState(lampArg(args), hueChangeFromArgs(args))
			}
		}))
	tb.Proxy.Register("wemo-1", homenet.AdapterFunc(
		func(cmd string, args map[string]string) (map[string]string, error) {
			tb.Wemo.SetState(cmd == "on", "proxy")
			return nil, nil
		}))
	tb.Proxy.Forward(&tb.Hue.Bus)
	tb.Proxy.Forward(&tb.Wemo.Bus)
	tb.Proxy.Forward(&tb.Echo.Bus)
	tb.Proxy.Forward(&tb.ST.Bus)
	tb.Proxy.Start()

	// Self-implemented service ❺.
	ourCfg := services.OurServiceConfig{Env: webEnv, Link: serverEnd}
	if cfg.OurServiceRealtime {
		ourCfg.Realtime = &service.RealtimeConfig{
			URL:        "http://" + HostEngine + proto.RealtimePath,
			Client:     httpx.NewClient(tb.Net.Client(HostOurService), clock, 0),
			ServiceKey: ServiceKey,
		}
	}
	if cfg.OurServicePush {
		ourCfg.Push = &service.PushConfig{
			URL:        "http://" + HostEngine + proto.PushPath,
			Client:     httpx.NewClient(tb.Net.Client(HostOurService), clock, 0),
			ServiceKey: ServiceKey,
		}
	}
	tb.OurSvc = services.NewOurService(ourCfg)

	// Engine ❼.
	realtime := cfg.RealtimeServices
	if realtime == nil {
		realtime = map[string]bool{"alexa": true}
	}
	shards := cfg.Shards
	if shards == 0 {
		shards = DefaultShards
	}
	engineDoer := httpx.Doer(tb.Net.Client(HostEngine))
	if len(cfg.FaultRules) > 0 {
		tb.Faults = faults.New(clock, rng.Split("faults"))
		for _, r := range cfg.FaultRules {
			tb.Faults.AddRule(r)
		}
		if cfg.Metrics != nil {
			tb.Faults.RegisterMetrics(cfg.Metrics)
		}
		engineDoer = tb.Faults.Wrap(engineDoer)
	}
	ecfg := engine.Config{
		Clock:            clock,
		RNG:              rng.Split("engine"),
		Doer:             engineDoer,
		Poll:             cfg.Poll,
		RealtimeServices: realtime,
		DispatchDelay:    cfg.DispatchDelay,
		Shards:           shards,
		ShardWorkers:     cfg.ShardWorkers,
		Coalesce:         cfg.Coalesce,
		Push:             cfg.Push,
		IngressQueue:     cfg.IngressQueue,
		Resilience:       cfg.Resilience,
		Adaptive:         cfg.Adaptive,
		PollBudgetQPS:    cfg.PollBudgetQPS,
		PollBudgetBurst:  cfg.PollBudgetBurst,
		SLO:              cfg.SLO,
		OnSpan:           cfg.OnSpan,
		Metrics:          cfg.Metrics,
		Trace: func(ev engine.TraceEvent) {
			tb.mu.Lock()
			tb.traces = append(tb.traces, ev)
			tb.mu.Unlock()
		},
	}
	var engineHandler http.Handler
	if cfg.ClusterNodes > 1 {
		tb.Cluster = cluster.New(cluster.Config{Nodes: cfg.ClusterNodes, Engine: ecfg})
		tb.Cluster.StartCoordinator(0)
		engineHandler = tb.Cluster.Handler()
	} else {
		tb.Engine = engine.New(ecfg)
		engineHandler = tb.Engine.Handler()
	}

	// Publish every host on the simulated WAN.
	tb.Net.AddHost(HostEngine, engineHandler)
	tb.Net.AddHost(HostHue, tb.HueSvc.Handler())
	tb.Net.AddHost(HostWemo, tb.WemoSvc.Handler())
	tb.Net.AddHost(HostAlexa, tb.AlexaSvc.Handler())
	tb.Net.AddHost(HostSmartThings, tb.STSvc.Handler())
	tb.Net.AddHost(HostGmail, tb.GmailSvc.Handler())
	tb.Net.AddHost(HostDrive, tb.DriveSvc.Handler())
	tb.Net.AddHost(HostSheets, tb.SheetsSvc.Handler())
	tb.Net.AddHost(HostOurService, tb.OurSvc.Handler())
	tb.Net.AddHost(HostNest, tb.NestSvc.Handler())
	tb.Net.AddHost(HostWeather, tb.WeatherSvc.Handler())
	return tb
}

func lampArg(args map[string]string) string {
	if l := args["lamp"]; l != "" {
		return l
	}
	return "1"
}

func hueChangeFromArgs(args map[string]string) devices.StateChange {
	var ch devices.StateChange
	switch args["on"] {
	case "true":
		v := true
		ch.On = &v
	case "false":
		v := false
		ch.On = &v
	}
	if e := args["effect"]; e != "" {
		ch.Effect = &e
	}
	return ch
}

// InstallApplet installs an applet on whichever host the testbed runs:
// the single engine, or the cluster router (which places it on the ring
// owner of its trigger identity).
func (tb *Testbed) InstallApplet(a engine.Applet) error {
	if tb.Cluster != nil {
		return tb.Cluster.Install(a)
	}
	return tb.Engine.Install(a)
}

// RemoveApplet removes an applet from whichever host holds it.
func (tb *Testbed) RemoveApplet(id string) {
	if tb.Cluster != nil {
		tb.Cluster.Remove(id)
		return
	}
	tb.Engine.Remove(id)
}

// StopEngine stops the engine or every cluster node.
func (tb *Testbed) StopEngine() {
	if tb.Cluster != nil {
		tb.Cluster.Stop()
		return
	}
	tb.Engine.Stop()
}

// Traces returns a snapshot of the engine trace, for timeline assembly.
func (tb *Testbed) Traces() []engine.TraceEvent {
	tb.mu.Lock()
	defer tb.mu.Unlock()
	return append([]engine.TraceEvent(nil), tb.traces...)
}

// ClearTraces resets the trace buffer between trials.
func (tb *Testbed) ClearTraces() {
	tb.mu.Lock()
	tb.traces = nil
	tb.mu.Unlock()
}
