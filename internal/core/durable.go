package core

import (
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"sync"
	"time"

	"repro/internal/durable"
	"repro/internal/engine"
	"repro/internal/simtime"
	"repro/internal/stats"
)

// DurableChurnConfig sizes the durability study: a base population plus
// paper-calibrated install/remove churn, crashed mid-horizon and
// recovered from the WAL.
type DurableChurnConfig struct {
	Seed uint64
	// Dir roots the WAL/snapshot directory; empty means a fresh temp
	// directory, removed afterwards.
	Dir string
	// Base is the pre-churn installed population. Zero means 2,000.
	Base int
	// Virtual is the full churn horizon; the crash lands at its middle.
	// Zero means 30 minutes.
	Virtual time.Duration
	// Rate is the churn rate in lifecycle ops per second. Zero means
	// 1.47/s — the paper's 23M applet adds over six months (§3.2),
	// compressed onto one engine.
	Rate float64
	// SnapshotInterval is the durable store's snapshot cadence. Zero
	// means 5 minutes, so the 15-minute pre-crash window takes two
	// snapshots and recovery replays a genuine snapshot+tail mix.
	SnapshotInterval time.Duration
	// BenchInstalls sizes the WAL-on/off install-throughput arms. Zero
	// means 10,000.
	BenchInstalls int
}

// DurableChurnResults records what the crash took and what recovery
// brought back.
type DurableChurnResults struct {
	Base     int
	Virtual  time.Duration
	Rate     float64
	Installs int // churn installs before the crash (beyond Base)
	Removes  int // churn removes before the crash

	WALRecords  uint64 // journal records appended before the crash
	WALBytes    int64  // live WAL bytes at the crash
	Snapshots   int64  // snapshot images written before the crash
	LiveAtCrash int    // applets installed when the process died

	RecoveredApplets int
	RecoveryComplete bool // recovered set == live-at-crash set
	RecoveryWall     time.Duration

	PostRecoveryExecs int // executions in the post-recovery half
	DuplicateExecs    int // (applet,event) pairs executed more than once across the crash

	WALOffInstallsPerSec float64
	WALOnInstallsPerSec  float64
	WALOverheadX         float64
}

// churnDoer serves the same three events to every trigger poll, so a
// recovered engine is immediately re-offered everything the crashed one
// executed — dedup recovery is the only duplicate guard.
type churnDoer struct{}

func (churnDoer) Do(req *http.Request) (*http.Response, error) {
	body := `{}`
	if strings.Contains(req.URL.Path, "/triggers/") {
		body = `{"data":[` +
			`{"meta":{"id":"ev-1","timestamp":100}},` +
			`{"meta":{"id":"ev-2","timestamp":101}},` +
			`{"meta":{"id":"ev-3","timestamp":102}}]}`
	}
	return &http.Response{
		StatusCode: http.StatusOK,
		Body:       io.NopCloser(strings.NewReader(body)),
		Header:     make(http.Header),
		Request:    req,
	}, nil
}

func churnApplet(i int) engine.Applet {
	return engine.Applet{
		ID:     fmt.Sprintf("d%06d", i),
		UserID: fmt.Sprintf("u%05d", i%10000),
		Trigger: engine.ServiceRef{
			Service: "churnsvc", BaseURL: "http://svc.sim", Slug: "fired",
			Fields: map[string]string{"n": fmt.Sprint(i)},
		},
		Action: engine.ServiceRef{Service: "churnsvc", BaseURL: "http://svc.sim", Slug: "act"},
	}
}

// RunDurableChurn runs the crash-recovery study: populate, churn at the
// paper-calibrated rate with the WAL on, kill the engine mid-horizon
// (no clean shutdown, no final snapshot), recover a second engine from
// the directory, and finish the horizon. Alongside, a WAL-on/off
// install microbenchmark prices the journal on the install path.
func RunDurableChurn(cfg DurableChurnConfig) (*DurableChurnResults, error) {
	base := cfg.Base
	if base == 0 {
		base = 2000
	}
	virtual := cfg.Virtual
	if virtual == 0 {
		virtual = 30 * time.Minute
	}
	rate := cfg.Rate
	if rate == 0 {
		rate = 1.47 // 23M adds / six months, the paper's §3.2 growth
	}
	snapEvery := cfg.SnapshotInterval
	if snapEvery == 0 {
		snapEvery = 5 * time.Minute
	}
	benchN := cfg.BenchInstalls
	if benchN == 0 {
		benchN = 10_000
	}
	dir := cfg.Dir
	if dir == "" {
		td, err := os.MkdirTemp("", "durable-churn-*")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(td)
		dir = td
	}

	r := &DurableChurnResults{Base: base, Virtual: virtual, Rate: rate}

	var mu sync.Mutex
	acked := map[string]int{}
	trace := func(ev engine.TraceEvent) {
		if ev.Kind != engine.TraceActionAcked {
			return
		}
		mu.Lock()
		acked[ev.AppletID+"/"+ev.EventID]++
		mu.Unlock()
	}

	mkEngine := func(clock *simtime.SimClock, st *durable.Store) (*engine.Engine, error) {
		eng := engine.New(engine.Config{
			Clock: clock, RNG: stats.NewRNG(cfg.Seed), Doer: churnDoer{},
			Poll:          engine.FixedInterval{Interval: 5 * time.Minute},
			DispatchDelay: -1,
			Journal:       st,
			Trace:         trace,
		})
		if err := st.Restore(eng); err != nil {
			return nil, err
		}
		st.Start()
		return eng, nil
	}

	// --- Phase 1: populate, churn, crash at mid-horizon. ---
	clock1 := simtime.NewSimDefault()
	st1, err := durable.Open(durable.Options{Dir: dir, Clock: clock1, SnapshotInterval: snapEvery})
	if err != nil {
		return nil, err
	}
	eng1, err := mkEngine(clock1, st1)
	if err != nil {
		return nil, err
	}
	var liveAtCrash map[string]bool
	var runErr error
	clock1.Run(func() {
		for i := 0; i < base; i++ {
			if err := eng1.Install(churnApplet(i)); err != nil {
				runErr = err
				return
			}
		}
		// Churn actor: alternate installs of new IDs with removes of the
		// oldest churn-installed survivors, one op every 1/rate seconds.
		rng := stats.NewRNG(cfg.Seed).Split("churn")
		next, oldest := base, base
		step := time.Duration(float64(time.Second) / rate)
		deadline := clock1.Now().Add(virtual / 2)
		for clock1.Now().Before(deadline) {
			clock1.Sleep(step)
			if rng.Float64() < 0.5 && oldest < next {
				eng1.Remove(churnApplet(oldest).ID)
				oldest++
				r.Removes++
			} else {
				if err := eng1.Install(churnApplet(next)); err != nil {
					runErr = err
					return
				}
				next++
				r.Installs++
			}
		}
		liveAtCrash = map[string]bool{}
		for _, id := range eng1.Applets() {
			liveAtCrash[id] = true
		}
		r.LiveAtCrash = len(liveAtCrash)
		r.WALRecords = st1.WALSeq()
		r.WALBytes = st1.WALSizeOnDisk()
		r.Snapshots = st1.Snapshots()
		eng1.Stop()
		st1.Abandon() // the crash: WAL tail only, no final snapshot
	})
	if runErr != nil {
		return nil, runErr
	}
	preCrash := len(acked)

	// --- Phase 2: recover and finish the horizon. ---
	clock2 := simtime.NewSimDefault()
	wallStart := time.Now()
	st2, err := durable.Open(durable.Options{Dir: dir, Clock: clock2, SnapshotInterval: snapEvery})
	if err != nil {
		return nil, err
	}
	eng2, err := mkEngine(clock2, st2)
	if err != nil {
		return nil, err
	}
	r.RecoveryWall = time.Since(wallStart)
	recovered := eng2.Applets()
	r.RecoveredApplets = len(recovered)
	r.RecoveryComplete = len(recovered) == len(liveAtCrash)
	for _, id := range recovered {
		if !liveAtCrash[id] {
			r.RecoveryComplete = false
		}
	}
	clock2.Run(func() {
		clock2.Sleep(virtual / 2)
		eng2.Stop()
		st2.Close()
	})
	r.PostRecoveryExecs = len(acked) - preCrash
	for _, n := range acked {
		if n > 1 {
			r.DuplicateExecs++
		}
	}

	// --- Install-throughput arms. ---
	arm := func(walDir string) (float64, error) {
		clock := simtime.NewSimDefault()
		ecfg := engine.Config{
			Clock: clock, RNG: stats.NewRNG(cfg.Seed), Doer: churnDoer{},
			Poll: engine.FixedInterval{Interval: time.Hour}, DispatchDelay: -1,
		}
		var st *durable.Store
		if walDir != "" {
			var err error
			st, err = durable.Open(durable.Options{Dir: walDir, Clock: clock})
			if err != nil {
				return 0, err
			}
			ecfg.Journal = st
		}
		eng := engine.New(ecfg)
		if st != nil {
			if err := st.Restore(eng); err != nil {
				return 0, err
			}
		}
		var elapsed time.Duration
		clock.Run(func() {
			start := time.Now()
			for i := 0; i < benchN; i++ {
				if err := eng.Install(churnApplet(i)); err != nil {
					runErr = err
					return
				}
			}
			elapsed = time.Since(start)
			eng.Stop()
			if st != nil {
				st.Abandon()
			}
		})
		if runErr != nil {
			return 0, runErr
		}
		return float64(benchN) / elapsed.Seconds(), nil
	}
	if r.WALOffInstallsPerSec, err = arm(""); err != nil {
		return nil, err
	}
	onDir, err := os.MkdirTemp("", "durable-bench-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(onDir)
	if r.WALOnInstallsPerSec, err = arm(onDir); err != nil {
		return nil, err
	}
	r.WALOverheadX = r.WALOffInstallsPerSec / r.WALOnInstallsPerSec
	return r, nil
}

// FormatDurableChurn renders the durability study.
func FormatDurableChurn(r *DurableChurnResults) string {
	var b strings.Builder
	b.WriteString("## Durability — WAL + snapshot crash recovery\n\n")
	fmt.Fprintf(&b, "Base population %s applets plus %.2f lifecycle ops/s of churn\n",
		groupThousands(r.Base), r.Rate)
	b.WriteString("(the paper's 23M applet adds over six months, §3.2, compressed onto\n")
	b.WriteString("one engine), write-ahead logged with periodic snapshots. The process\n")
	fmt.Fprintf(&b, "is killed without warning at the middle of a %s horizon — no final\n", r.Virtual)
	b.WriteString("snapshot, no clean close — and a fresh engine recovers from the\n")
	b.WriteString("directory. Every trigger re-serves the same events after the crash,\n")
	b.WriteString("so recovered dedup windows are the only duplicate guard.\n\n")
	b.WriteString("| phase | value |\n|---|---|\n")
	fmt.Fprintf(&b, "| churn before crash | %d installs, %d removes |\n", r.Installs, r.Removes)
	fmt.Fprintf(&b, "| journaled | %d WAL records, %.1f KB live WAL, %d snapshots |\n",
		r.WALRecords, float64(r.WALBytes)/1024, r.Snapshots)
	fmt.Fprintf(&b, "| live at crash | %s applets |\n", groupThousands(r.LiveAtCrash))
	fmt.Fprintf(&b, "| recovered | %s applets in %.0f ms (complete: %v) |\n",
		groupThousands(r.RecoveredApplets), r.RecoveryWall.Seconds()*1000, r.RecoveryComplete)
	fmt.Fprintf(&b, "| after recovery | %d executions, %d duplicates across the crash |\n\n",
		r.PostRecoveryExecs, r.DuplicateExecs)
	fmt.Fprintf(&b, "- Install path with the WAL on: %s installs/s vs %s with it off\n",
		groupThousands(int(r.WALOnInstallsPerSec)), groupThousands(int(r.WALOffInstallsPerSec)))
	fmt.Fprintf(&b, "  (%.2fx overhead — one binary encode and one write(2) per lifecycle\n", r.WALOverheadX)
	b.WriteString("  record, inside the install critical section).\n")
	b.WriteString("- Exactly-once across the kill is the checkpoint-before-dispatch\n")
	b.WriteString("  contract: each execution's dedup delta is journaled before its\n")
	b.WriteString("  first action fires, so replay can re-offer but never re-execute.\n")
	return b.String()
}
