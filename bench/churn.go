package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/durable"
	"repro/internal/engine"
	"repro/internal/simtime"
	"repro/internal/stats"
)

// churner installs new cold applets and removes seeded earlier ones,
// one for one, so the population stays at its stated size however many
// segments the window holds.
type churner struct {
	r    *run
	eng  *engine.Engine
	rng  *stats.RNG
	live []string // IDs of the cold applets currently installed, in seeded order
	next int      // number of the next applet to generate
}

func newChurner(r *run, eng *engine.Engine, label string) *churner {
	c := &churner{r: r, eng: eng, rng: stats.NewRNG(r.o.seed).Split(label), next: len(r.pop.applets)}
	for i, a := range r.pop.applets {
		if r.pop.hotSlot[i] < 0 {
			c.live = append(c.live, a.ID)
		}
	}
	c.rng.Shuffle(len(c.live), func(a, b int) { c.live[a], c.live[b] = c.live[b], c.live[a] })
	return c
}

// install generates and installs one new applet.
func (c *churner) install() string {
	a := makeApplet(c.next, c.rng.IntN(4096), c.rng.IntN(c.next/10+1))
	c.next++
	c.r.res.attempted++
	if err := c.r.tr.timed(spEngineInstall, func() error { return c.eng.Install(a) }); err != nil {
		c.r.res.fail(1, "install: "+err.Error())
	}
	return a.ID
}

// burst does pairs install+remove pairs and returns the operation count.
func (c *churner) burst(pairs int) int64 {
	for k := 0; k < pairs; k++ {
		id := c.install()
		victim := k % len(c.live)
		gone := c.live[victim]
		c.r.tr.timed(spEngineRemove, func() error { c.eng.Remove(gone); return nil })
		c.live[victim] = id
	}
	return 2 * int64(pairs)
}

// journal returns the Journal an engine is built with: the store itself,
// or the store behind the span wrapper in a traced run.
func (r *run) journal(st *durable.Store) engine.Journal {
	if r.tr != nil {
		return r.tr.journal(st)
	}
	return st
}

func (r *run) churnConfig(clock simtime.Clock, stub *partner, j engine.Journal) engine.Config {
	return engine.Config{
		Clock: clock, RNG: stats.NewRNG(r.o.seed), Doer: r.doer(stub),
		Poll:          engine.FixedInterval{Interval: churnGap},
		DispatchDelay: -1, Shards: 8, ShardWorkers: 8, Journal: j, Trace: r.traceFunc(),
	}
}

// runChurnRecover: installs and removes beside checkpointed executions
// on a journaled engine (fsync off, the daemon's default; no periodic
// snapshots, so the one snapshot is explicit), then a snapshot, a WAL
// tail, a crash and a recovery. The only workload where the durable
// layer does the work.
func runChurnRecover(o options) *result {
	base, hot := o.n(churnBase), o.n(churnHot)
	pairs, tail := o.n(churnPairs), o.n(churnTail)
	r := newRun(o, newPopulation(o.seed, hot+base, hot, churnPeriod))
	dir := filepath.Join(o.outDir, "tmp", fmt.Sprintf("churn-%d", os.Getpid()))
	defer os.RemoveAll(dir)
	open := func(clock simtime.Clock) (*durable.Store, error) {
		return durable.Open(durable.Options{Dir: dir, Clock: clock})
	}

	var stub *partner
	var liveAtCrash map[string]bool
	var seqAtSnapshot uint64
	var burstRate float64
	for done := false; !done; {
		if err := os.RemoveAll(dir); err != nil {
			return r.abort(err)
		}
		clock := simtime.NewSimDefault()
		stub = newPartner(clock, r.pop, churnPeriod)
		stub.limit = churnBuffer
		st, err := open(clock)
		if err != nil {
			return r.abort(err)
		}
		eng := engine.New(r.churnConfig(clock, stub, r.journal(st)))
		if err := st.Restore(eng); err != nil { // an empty directory: this only binds the engine
			return r.abort(err)
		}
		clock.Run(func() {
			defer st.Abandon()
			defer eng.Stop()
			t0 := time.Now()
			r.installAll(eng.Install)
			// Every hot subscription polled once; the half gap puts segment
			// edges between the poll instants, one poll round per segment.
			clock.Sleep(churnGap + churnGap/2)
			r.setupDone(t0)
			if r.setupAgain() {
				return
			}
			done = true

			// (a)+(b): a segment is a burst of churn, then a virtual minute
			// of checkpointed executions; op = journal record.
			ch := newChurner(r, eng, "churn")
			before, served0 := eng.Stats(), stub.eventsServed.Load()
			var bursts window
			r.loop(nil, func() int64 {
				s0 := st.WALSeq()
				bursts.measure(r.tr.recording(), func() int64 { return ch.burst(pairs) })
				clock.Sleep(churnVirtual)
				return int64(st.WALSeq() - s0)
			})
			after := eng.Stats()
			r.finish()
			burstRate = median(rates(bursts.pick(false)))
			r.engineLayers(before, after, stub.eventsServed.Load()-served0)

			// (c) one snapshot of the stated population.
			subs := after.Subscriptions
			t := time.Now()
			if err := r.tr.phase(spSnapshot, st.Snapshot); err != nil {
				r.res.fail(1, "snapshot: "+err.Error())
			}
			r.res.extra = append(r.res.extra, metric{Name: "snapshot_s", Value: time.Since(t).Seconds(), Unit: "s"})
			seqAtSnapshot = st.WALSeq()
			r.layers["durable.snapshot_bytes_per_sub"] = float64(dirBytes(dir, "snap")) / float64(subs)

			// (d) a WAL tail for recovery to replay: installs and executions.
			for k := 0; k < tail; k++ {
				ch.install()
			}
			clock.Sleep(churnVerify)
			if n := st.WALSeq() - seqAtSnapshot; n > 0 {
				r.layers["durable.wal_bytes_per_record"] = float64(st.WALSizeOnDisk()) / float64(n)
			}

			// (e) the crash: stop mid-flight, abandon the store unsnapshotted.
			liveAtCrash = map[string]bool{}
			for _, id := range eng.Applets() {
				liveAtCrash[id] = true
			}
			stub.until.Store(clock.Now().UnixNano())
		})
	}

	// (f) recovery: open (scan, snapshot load, tail replay), then restore.
	clock := simtime.NewSimDefault()
	var st *durable.Store
	t0 := time.Now()
	if err := r.tr.phase(spOpen, func() (err error) { st, err = open(clock); return err }); err != nil {
		return r.abort(err)
	}
	openS := time.Since(t0).Seconds()
	// The partner now re-offers every event it ever created, whatever
	// the recovered engine's fresh clock says.
	stub.replay.Store(true)
	stub.limit, stub.clock = 20, clock
	eng := engine.New(r.churnConfig(clock, stub, r.journal(st))) // wrapped: the attach loop's journal calls show under durable.restore
	if err := r.tr.phase(spRestore, func() error { return st.Restore(eng) }); err != nil {
		return r.abort(err)
	}
	recoveryS := time.Since(t0).Seconds()
	r.res.extra = append(r.res.extra, metric{Name: "recovery_s", Value: recoveryS, Unit: "s"})
	r.layers["durable.open_s"] = openS
	r.layers["durable.restore_s"] = recoveryS - openS
	r.layers["durable.replayed_records"] = float64(st.WALSeq() - seqAtSnapshot)

	r.res.attempted += int64(len(liveAtCrash))
	missing := int64(len(liveAtCrash))
	for _, id := range eng.Applets() {
		if liveAtCrash[id] {
			missing--
		} else {
			r.res.fail(1, "applet "+id+" recovered but was not live at the crash")
		}
	}
	r.res.fail(missing, "applet live at the crash missing after recovery")
	if _, applets := st.RecoveredCounts(); applets != len(liveAtCrash) {
		r.res.fail(1, fmt.Sprintf("store recovered %d applets, %d were live at the crash", applets, len(liveAtCrash)))
	}

	// (g) two virtual minutes against the re-offering partner: nothing
	// that ran before the crash may run again, nothing may be left out.
	clock.Run(func() {
		clock.Sleep(churnVerify)
		eng.Stop()
		if err := st.Abandon(); err != nil {
			r.res.fail(1, "abandon: "+err.Error())
		}
	})
	// maxWait 0: after two one-minute polls of everything, a pending event is a lost one.
	stub.audit(time.Unix(0, stub.until.Load()), 0).record(r.res)
	r.res.fail(stub.malformed.Load(), "malformed request")
	r.partnerLayers(stub)
	if r.tr != nil && burstRate > 0 {
		r.layers["durable.overhead_x"] = r.unjournaledBurstRate() / burstRate
	}
	return r.done()
}

func rates(segs []segment) []float64 {
	out := make([]float64, 0, len(segs))
	for _, s := range segs {
		out = append(out, float64(s.ops)/s.wall)
	}
	return out
}

// dirBytes sums the sizes of dir's files whose names start with prefix.
func dirBytes(dir, prefix string) int64 {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0
	}
	var n int64
	for _, e := range entries {
		if info, err := e.Info(); err == nil && strings.HasPrefix(e.Name(), prefix) {
			n += info.Size()
		}
	}
	return n
}

// unjournaledBurstRate repeats the churn burst on an engine with no
// journal: what the install path costs without the WAL in its critical
// section.
func (r *run) unjournaledBurstRate() float64 {
	clock := simtime.NewSimDefault()
	stub := newPartner(clock, r.pop, churnPeriod)
	cfg := r.churnConfig(clock, stub, nil)
	cfg.Doer, cfg.Trace = stub, nil
	eng := engine.New(cfg)
	var w window
	clock.Run(func() {
		defer eng.Stop()
		for i := range r.pop.applets {
			if err := eng.Install(r.pop.applets[i]); err != nil {
				return
			}
		}
		ch := newChurner(r, eng, "churn")
		for s := 0; s < 5; s++ {
			w.measure(false, func() int64 { return ch.burst(r.o.n(churnPairs)) })
		}
	})
	return median(rates(w.segs))
}
