package main

import (
	"fmt"
	"time"

	"repro/internal/cluster"
	"repro/internal/engine"
	"repro/internal/simtime"
	"repro/internal/stats"
)

func clusterEngineConfig(clock simtime.Clock, seed uint64) engine.Config {
	return engine.Config{
		Clock: clock, RNG: stats.NewRNG(seed),
		Poll:          engine.FixedInterval{Interval: clusterGap},
		DispatchDelay: -1, Shards: 4, ShardWorkers: 4, Push: true,
	}
}

// runClusterFailover: four nodes behind the consistent-hash router, hot
// events arriving by push every virtual second and again by the
// five-minute polls, with a node failure and a node join per cycle. The
// only workload where the cluster layer does the work, and the guard
// for any engine change that alters detach/attach cost.
func runClusterFailover(o options) *result {
	n, hot := o.n(clusterApplets), o.n(clusterHot)
	r := newRun(o, newPopulation(o.seed, n, hot, clusterPeriod))
	r.pop.identities()
	var clusterInstallNs float64
	for done := false; !done; {
		clock := simtime.NewSimDefault()
		stub := newPartner(clock, r.pop, clusterPeriod)
		stub.limit = clusterBuffer
		cfg := clusterEngineConfig(clock, o.seed)
		cfg.Doer, cfg.Trace = r.doer(stub), r.traceFunc()
		cl := cluster.New(cluster.Config{Nodes: clusterNodes, Engine: cfg})
		clock.Run(func() {
			defer cl.Stop()
			t0 := time.Now()
			clusterInstallNs = r.installAll(cl.Install)
			pusher := newSimPusher(r, stub, clock, cl)
			pusher.advance(clusterWarm)
			r.setupDone(t0)
			if r.setupAgain() {
				return
			}
			done = true

			stub.sampleT2A(clock.Now(), minSegments*clusterSegment)
			before, served0 := cl.Stats(), stub.eventsServed.Load()
			var sweepS, addS []float64
			var moved int64
			checkSubs := func(when string) {
				r.res.attempted++
				if got := liveSubscriptions(cl); got != n {
					r.res.fail(1, fmt.Sprintf("%d subscriptions after %s, want %d", got, when, n))
				}
			}
			// One cycle is steady, fail+sweep, steady, join, steady. The
			// membership changes happen between segments and are timed apart.
			membership := func(i int) {
				m0 := cl.Stats().Moves
				t := time.Now()
				switch i % (3 * clusterSteady) {
				case clusterSteady:
					if err := cl.FailNode(busiest(cl)); err != nil {
						r.res.fail(1, "fail node: "+err.Error())
					}
					r.tr.phase(spSweep, func() error { cl.Sweep(); return nil })
					sweepS = append(sweepS, time.Since(t).Seconds())
					checkSubs("failover")
				case 2 * clusterSteady:
					if err := r.tr.phase(spAddNode, func() error { _, err := cl.AddNode(); return err }); err != nil {
						r.res.fail(1, "add node: "+err.Error())
					}
					addS = append(addS, time.Since(t).Seconds())
					checkSubs("join")
				}
				moved += cl.Stats().Moves - m0
			}
			r.loop(membership, func() int64 {
				a0 := stub.actions.Load()
				pusher.advance(clusterSegment)
				return stub.actions.Load() - a0
			})
			after := cl.Stats()
			r.finish()
			// A failed node drops what sat in its ingress queues; the polls
			// reconcile that. One more poll round with no new events lets
			// them, so the audit can demand every event executed.
			stub.until.Store(clock.Now().UnixNano())
			pusher.advance(clusterGap + time.Minute)
			pusher.drain()
			cl.Stop()

			stub.audit(clock.Now(), 0).record(r.res)
			r.res.fail(pusher.refused, "pushed event rejected or unmatched")
			r.res.fail(after.PollFailures+after.ActionsFailed+stub.malformed.Load(), "poll or action failed")
			r.t2aSim(stub, clusterT2AMax)
			if s := sum(sweepS) + sum(addS); s > 0 {
				r.res.extra = append(r.res.extra, metric{Name: "rebalance_subs_per_s", Value: float64(moved) / s, Unit: "subs/s"})
			}
			r.engineLayers(before.Stats, after.Stats, stub.eventsServed.Load()-served0+pusher.accepted)
			r.partnerLayers(stub)
			r.layers["cluster.moved_subs"] = float64(moved)
			r.layers["cluster.sweep_s"] = median(sweepS)
			r.layers["cluster.addnode_s"] = median(addS)
			r.layers["cluster.parked_ops"] = float64(after.ParkedOps - before.ParkedOps)
			r.layers["cluster.spread"] = nodeSpread(cl)
			r.layers["cluster.push_forward_ns_per_delivery"] = pusher.forwardNs()
		})
	}
	if r.tr != nil {
		r.layers["cluster.install_overhead_ns"] = clusterInstallNs - engineInstallNs(r.o.seed, r.pop)
	}
	return r.done()
}

// engineInstallNs installs the same applets on one bare engine: the
// baseline cluster.install_overhead_ns subtracts.
func engineInstallNs(seed uint64, pop *population) float64 {
	clock := simtime.NewSimDefault()
	cfg := clusterEngineConfig(clock, seed)
	cfg.Doer = newPartner(clock, pop, clusterPeriod)
	eng := engine.New(cfg)
	var ns float64
	clock.Run(func() {
		defer eng.Stop()
		ns, _, _ = timeInstalls(pop.applets, eng.Install)
	})
	return ns
}

func sum(v []float64) (s float64) {
	for _, x := range v {
		s += x
	}
	return s
}

func liveSubscriptions(cl *cluster.Cluster) int {
	n := 0
	for _, nd := range cl.Nodes() {
		if nd.Alive() {
			n += nd.Engine.Stats().Subscriptions
		}
	}
	return n
}

func busiest(cl *cluster.Cluster) string {
	name, most := "", -1
	for _, nd := range cl.Nodes() {
		if s := nd.Engine.Stats().Subscriptions; nd.Alive() && s > most {
			name, most = nd.Name, s
		}
	}
	return name
}

// nodeSpread is max/min subscriptions per live node.
func nodeSpread(cl *cluster.Cluster) float64 {
	lo, hi := -1, 0
	for _, nd := range cl.Nodes() {
		if !nd.Alive() {
			continue
		}
		s := nd.Engine.Stats().Subscriptions
		if lo < 0 || s < lo {
			lo = s
		}
		if s > hi {
			hi = s
		}
	}
	if lo <= 0 {
		return 0
	}
	return float64(hi) / float64(lo)
}
