package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"repro/internal/cluster"
	"repro/internal/durable"
	"repro/internal/httpx"
	"repro/internal/ingest"
	"repro/internal/obs"
	"repro/internal/proto"
	"repro/internal/simtime"
)

// Layer probes: standalone loops over one layer's public function,
// each at least probeRound long and repeated probeRounds times, median
// ns/op. They run at the end of a traced run, each with the workload
// whose layer it isolates.

const probeRounds = 5

// probeRound is a variable only so that the smoke test can shorten it.
var probeRound = 500 * time.Millisecond

// probeLoop times f(n), growing n until one round lasts probeRound, and
// returns the median ns/op and the allocations per op over all rounds.
func probeLoop(f func(n int)) (nsPerOp, allocsPerOp float64) {
	n := 1000
	for {
		t0 := time.Now()
		f(n)
		d := time.Since(t0)
		if d >= probeRound/4 {
			n = int(float64(n)*float64(probeRound)/float64(d)*1.05) + 1
			break
		}
		if n *= 4; n > 1<<30 {
			break // f does no work (a probe that failed): do not grow for ever
		}
	}
	var ns []float64
	var objs uint64
	for i := 0; i < probeRounds; i++ {
		o0, _ := allocCounters()
		t0 := time.Now()
		f(n)
		ns = append(ns, float64(time.Since(t0).Nanoseconds())/float64(n))
		o1, _ := allocCounters()
		objs += o1 - o0
	}
	return median(ns), float64(objs) / float64(n*probeRounds)
}

// probeSimTimer: AfterFunc plus its firing, a thousand timers per sleep.
func probeSimTimer() float64 {
	ns, _ := probeLoop(func(n int) {
		clock := simtime.NewSimDefault()
		clock.Run(func() {
			for done := 0; done < n; done += 1000 {
				for j := 0; j < 1000; j++ {
					clock.AfterFunc(time.Duration(j+1)*time.Microsecond, func() {})
				}
				clock.Sleep(2 * time.Millisecond)
			}
		})
	})
	return ns
}

// probeSimSleep: two actors sleeping in lock-step, ns per Sleep.
func probeSimSleep() float64 {
	ns, _ := probeLoop(func(n int) {
		clock := simtime.NewSimDefault()
		clock.Run(func() {
			clock.Go(func() {
				for i := 0; i < n/2; i++ {
					clock.Sleep(time.Millisecond)
				}
			})
			for i := 0; i < n/2; i++ {
				clock.Sleep(time.Millisecond)
			}
		})
	})
	return ns
}

// staticDoer answers every request with the same body.
type staticDoer struct{ body []byte }

func (d staticDoer) Do(req *http.Request) (*http.Response, error) {
	return respond(req, d.body, nil), nil
}

func pollBody(events int) []byte {
	b := []byte(`{"data":[`)
	at := simtime.DefaultStart
	for i := 0; i < events; i++ {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendEvent(b, 1234, int64(i), at)
	}
	return append(b, "]}"...)
}

// probeDoPrepared: one prepared poll round-trip decoded into a reused
// TriggerPollResponse, with the given number of events in the body.
func probeDoPrepared(events int) (ns, allocs float64) {
	client := httpx.NewClient(staticDoer{pollBody(events)}, simtime.NewReal(), 0)
	a := makeApplet(1234, 0, 0)
	prep, err := httpx.NewPrepared("POST", proto.TriggerURL(a.Trigger.BaseURL, a.Trigger.Slug),
		proto.TriggerPollRequest{TriggerIdentity: a.TriggerIdentity(), TriggerFields: a.Trigger.Fields,
			User: proto.UserInfo{ID: a.UserID}, Source: proto.Source{ID: a.ID}},
		httpx.WithHeader(proto.ServiceKeyHeader, a.Trigger.ServiceKey),
		httpx.WithHeader("Authorization", "Bearer "+a.Trigger.UserToken))
	if err != nil {
		return 0, 0
	}
	var resp proto.TriggerPollResponse
	return probeLoop(func(n int) {
		for i := 0; i < n; i++ {
			resp.Data = resp.Data[:0]
			if status, err := client.DoPrepared(prep, &resp); err != nil || status != 200 || len(resp.Data) != events {
				panic(fmt.Sprint("probe: DoPrepared: ", status, err))
			}
		}
	})
}

// probePushDecode: decoding one 50-delivery push batch, ns per event.
func probePushDecode() float64 {
	b := []byte(`{"data":[`)
	for i := 0; i < pushBatch; i++ {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, `{"trigger_identity":"ti-0123456789abcdef","events":[`...)
		b = appendEvent(b, 1234, int64(i), simtime.DefaultStart)
		b = append(b, "]}"...)
	}
	b = append(b, "]}"...)
	ns, _ := probeLoop(func(n int) {
		for i := 0; i < n; i += pushBatch {
			var batch proto.PushBatch
			if err := json.Unmarshal(b, &batch); err != nil || len(batch.Data) != pushBatch {
				panic("probe: push batch decode")
			}
		}
	})
	return ns
}

// probeOffer: Offer into a bounded queue with its consumer draining.
func probeOffer() float64 {
	ns, _ := probeLoop(func(n int) {
		q := ingest.NewQueue(simtime.NewReal(), pushQueue, 0, func([]int) {})
		for i := 0; i < n; i++ {
			if !q.Offer(i) {
				q.Sync()
				q.Offer(i)
			}
		}
		q.Close()
	})
	return ns
}

// probeRingOwner: consistent-hash lookups on a four-node ring.
func probeRingOwner() float64 {
	ring := cluster.NewRing(0)
	for i := 0; i < clusterNodes; i++ {
		ring.Add(fmt.Sprintf("node%d", i))
	}
	keys := make([]string, 1024)
	for i := range keys {
		keys[i] = fmt.Sprintf("ti-%016x", uint64(i)*0x9e3779b97f4a7c15)
	}
	ns, _ := probeLoop(func(n int) {
		for i := 0; i < n; i++ {
			if ring.Owner(keys[i&1023]) == "" {
				panic("probe: ring owner")
			}
		}
	})
	return ns
}

func probeHistogram() float64 {
	h := obs.NewHistogram(nil)
	ns, _ := probeLoop(func(n int) {
		for i := 0; i < n; i++ {
			h.Observe(float64(i&1023) / 64)
		}
	})
	return ns
}

func probeObsRing() float64 {
	ring := obs.NewRing[int](4096)
	ns, _ := probeLoop(func(n int) {
		for i := 0; i < n; i++ {
			ring.Publish(i)
			ring.Pop()
		}
	})
	return ns
}

// probeAppend: Store.AppendInstall into a fresh WAL. With fsync the
// number measures the disk, so it is a fixed 2000 appends, once.
func probeAppend(dir string, fsync bool) float64 {
	dir = filepath.Join(dir, fmt.Sprintf("probe-wal-%d", os.Getpid()))
	defer os.RemoveAll(dir)
	a := makeApplet(1234, 0, 0)
	failed := false // the disk refused: report no number rather than a wrong one
	appendN := func(n int) {
		os.RemoveAll(dir)
		st, err := durable.Open(durable.Options{Dir: dir, Clock: simtime.NewReal(), Fsync: fsync})
		if err != nil {
			failed = true
			return
		}
		defer st.Abandon()
		for i := 0; i < n && !failed; i++ {
			failed = st.AppendInstall(a) != nil
		}
	}
	var ns float64
	if fsync {
		t0 := time.Now()
		appendN(2000)
		ns = float64(time.Since(t0).Nanoseconds()) / 2000
	} else {
		ns, _ = probeLoop(appendN)
	}
	if failed {
		return 0
	}
	return ns
}

// runProbes runs the probes that belong with workload and stores their
// results as per-layer metrics.
func runProbes(workload, tmpDir string, layers map[string]float64) {
	switch workload {
	case "poll_idle":
		layers["simtime.timer_ns"] = probeSimTimer()
		layers["simtime.sleep_wake_ns"] = probeSimSleep()
		layers["httpx.do_prepared_ns.ev0"], _ = probeDoPrepared(0)
	case "poll_hot":
		layers["httpx.do_prepared_ns.ev1"], layers["httpx.do_prepared_allocs.ev1"] = probeDoPrepared(1)
		layers["httpx.do_prepared_ns.ev50"], _ = probeDoPrepared(50)
	case "push_storm":
		layers["proto.push_decode_ns_per_event"] = probePushDecode()
		layers["ingest.offer_ns"] = probeOffer()
	case "churn_recover":
		layers["durable.append_nofsync_ns"] = probeAppend(tmpDir, false)
		layers["durable.append_fsync_ns"] = probeAppend(tmpDir, true)
	case "cluster_failover":
		layers["cluster.ring_owner_ns"] = probeRingOwner()
		layers["obs.histogram_observe_ns"] = probeHistogram()
		layers["obs.ring_publish_ns"] = probeObsRing()
	}
}
