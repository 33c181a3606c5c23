package engine

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/proto"
	"repro/internal/simtime"
	"repro/internal/stats"
)

// replayPartner is a trigger service that answers every poll with every
// event published for the polled identity so far (newest first), so
// each event is offered again on every poll after it was pushed; a push
// copy and a poll copy only ever execute once because the dedup rings
// say so. Each request takes 20 ms of virtual time.
type replayPartner struct {
	clock simtime.Clock

	mu     sync.Mutex
	events map[string][]string // identity → event IDs, oldest first
}

func (p *replayPartner) publish(key, id string) {
	p.mu.Lock()
	p.events[key] = append(p.events[key], id)
	p.mu.Unlock()
}

func (p *replayPartner) Do(req *http.Request) (*http.Response, error) {
	p.clock.Sleep(20 * time.Millisecond)
	body := `{"data":[]}`
	if req.Method == http.MethodPost && strings.Contains(req.URL.Path, "/triggers/") {
		var poll proto.TriggerPollRequest
		raw, _ := io.ReadAll(req.Body)
		if err := json.Unmarshal(raw, &poll); err != nil {
			return nil, err
		}
		p.mu.Lock()
		ids := p.events[poll.TriggerIdentity]
		var b strings.Builder
		b.WriteString(`{"data":[`)
		for i := len(ids) - 1; i >= 0; i-- {
			if i < len(ids)-1 {
				b.WriteByte(',')
			}
			fmt.Fprintf(&b, `{"meta":{"id":%q,"timestamp":1}}`, ids[i])
		}
		b.WriteString(`]}`)
		p.mu.Unlock()
		body = b.String()
	}
	return &http.Response{
		StatusCode: http.StatusOK,
		Body:       io.NopCloser(strings.NewReader(body)),
		Header:     make(http.Header),
		Request:    req,
	}, nil
}

// TestPushPollExactlyOnceSchedules generates seeded schedules of push
// batches, realtime hints, installs, removes and detach→attach round
// trips between two coalescing engines (4 shards × 4 workers each),
// every operation racing the engines' own polls and push executions.
// The partner re-serves every published event on every poll. After the
// schedule quiesces:
//   - no (applet, event) executed twice;
//   - every applet never removed executed every event published for its
//     identity exactly once (pushed and accepted, or only polled);
//   - no push delivery waits or runs (IngressDepth 0) and no
//     subscription is queued or running while no worker is.
func TestPushPollExactlyOnceSchedules(t *testing.T) {
	const seeds = 60
	var accepted, moves int
	for seed := uint64(1); seed <= seeds; seed++ {
		a, m := runPushPollSchedule(t, seed)
		accepted += a
		moves += m
		if t.Failed() {
			t.Fatalf("schedule seed %d failed", seed)
		}
	}
	t.Logf("%d seeds: %d pushed events accepted, %d subscriptions moved", seeds, accepted, moves)
	if accepted == 0 || moves == 0 {
		t.Fatalf("schedules exercised %d accepted push events and %d moves, want both > 0", accepted, moves)
	}
}

// runPushPollSchedule runs the schedule of one seed and reports how many
// pushed events were accepted and how many subscriptions moved.
func runPushPollSchedule(t *testing.T, seed uint64) (accepted, moves int) {
	clock := simtime.NewSimDefault()
	partner := &replayPartner{clock: clock, events: make(map[string][]string)}
	col := &ackCollector{}
	rng := stats.NewRNG(seed)
	mk := func(label string) *Engine {
		return New(Config{
			Clock: clock, RNG: rng.Split(label), Doer: partner,
			Poll: FixedInterval{Interval: 10 * time.Second}, DispatchDelay: 100 * time.Millisecond,
			RealtimeServices: map[string]bool{"svc": true}, RealtimeDelay: 50 * time.Millisecond,
			Shards: 4, ShardWorkers: 4, Coalesce: true, Push: true, IngressQueue: 16,
			Trace: col.observe,
		})
	}
	engines := [2]*Engine{mk("A"), mk("B")}
	drv, pushRNG, hintRNG := rng.Split("driver"), rng.Split("push"), rng.Split("hint")

	// The model the actors share. loc is where each identity lives;
	// pushes and hints read it without holding mu across engine calls,
	// so they race the driver's moves, which is the point.
	var mu sync.Mutex
	loc := make(map[string]*Engine)
	keyOf := make(map[string]string) // installed applet → identity
	removed := make(map[string]bool)
	var keys []string // identities in use
	nEvents := 0

	applet := func(id string, user, field int) Applet {
		return Applet{
			ID: id, UserID: fmt.Sprintf("u%d", user),
			Trigger: ServiceRef{Service: "svc", BaseURL: "http://svc.sim", Slug: "fired",
				Fields: map[string]string{"n": fmt.Sprintf("k%d", field)}},
			Action: ServiceRef{Service: "svc", BaseURL: "http://svc.sim", Slug: "act"},
		}
	}
	home := func(key string) *Engine {
		mu.Lock()
		defer mu.Unlock()
		if e := loc[key]; e != nil {
			return e
		}
		return engines[0]
	}
	pick := func(r *stats.RNG) string {
		mu.Lock()
		defer mu.Unlock()
		if len(keys) == 0 {
			return ""
		}
		return keys[r.IntN(len(keys))]
	}

	clock.Run(func() {
		left := 3
		finish := func() {
			mu.Lock()
			left--
			mu.Unlock()
		}
		// The driver: installs, removes and moves, one at a time (the
		// engine asks that a detach not race a Remove of its members).
		clock.Go(func() {
			defer finish()
			for i := 0; i < 40; i++ {
				clock.Sleep(time.Duration(drv.IntN(1500)) * time.Millisecond)
				switch op := drv.IntN(10); {
				case op < 5: // install
					id := fmt.Sprintf("a%d", i)
					ap := applet(id, drv.IntN(3), drv.IntN(4))
					key := ap.CoalescedTriggerIdentity()
					e := home(key)
					if err := e.Install(ap); err != nil {
						t.Errorf("seed %d: install %s: %v", seed, id, err)
						continue
					}
					mu.Lock()
					if loc[key] == nil {
						loc[key] = e
						keys = append(keys, key)
					}
					keyOf[id] = key
					mu.Unlock()
				case op < 7: // remove an applet installed earlier
					mu.Lock()
					var id string
					for j := 0; j < i && id == ""; j++ {
						c := fmt.Sprintf("a%d", drv.IntN(i))
						if keyOf[c] != "" && !removed[c] {
							id = c
						}
					}
					e := loc[keyOf[id]]
					mu.Unlock()
					if id == "" {
						continue
					}
					if err := e.Remove(id); err != nil {
						t.Errorf("seed %d: remove %s: %v", seed, id, err)
					}
					mu.Lock()
					removed[id] = true
					mu.Unlock()
				default: // detach → attach to the other engine
					key := pick(drv)
					if key == "" {
						continue
					}
					src := home(key)
					dst := engines[0]
					if src == engines[0] {
						dst = engines[1]
					}
					snap, err := src.DetachSubscription(key)
					if err != nil || snap == nil {
						continue // every member gone
					}
					if err := dst.AttachSubscription(snap); err != nil {
						t.Errorf("seed %d: attach %s: %v", seed, key, err)
						continue
					}
					mu.Lock()
					loc[key] = dst
					mu.Unlock()
					moves++
				}
			}
		})
		// The pusher: batches of up to three events, each published to the
		// partner and pushed to where its identity lives, some twice.
		clock.Go(func() {
			defer finish()
			for i := 0; i < 60; i++ {
				clock.Sleep(time.Duration(pushRNG.IntN(800)) * time.Millisecond)
				var batch []proto.PushDelivery
				for n := 1 + pushRNG.IntN(3); n > 0; n-- {
					key := pick(pushRNG)
					if key == "" {
						break
					}
					nEvents++
					id := fmt.Sprintf("e%d", nEvents)
					partner.publish(key, id)
					ev := []proto.TriggerEvent{{Meta: proto.EventMeta{ID: id, Timestamp: 1}}}
					batch = append(batch, proto.PushDelivery{TriggerIdentity: key, Events: ev})
					if pushRNG.IntN(4) == 0 { // the same event again
						batch = append(batch, proto.PushDelivery{TriggerIdentity: key,
							Events: []proto.TriggerEvent{ev[0]}})
					}
				}
				if len(batch) > 0 {
					accepted += home(batch[0].TriggerIdentity).PushDeliveries(batch).Accepted
				}
			}
		})
		// The hinter: realtime hints that pull polls forward.
		clock.Go(func() {
			defer finish()
			for i := 0; i < 30; i++ {
				clock.Sleep(time.Duration(hintRNG.IntN(2000)) * time.Millisecond)
				if key := pick(hintRNG); key != "" {
					home(key).ApplyHint(proto.RealtimeHint{TriggerIdentity: key})
				}
			}
		})
		// Check the executor's invariants while the schedule runs...
		for reported := false; ; {
			if msg, _ := executorState(engines[:]); msg != "" && !reported {
				t.Errorf("seed %d: %s", seed, msg)
				reported = true
			}
			mu.Lock()
			running := left > 0
			mu.Unlock()
			if !running {
				break
			}
			clock.Sleep(50 * time.Millisecond)
		}
		clock.Sleep(time.Minute) // quiesce: every identity polls several times
		// ...and its state at an instant no worker runs.
		for try := 0; ; try++ {
			if msg, busy := executorState(engines[:]); !busy {
				if msg == "" {
					msg = quiescentState(engines[:])
				}
				if msg != "" {
					t.Errorf("seed %d: %s", seed, msg)
				}
				break
			} else if try == 100 {
				t.Errorf("seed %d: workers never went idle", seed)
				break
			}
			clock.Sleep(10 * time.Millisecond)
		}
		engines[0].Stop()
		engines[1].Stop()
	})

	for k, n := range col.acked {
		if n > 1 {
			t.Errorf("seed %d: %s executed %d times", seed, k, n)
		}
	}
	for id, key := range keyOf {
		if removed[id] {
			continue
		}
		for _, ev := range partner.events[key] {
			if n := col.acked[id+"/"+ev]; n != 1 {
				t.Errorf("seed %d: %s executed %s %d times, want once", seed, id, ev, n)
			}
		}
	}
	return accepted, moves
}

// executorState locks every shard of engines and checks the executor's
// invariants: a ready queue always has a worker coming, and a live
// subscription that is off the heap (owed a poll) or holds push
// deliveries is queued or running. busy reports a worker running.
func executorState(engines []*Engine) (msg string, busy bool) {
	for _, e := range engines {
		for _, s := range e.shards {
			s.mu.Lock()
			defer s.mu.Unlock()
			busy = busy || s.inflight > 0
			if s.readyLenLocked() > 0 && s.inflight == 0 {
				msg = fmt.Sprintf("shard %d: %d subscriptions queued and no worker", s.id, s.readyLenLocked())
			}
			for k, sub := range s.subs {
				if sub.run == idle && (sub.heapPos == 0 || sub.mail != nil && len(sub.mail.push) > 0) {
					msg = fmt.Sprintf("subscription %s is idle with work: heap position %d, mailbox %v", k, sub.heapPos, sub.mail)
				}
			}
		}
	}
	return msg, busy
}

// quiescentState describes what holds work on engines with no worker
// running: a push delivery counted, a subscription not idle or with a
// mailbox; "" when nothing does.
func quiescentState(engines []*Engine) string {
	for _, e := range engines {
		if d := e.Stats().IngressDepth; d != 0 {
			return fmt.Sprintf("ingress depth %d at rest", d)
		}
		for _, s := range e.shards {
			s.mu.Lock()
			for k, sub := range s.subs {
				if sub.run != idle || sub.mail != nil {
					s.mu.Unlock()
					return fmt.Sprintf("subscription %s at rest: run state %d, mailbox %v", k, sub.run, sub.mail)
				}
			}
			s.mu.Unlock()
		}
	}
	return ""
}
