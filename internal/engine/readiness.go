// Readiness: the engine's answer to "should this node receive
// traffic?". Liveness (/healthz) is unconditional — a process that can
// answer is alive — but an engine whose every circuit breaker for a
// service is open, or whose poll budget has been deferring every poll
// for a sustained window, is up yet not usefully serving, and a load
// balancer should know. Engine.Readiness assembles the obs.Readiness
// checks that Handler mounts at GET /readyz.
package engine

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/obs"
)

// DefaultBudgetStallWindow is how long the admission controller must
// defer every poll before /readyz reports the budget as stalled.
const DefaultBudgetStallWindow = time.Minute

// breakerOutages returns the services for which every subscription's
// circuit breaker is open or half-open (at least one subscription
// exists), sorted — the engine has effectively lost those upstreams.
func (e *Engine) breakerOutages() []string {
	subs := make(map[string]int)
	tripped := make(map[string]int)
	for _, sh := range e.shards {
		sh.mu.Lock()
		for _, sub := range sh.subs {
			if sub.removed {
				continue
			}
			subs[sub.ep.ref.Service]++
			if sub.brState != brClosed {
				tripped[sub.ep.ref.Service]++
			}
		}
		sh.mu.Unlock()
	}
	var out []string
	for svc, n := range subs {
		if n > 0 && tripped[svc] == n {
			out = append(out, svc)
		}
	}
	sort.Strings(out)
	return out
}

// Readiness builds the engine's readiness checks: "breakers" degrades
// when some service has every breaker open, "poll_budget" (only with
// admission enabled) when the budget has deferred every poll for
// DefaultBudgetStallWindow.
func (e *Engine) Readiness() *obs.Readiness {
	r := obs.NewReadiness()
	r.Add("breakers", func() (bool, string) {
		down := e.breakerOutages()
		if len(down) == 0 {
			return true, ""
		}
		return false, fmt.Sprintf("all circuit breakers open for: %s", strings.Join(down, ", "))
	})
	if adm := e.admission; adm != nil {
		r.Add("poll_budget", func() (bool, string) {
			stalled, streak := adm.stalled(e.clock.Now(), DefaultBudgetStallWindow)
			if !stalled {
				return true, ""
			}
			return false, fmt.Sprintf("poll budget fully deferring for %s (qps %g)",
				streak.Truncate(time.Second), adm.qps)
		})
	}
	return r
}
