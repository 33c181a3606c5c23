package devices

import (
	"fmt"
	"net/http"
	"sort"
	"strings"
	"sync"

	"repro/internal/httpx"
	"repro/internal/simtime"
)

// LampState is the controllable state of one Hue lamp, mirroring the
// fields of the Hue REST API's /lights/<id>/state resource.
type LampState struct {
	On     bool   `json:"on"`
	Bri    int    `json:"bri"`              // 1..254
	Hue    int    `json:"hue"`              // 0..65535
	Sat    int    `json:"sat"`              // 0..254
	Effect string `json:"effect,omitempty"` // "none" or "colorloop"
}

// HueHub simulates the Philips Hue bridge ❷ with its attached lamps ❶.
// Control flows through SetLampState (the Go surface the official
// service's proprietary path uses) or through the REST Handler (the
// Hue Web API the paper's local proxy uses). Every applied change emits
// an Event on the hub's Bus.
type HueHub struct {
	Bus
	clock simtime.Clock

	mu    sync.Mutex
	lamps map[string]*LampState
}

// NewHueHub creates a hub with the named lamps, all off.
func NewHueHub(clock simtime.Clock, lampIDs ...string) *HueHub {
	h := &HueHub{clock: clock, lamps: make(map[string]*LampState)}
	for _, id := range lampIDs {
		h.lamps[id] = &LampState{Bri: 254, Effect: "none"}
	}
	return h
}

// Lamps lists lamp IDs in sorted order.
func (h *HueHub) Lamps() []string {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make([]string, 0, len(h.lamps))
	for id := range h.lamps {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// LampState returns a copy of one lamp's state.
func (h *HueHub) LampState(id string) (LampState, bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	s, ok := h.lamps[id]
	if !ok {
		return LampState{}, false
	}
	return *s, true
}

// StateChange is a partial update; nil fields are left unchanged,
// matching the PUT semantics of the Hue API.
type StateChange struct {
	On     *bool   `json:"on,omitempty"`
	Bri    *int    `json:"bri,omitempty"`
	Hue    *int    `json:"hue,omitempty"`
	Sat    *int    `json:"sat,omitempty"`
	Effect *string `json:"effect,omitempty"`
}

// SetLampState applies a partial update and emits a state event.
func (h *HueHub) SetLampState(id string, change StateChange) error {
	h.mu.Lock()
	s, ok := h.lamps[id]
	if !ok {
		h.mu.Unlock()
		return fmt.Errorf("hue: unknown lamp %q", id)
	}
	if change.On != nil {
		s.On = *change.On
	}
	if change.Bri != nil {
		s.Bri = clampInt(*change.Bri, 1, 254)
	}
	if change.Hue != nil {
		s.Hue = clampInt(*change.Hue, 0, 65535)
	}
	if change.Sat != nil {
		s.Sat = clampInt(*change.Sat, 0, 254)
	}
	if change.Effect != nil {
		s.Effect = *change.Effect
	}
	now := *s
	h.mu.Unlock()

	typ := "light_changed"
	if change.On != nil {
		if *change.On {
			typ = "light_on"
		} else {
			typ = "light_off"
		}
	}
	h.publish(stamped(h.clock, Event{
		Device: "hue-" + id,
		Type:   typ,
		Attrs: map[string]string{
			"lamp":   id,
			"on":     fmt.Sprint(now.On),
			"bri":    fmt.Sprint(now.Bri),
			"hue":    fmt.Sprint(now.Hue),
			"sat":    fmt.Sprint(now.Sat),
			"effect": now.Effect,
		},
	}))
	return nil
}

// Blink toggles a lamp off-on to implement the "blink lights" action.
func (h *HueHub) Blink(id string) error {
	off, on := false, true
	if err := h.SetLampState(id, StateChange{On: &off}); err != nil {
		return err
	}
	return h.SetLampState(id, StateChange{On: &on})
}

func clampInt(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// Handler exposes the hub's REST Web API, the protocol the paper's local
// proxy speaks to the hub:
//
//	GET /api/{user}/lights            → map of lamp states
//	GET /api/{user}/lights/{id}       → one lamp state
//	PUT /api/{user}/lights/{id}/state → partial update
//
// Authentication is the Hue-style whitelisted username path segment; any
// non-empty user is accepted (pairing is out of scope).
func (h *HueHub) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /api/{user}/lights", func(w http.ResponseWriter, r *http.Request) {
		h.mu.Lock()
		out := make(map[string]LampState, len(h.lamps))
		for id, s := range h.lamps {
			out[id] = *s
		}
		h.mu.Unlock()
		httpx.WriteJSON(w, http.StatusOK, out)
	})
	mux.HandleFunc("GET /api/{user}/lights/{id}", func(w http.ResponseWriter, r *http.Request) {
		s, ok := h.LampState(r.PathValue("id"))
		if !ok {
			httpx.WriteError(w, http.StatusNotFound, "no such lamp")
			return
		}
		httpx.WriteJSON(w, http.StatusOK, s)
	})
	mux.HandleFunc("PUT /api/{user}/lights/{id}/state", func(w http.ResponseWriter, r *http.Request) {
		if strings.TrimSpace(r.PathValue("user")) == "" {
			httpx.WriteError(w, http.StatusForbidden, "unauthorized user")
			return
		}
		var change StateChange
		if err := httpx.ReadJSON(r, &change); err != nil {
			httpx.WriteBodyError(w, err)
			return
		}
		if err := h.SetLampState(r.PathValue("id"), change); err != nil {
			httpx.WriteError(w, http.StatusNotFound, err.Error())
			return
		}
		httpx.WriteJSON(w, http.StatusOK, []map[string]string{{"success": "state updated"}})
	})
	return mux
}
