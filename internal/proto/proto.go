// Package proto defines the wire types of the IFTTT partner-service
// protocol as documented in the IFTTT API reference and as observed by
// the paper's testbed (§2.2): the engine polls a trigger URL with an
// HTTPS POST carrying the user's access token, the service key, and a
// random request ID; the trigger service answers with buffered trigger
// events (up to the requested limit, 50 by default); matched applets then
// cause the engine to POST to the action URL.
//
// Endpoint layout under a service's base URL:
//
//	GET    /ifttt/v1/status
//	POST   /ifttt/v1/test/setup
//	GET    /ifttt/v1/user/info
//	POST   /ifttt/v1/triggers/{trigger_slug}
//	DELETE /ifttt/v1/triggers/{trigger_slug}/trigger_identity/{id}
//	POST   /ifttt/v1/actions/{action_slug}
//
// And on the engine, for the realtime API:
//
//	POST   /v1/notifications
package proto

import "time"

// Header names used by the protocol.
const (
	// ServiceKeyHeader authenticates the engine to a partner service
	// (and a partner service to the realtime endpoint).
	ServiceKeyHeader = "IFTTT-Service-Key"
	// RequestIDHeader carries the engine's random per-poll request ID.
	RequestIDHeader = "X-Request-ID"
)

// DefaultLimit is the number of buffered trigger events a service returns
// when the poll does not specify a limit. The paper measured k=50 as the
// engine's default (§4, "Sequential Execution of Applets").
const DefaultLimit = 50

// TriggerPollRequest is the body of the engine's poll of a trigger URL.
type TriggerPollRequest struct {
	// TriggerIdentity uniquely identifies one applet's use of this
	// trigger (trigger + fields + user), letting the service keep one
	// event buffer per subscription.
	TriggerIdentity string `json:"trigger_identity"`
	// TriggerFields are the user-chosen parameters of the trigger.
	TriggerFields map[string]string `json:"triggerFields"`
	// Limit caps the number of returned events; nil means
	// DefaultLimit.
	Limit *int `json:"limit,omitempty"`
	// User describes the applet owner.
	User UserInfo `json:"user"`
	// Source identifies the calling engine and applet.
	Source Source `json:"ifttt_source"`
}

// EffectiveLimit resolves the optional limit to its protocol default.
func (r *TriggerPollRequest) EffectiveLimit() int {
	if r.Limit == nil {
		return DefaultLimit
	}
	if *r.Limit < 0 {
		return 0
	}
	return *r.Limit
}

// UserInfo identifies the applet owner in poll and action requests.
type UserInfo struct {
	ID       string `json:"id,omitempty"`
	Timezone string `json:"timezone,omitempty"`
}

// Source identifies the engine-side origin of a request.
type Source struct {
	ID  string `json:"id,omitempty"`  // applet ID
	URL string `json:"url,omitempty"` // applet URL
}

// EventMeta carries the event identity and time used for deduplication
// and ordering.
type EventMeta struct {
	ID        string `json:"id"`
	Timestamp int64  `json:"timestamp"` // unix seconds
	// TimestampNanos optionally carries the occurrence time at
	// nanosecond precision (unix nanoseconds). The real protocol's
	// "timestamp" is whole seconds, which floors any sub-second latency
	// measurement to zero; services that know the precise occurrence
	// time publish it here so push-path T2A can be measured below one
	// second. When zero, Timestamp alone is authoritative.
	TimestampNanos int64 `json:"timestamp_ns,omitempty"`
}

// Time resolves the event occurrence time, preferring the nanosecond
// field when present and falling back to the whole-second timestamp.
// The zero time.Time is returned when neither is set.
func (m EventMeta) Time() time.Time {
	if m.TimestampNanos > 0 {
		return time.Unix(0, m.TimestampNanos)
	}
	if m.Timestamp > 0 {
		return time.Unix(m.Timestamp, 0)
	}
	return time.Time{}
}

// TriggerEvent is one buffered occurrence of a trigger. On the wire its
// ingredients appear as top-level keys next to "meta", so the type
// implements custom JSON (de)serialization (encode.go, codec.go).
type TriggerEvent struct {
	// Ingredients are the trigger's output fields (e.g. lit light
	// name, email subject). Keys must not collide with "meta".
	Ingredients map[string]string
	Meta        EventMeta
}

// TriggerPollResponse is the service's answer to a poll: buffered events,
// newest first, truncated at the requested limit.
type TriggerPollResponse struct {
	Data []TriggerEvent `json:"data"`
}

// ActionRequest is the body of the engine's POST to an action URL.
type ActionRequest struct {
	ActionFields map[string]string `json:"actionFields"`
	User         UserInfo          `json:"user"`
	Source       Source            `json:"ifttt_source"`
}

// ActionResult acknowledges one executed action.
type ActionResult struct {
	ID string `json:"id"`
}

// ActionResponse is the service's acknowledgement of an action.
type ActionResponse struct {
	Data []ActionResult `json:"data"`
}

// RealtimeHint is one entry of a realtime notification: either a user or
// a specific trigger subscription has fresh events.
type RealtimeHint struct {
	UserID          string `json:"user_id,omitempty"`
	TriggerIdentity string `json:"trigger_identity,omitempty"`
}

// RealtimeNotification is the body a trigger service POSTs to the
// engine's realtime endpoint. Per the paper's finding (§4), the
// notification is only a hint: the engine still polls the service to
// fetch the events, and may ignore the hint entirely.
type RealtimeNotification struct {
	Data []RealtimeHint `json:"data"`
}

// PushDelivery carries fully-formed trigger events for one trigger
// identity from a partner service to the engine's push ingress. Unlike
// a RealtimeNotification it is not a hint: the events themselves ride
// in the body, so the engine can dispatch without a poll round-trip.
// Events are ordered oldest first (the opposite of the poll wire, which
// is newest first) so the engine applies them in occurrence order.
type PushDelivery struct {
	TriggerIdentity string         `json:"trigger_identity"`
	Events          []TriggerEvent `json:"events"`
}

// PushBatch is the body a trigger service POSTs to the engine's push
// ingress endpoint: one delivery per trigger identity with fresh
// events.
type PushBatch struct {
	Data []PushDelivery `json:"data"`
}

// PushResponse reports, in events, how much of a PushBatch the engine
// enqueued. Rejected counts events shed by ingress backpressure (the
// batch answers 429); the service keeps them buffered and the poll path
// reconciles. Unmatched counts events for identities with no installed
// subscription.
type PushResponse struct {
	Accepted  int `json:"accepted"`
	Rejected  int `json:"rejected"`
	Unmatched int `json:"unmatched"`
}

// StatusResponse answers the engine's health check.
type StatusResponse struct {
	OK bool `json:"ok"`
}

// UserInfoResponse answers GET /ifttt/v1/user/info.
type UserInfoResponse struct {
	Data UserInfoData `json:"data"`
}

// UserInfoData is the payload of UserInfoResponse.
type UserInfoData struct {
	Name string `json:"name"`
	ID   string `json:"id"`
}

// Paths of the partner-service endpoints relative to the base URL.
const (
	StatusPath    = "/ifttt/v1/status"
	TestSetupPath = "/ifttt/v1/test/setup"
	UserInfoPath  = "/ifttt/v1/user/info"
	TriggersPath  = "/ifttt/v1/triggers/"
	ActionsPath   = "/ifttt/v1/actions/"

	// RealtimePath is served by the engine host.
	RealtimePath = "/v1/notifications"

	// PushPath is the engine's push ingress: services with a push
	// delivery mode POST PushBatch bodies here instead of (or in
	// addition to) realtime hints.
	PushPath = "/v1/push"
)

// TriggerURL returns the poll URL for a trigger slug under baseURL.
func TriggerURL(baseURL, slug string) string { return baseURL + TriggersPath + slug }

// ActionURL returns the execution URL for an action slug under baseURL.
func ActionURL(baseURL, slug string) string { return baseURL + ActionsPath + slug }
