package service

import (
	"fmt"
	"net/http"
	"sort"
	"strings"

	"repro/internal/httpx"
	"repro/internal/oauth"
	"repro/internal/proto"
)

// Handler returns the service's HTTP surface: the partner endpoints of
// internal/proto plus, when OAuth is configured, the authorization
// server's endpoints under /oauth2/.
func (s *Service) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET "+proto.StatusPath, s.handleStatus)
	mux.HandleFunc("POST "+proto.TestSetupPath, s.handleTestSetup)
	mux.HandleFunc("GET "+proto.UserInfoPath, s.handleUserInfo)
	mux.HandleFunc("POST "+proto.TriggersPath+"{slug}", s.handleTriggerPoll)
	mux.HandleFunc("DELETE "+proto.TriggersPath+"{slug}/trigger_identity/{identity}", s.handleTriggerDelete)
	mux.HandleFunc("POST "+proto.ActionsPath+"{slug}", s.handleAction)
	if s.oauth != nil {
		mux.Handle("/oauth2/", s.oauth.Handler())
	}
	return httpx.Chain(mux, httpx.RequestID, func(next http.Handler) http.Handler {
		return httpx.Recover(s.log, next)
	})
}

// checkServiceKey enforces the engine's shared secret.
func (s *Service) checkServiceKey(w http.ResponseWriter, r *http.Request) bool {
	if s.serviceKey == "" {
		return true
	}
	if r.Header.Get(proto.ServiceKeyHeader) != s.serviceKey {
		httpx.WriteError(w, http.StatusUnauthorized, "invalid service key")
		return false
	}
	return true
}

// checkScope validates the bearer token when OAuth is configured and the
// endpoint demands a scope. It returns the grant's user (zero when no
// OAuth is configured).
func (s *Service) checkScope(w http.ResponseWriter, r *http.Request, scope string) (oauth.Grant, bool) {
	if s.oauth == nil {
		return oauth.Grant{}, true
	}
	token, ok := oauth.BearerFrom(r)
	if !ok {
		httpx.WriteError(w, http.StatusUnauthorized, "missing bearer token")
		return oauth.Grant{}, false
	}
	grant, ok := s.oauth.Validate(token)
	if !ok {
		httpx.WriteError(w, http.StatusUnauthorized, "invalid or expired token")
		return oauth.Grant{}, false
	}
	if scope != "" && !grant.HasScope(scope) {
		httpx.WriteError(w, http.StatusForbidden, "token lacks scope "+scope)
		return oauth.Grant{}, false
	}
	return grant, true
}

func (s *Service) handleStatus(w http.ResponseWriter, r *http.Request) {
	if !s.checkServiceKey(w, r) {
		return
	}
	httpx.WriteJSON(w, http.StatusOK, proto.StatusResponse{OK: true})
}

func (s *Service) handleTestSetup(w http.ResponseWriter, r *http.Request) {
	if !s.checkServiceKey(w, r) {
		return
	}
	// The real endpoint returns sample trigger/action field values for
	// IFTTT's conformance tests; ours lists the registered slugs.
	s.mu.Lock()
	triggers := make([]string, 0, len(s.triggers))
	for slug := range s.triggers {
		triggers = append(triggers, slug)
	}
	actions := make([]string, 0, len(s.actions))
	for slug := range s.actions {
		actions = append(actions, slug)
	}
	s.mu.Unlock()
	sort.Strings(triggers)
	sort.Strings(actions)
	httpx.WriteJSON(w, http.StatusOK, map[string]any{
		"data": map[string]any{"triggers": triggers, "actions": actions},
	})
}

func (s *Service) handleUserInfo(w http.ResponseWriter, r *http.Request) {
	grant, ok := s.checkScope(w, r, "")
	if !ok {
		return
	}
	name := grant.UserID
	if name == "" {
		name = "anonymous"
	}
	httpx.WriteJSON(w, http.StatusOK, proto.UserInfoResponse{
		Data: proto.UserInfoData{Name: name, ID: name},
	})
}

func (s *Service) handleTriggerPoll(w http.ResponseWriter, r *http.Request) {
	if !s.checkServiceKey(w, r) {
		return
	}
	slug := r.PathValue("slug")

	s.mu.Lock()
	t, ok := s.triggers[slug]
	scope := ""
	if ok {
		scope = t.spec.Scope
	}
	s.mu.Unlock()
	if !ok {
		httpx.WriteError(w, http.StatusNotFound, "unknown trigger "+slug)
		return
	}
	if _, ok := s.checkScope(w, r, scope); !ok {
		return
	}

	var req proto.TriggerPollRequest
	if err := httpx.ReadJSON(r, &req); err != nil {
		httpx.WriteBodyError(w, err)
		return
	}
	if req.TriggerIdentity == "" {
		httpx.WriteError(w, http.StatusBadRequest, "trigger_identity required")
		return
	}

	// Pull-mode triggers compute fresh events at poll time. Run the
	// check outside the lock: it may touch the backing web app.
	var pulled []map[string]string
	if t.spec.Check != nil {
		pulled = t.spec.Check(req.TriggerIdentity, req.TriggerFields)
	}

	s.mu.Lock()
	sub, ok := t.subs[req.TriggerIdentity]
	if !ok {
		sub = &subscription{fields: req.TriggerFields}
		t.subs[req.TriggerIdentity] = sub
	}
	for _, ing := range pulled {
		s.appendEventLocked(sub, ing)
	}
	limit := req.EffectiveLimit()
	// Newest first, truncated at the limit (protocol requirement).
	n := len(sub.events)
	if limit > n {
		limit = n
	}
	out := make([]proto.TriggerEvent, 0, limit)
	for i := n - 1; i >= n-limit; i-- {
		out = append(out, sub.events[i])
	}
	s.stats.Polls++
	s.stats.EventsServed += int64(len(out))
	s.mu.Unlock()

	httpx.WriteJSON(w, http.StatusOK, proto.TriggerPollResponse{Data: out})
}

func (s *Service) handleTriggerDelete(w http.ResponseWriter, r *http.Request) {
	if !s.checkServiceKey(w, r) {
		return
	}
	slug := r.PathValue("slug")
	identity := r.PathValue("identity")
	s.mu.Lock()
	if t, ok := s.triggers[slug]; ok {
		delete(t.subs, identity)
	}
	s.mu.Unlock()
	w.WriteHeader(http.StatusOK)
}

func (s *Service) handleAction(w http.ResponseWriter, r *http.Request) {
	if !s.checkServiceKey(w, r) {
		return
	}
	slug := r.PathValue("slug")

	s.mu.Lock()
	spec, ok := s.actions[slug]
	s.mu.Unlock()
	if !ok {
		httpx.WriteError(w, http.StatusNotFound, "unknown action "+slug)
		return
	}
	if _, ok := s.checkScope(w, r, spec.Scope); !ok {
		return
	}

	var req proto.ActionRequest
	if err := httpx.ReadJSON(r, &req); err != nil {
		httpx.WriteBodyError(w, err)
		return
	}
	if err := spec.Execute(req.ActionFields, req.User); err != nil {
		httpx.WriteError(w, http.StatusServiceUnavailable, err.Error())
		return
	}
	s.mu.Lock()
	s.stats.Actions++
	s.seq++
	id := fmt.Sprintf("%s-act-%d", s.name, s.seq)
	s.mu.Unlock()
	httpx.WriteJSON(w, http.StatusOK, proto.ActionResponse{
		Data: []proto.ActionResult{{ID: id}},
	})
}

// FieldsMatchSubset is a ready-made Match function: every trigger field
// must equal the same-named ingredient. Triggers whose fields select a
// device ("which switch?") use it.
func FieldsMatchSubset(fields, ingredients map[string]string) bool {
	for k, want := range fields {
		if got, ok := ingredients[k]; !ok || !strings.EqualFold(got, want) {
			return false
		}
	}
	return true
}
