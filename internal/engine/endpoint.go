package engine

import (
	"net/http"

	"repro/internal/httpx"
	"repro/internal/proto"
)

// endpoint is one trigger or action of a partner service: what the
// requests of every applet using it share. Endpoints are interned
// engine-wide — a handful per partner service — so a subscription or an
// applet holds a pointer, not strings, a parsed URL and a header map.
type endpoint struct {
	// ref has Service, BaseURL, Slug and ServiceKey; Fields and UserToken
	// are per applet and stay empty.
	ref ServiceRef
	// req is what polls and actions alike are sent through.
	req *httpx.Endpoint
	// del is a trigger endpoint's DELETE of one subscription, sent to
	// the trigger URL + "/trigger_identity/" + the subscription's key; nil
	// for an action endpoint.
	del *httpx.Endpoint
}

type endpointKey struct {
	action                             bool
	service, baseURL, slug, serviceKey string
}

// maxEndpoints bounds the intern table; past it an endpoint is built for
// the applet that asked and collected with it.
const maxEndpoints = 4096

// Header values every partner request carries; read-only.
var (
	serviceKeyHeader = http.CanonicalHeaderKey(proto.ServiceKeyHeader)
	jsonContentType  = []string{"application/json; charset=utf-8"}
	acceptJSON       = []string{"application/json"}
)

// endpointFor interns the trigger (or action) endpoint ref points at. A
// base URL that does not parse is reported here, once per endpoint;
// requests to it then fail like any other transport error.
func (e *Engine) endpointFor(ref *ServiceRef, action bool) *endpoint {
	k := endpointKey{action, ref.Service, ref.BaseURL, ref.Slug, ref.ServiceKey}
	e.epMu.Lock()
	defer e.epMu.Unlock()
	if ep := e.endpoints[k]; ep != nil {
		return ep
	}
	raw := proto.TriggerURL(ref.BaseURL, ref.Slug)
	if action {
		raw = proto.ActionURL(ref.BaseURL, ref.Slug)
	}
	key := []string{ref.ServiceKey}
	ep := &endpoint{
		ref: ServiceRef{Service: ref.Service, BaseURL: ref.BaseURL, Slug: ref.Slug, ServiceKey: ref.ServiceKey},
		req: httpx.NewEndpoint("POST", raw, http.Header{
			"Content-Type":   jsonContentType,
			"Accept":         acceptJSON,
			serviceKeyHeader: key,
		}),
	}
	if !action {
		ep.del = httpx.NewEndpoint("DELETE", raw+"/trigger_identity/", http.Header{
			"Accept":         acceptJSON,
			serviceKeyHeader: key,
		})
	}
	if err := ep.req.Err(); err != nil && e.log != nil {
		e.log.Warn("endpoint URL does not parse, requests to it will fail", "url", raw, "err", err)
	}
	if len(e.endpoints) < maxEndpoints {
		e.endpoints[k] = ep
	}
	return ep
}

// serviceRef is the public reference of one applet's use of the endpoint.
func (ep *endpoint) serviceRef(fields map[string]string, userToken string) ServiceRef {
	ref := ep.ref
	ref.Fields, ref.UserToken = fields, userToken
	return ref
}
