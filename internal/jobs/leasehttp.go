package jobs

// HTTP face of the lease protocol, shared by flexray-serve (which
// wraps the handlers in its observability middleware and request
// guards) and by embedders like the perf-regression harness (which
// mount them on a bare mux via Register). The wire shapes live here so
// the Worker client and the coordinator always agree.
//
//	POST /v1/leases/claim               {"worker":w}
//	    200 ShardGrant | 204 no work
//	POST /v1/leases/{id}/renew          {"worker":w}
//	    200 {"expires_at":t}
//	POST /v1/leases/{id}/complete       {"worker":w,"records":[...]} or
//	                                    {"worker":w,"error":e}
//	    200 {"status":"ok"}
//	GET  /v1/leases
//	    200 LeaseList
//
// Error statuses mirror the manager's lease errors: 400 for malformed
// requests and payload mismatches, 404 for unknown leases, 409 for
// stale ones (expired, superseded or already completed — the job is
// still live), 410 once the lease died with its job, 413 for oversized
// bodies, 500 for store faults and 503 while shutting down.

import (
	"encoding/json"
	"errors"
	"net/http"
	"time"

	"repro/internal/campaign"
)

// leaseClaimRequest / leaseCompleteRequest / leaseRenewResponse are
// the wire bodies of the lease endpoints.
type leaseClaimRequest struct {
	Worker string `json:"worker"`
}

type leaseCompleteRequest struct {
	Worker  string            `json:"worker"`
	Records []campaign.Record `json:"records,omitempty"`
	Error   string            `json:"error,omitempty"`
}

type leaseRenewResponse struct {
	ExpiresAt time.Time `json:"expires_at"`
}

// LeaseAPI serves the /v1/leases endpoints over one manager.
type LeaseAPI struct {
	m *Manager
}

// NewLeaseAPI builds the HTTP face of m's lease table.
func NewLeaseAPI(m *Manager) *LeaseAPI { return &LeaseAPI{m: m} }

// Register mounts the lease endpoints on a bare mux (Go 1.22 method
// patterns, so wrong methods answer 405). flexray-serve registers the
// handlers itself to wrap them in its middleware.
func (a *LeaseAPI) Register(mux *http.ServeMux) {
	mux.HandleFunc("POST /v1/leases/claim", a.HandleClaim)
	mux.HandleFunc("POST /v1/leases/{id}/renew", a.HandleRenew)
	mux.HandleFunc("POST /v1/leases/{id}/complete", a.HandleComplete)
	mux.HandleFunc("GET /v1/leases", a.HandleList)
}

// HandleClaim answers POST /v1/leases/claim.
func (a *LeaseAPI) HandleClaim(w http.ResponseWriter, r *http.Request) {
	var req leaseClaimRequest
	if !a.decode(w, r, &req) {
		return
	}
	if req.Worker == "" {
		a.error(w, http.StatusBadRequest, `lease claim needs a "worker" id`)
		return
	}
	grant, err := a.m.ClaimLease(req.Worker)
	if err != nil {
		a.leaseError(w, err)
		return
	}
	if grant == nil {
		w.WriteHeader(http.StatusNoContent)
		return
	}
	a.json(w, http.StatusOK, grant)
}

// HandleRenew answers POST /v1/leases/{id}/renew.
func (a *LeaseAPI) HandleRenew(w http.ResponseWriter, r *http.Request) {
	var req leaseClaimRequest
	if !a.decode(w, r, &req) {
		return
	}
	if req.Worker == "" {
		a.error(w, http.StatusBadRequest, `lease renew needs a "worker" id`)
		return
	}
	expiry, err := a.m.RenewLease(r.PathValue("id"), req.Worker)
	if err != nil {
		a.leaseError(w, err)
		return
	}
	a.json(w, http.StatusOK, leaseRenewResponse{ExpiresAt: expiry})
}

// HandleComplete answers POST /v1/leases/{id}/complete.
func (a *LeaseAPI) HandleComplete(w http.ResponseWriter, r *http.Request) {
	var req leaseCompleteRequest
	if !a.decode(w, r, &req) {
		return
	}
	if req.Worker == "" {
		a.error(w, http.StatusBadRequest, `lease complete needs a "worker" id`)
		return
	}
	if err := a.m.CompleteLease(r.PathValue("id"), req.Worker, req.Records, req.Error); err != nil {
		a.leaseError(w, err)
		return
	}
	a.json(w, http.StatusOK, map[string]string{"status": "ok"})
}

// HandleList answers GET /v1/leases.
func (a *LeaseAPI) HandleList(w http.ResponseWriter, r *http.Request) {
	a.json(w, http.StatusOK, a.m.Leases())
}

// decode parses a JSON body, mapping one an outer
// http.MaxBytesReader cut off to 413.
func (a *LeaseAPI) decode(w http.ResponseWriter, r *http.Request, v any) bool {
	if err := json.NewDecoder(r.Body).Decode(v); err != nil {
		code := http.StatusBadRequest
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			code = http.StatusRequestEntityTooLarge
		}
		a.error(w, code, err.Error())
		return false
	}
	return true
}

// leaseStatus maps a manager lease error onto its HTTP status and
// stable error code.
func leaseStatus(err error) (int, string) {
	switch {
	case errors.Is(err, ErrLeasePayload):
		return http.StatusBadRequest, "lease_payload"
	case errors.Is(err, ErrLeaseNotFound):
		return http.StatusNotFound, "lease_not_found"
	case errors.Is(err, ErrLeaseStale):
		return http.StatusConflict, "lease_stale"
	case errors.Is(err, ErrLeaseGone):
		return http.StatusGone, "lease_gone"
	case errors.Is(err, ErrClosed):
		return http.StatusServiceUnavailable, "unavailable"
	}
	return http.StatusInternalServerError, "internal"
}

func (a *LeaseAPI) leaseError(w http.ResponseWriter, err error) {
	status, code := leaseStatus(err)
	a.errorCode(w, status, code, err.Error())
}

func (a *LeaseAPI) error(w http.ResponseWriter, code int, msg string) {
	ec := "invalid_request"
	if code == http.StatusRequestEntityTooLarge {
		ec = "too_large"
	}
	a.errorCode(w, code, ec, msg)
}

// errorCode writes the structured /v1 error envelope
// {"error": {"code", "message"}} the rest of the API speaks.
func (a *LeaseAPI) errorCode(w http.ResponseWriter, status int, code, msg string) {
	a.json(w, status, map[string]any{
		"error": map[string]string{"code": code, "message": msg},
	})
}

func (a *LeaseAPI) json(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	if err := json.NewEncoder(w).Encode(v); err != nil {
		a.m.opts.Logf("jobs: encoding lease response: %v", err)
	}
}
