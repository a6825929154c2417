package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"strconv"
)

// The HTTP layer: a stdlib-only JSON API over the Service.
//
//	POST   /v1/screens            submit a ScreenRequest     -> 202 JobView
//	                              (Idempotency-Key header: resubmitting an
//	                              admitted key returns the original job, 200)
//	GET    /v1/screens            list jobs                  -> 200 [JobView]
//	GET    /v1/screens/{id}       job status + ranking       -> 200 JobView
//	                              (?limit=&offset= window the ranking;
//	                              no limit caps it at DefaultRankingLimit,
//	                              ranking_total reports the full length)
//	GET    /v1/screens/{id}/partial  completed-ligand ranking so far
//	                              -> 200 PartialView (same limit/offset
//	                              params); with ?after=<seq> a cursor page
//	                              instead: up to limit records completed
//	                              after seq, plus next and the incarnation
//	                              token (the distributed coordinator
//	                              streams shard merges from it)
//	GET    /v1/screens/{id}/trace Chrome-trace-format job timeline -> 200
//	                              (also served as GET /jobs/{id}/trace;
//	                              load the payload in Perfetto or
//	                              chrome://tracing)
//	DELETE /v1/screens/{id}       cancel                     -> 202 JobView
//	                              (also served as DELETE /jobs/{id})
//	GET    /healthz               liveness                   -> 200 Stats
//	GET    /readyz                readiness (journal replayed, pool up,
//	                              not draining) -> 200 / 503
//	GET    /metrics               Prometheus text exposition -> 200
//
// Errors are {"error": "..."} with ErrQueueFull / ErrDeadlineUnmeetable
// -> 429, ErrDraining / ErrBreakerOpen -> 503, ErrNotFound -> 404,
// ErrTerminal -> 409, bad requests -> 400. Overload rejections (ShedError)
// additionally carry a Retry-After header and a structured body with
// reason, retry_after_seconds, queue_depth and limit.

// EpochHeader carries the distributed coordinator's fencing epoch on
// shard requests. Workers echo it verbatim so the coordinator's client
// can verify a response answers the epoch it asked under — a stale or
// replayed response from before a worker was declared dead and revived
// fails the echo check and is never merged.
const EpochHeader = "X-Metascreen-Epoch"

// Handler returns the service's HTTP API.
func (s *Service) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/screens", s.handleSubmit)
	mux.HandleFunc("GET /v1/screens", s.handleList)
	mux.HandleFunc("GET /v1/screens/{id}", s.handleGet)
	mux.HandleFunc("GET /v1/screens/{id}/partial", s.handlePartial)
	mux.HandleFunc("GET /v1/screens/{id}/trace", s.handleTrace)
	mux.HandleFunc("GET /jobs/{id}/trace", s.handleTrace)
	mux.HandleFunc("DELETE /v1/screens/{id}", s.handleCancel)
	mux.HandleFunc("DELETE /jobs/{id}", s.handleCancel)
	mux.HandleFunc("GET /healthz", s.handleHealth)
	mux.HandleFunc("GET /readyz", s.handleReady)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	return echoEpoch(mux)
}

// echoEpoch reflects the coordinator's fencing epoch back on every
// response that carried one.
func echoEpoch(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if e := r.Header.Get(EpochHeader); e != "" {
			w.Header().Set(EpochHeader, e)
		}
		next.ServeHTTP(w, r)
	})
}

func (s *Service) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req ScreenRequest
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		WriteError(w, http.StatusBadRequest, err)
		return
	}
	if req.ClientID == "" {
		req.ClientID = r.Header.Get("X-Client-ID")
	}
	view, existing, err := s.SubmitIdem(req, r.Header.Get("Idempotency-Key"))
	if err != nil {
		WriteSubmitError(w, err)
		return
	}
	if existing {
		// A duplicate submission (client retry across a timeout or server
		// restart) maps onto the already-admitted job.
		WriteJSON(w, http.StatusOK, view)
		return
	}
	w.Header().Set("Location", "/v1/screens/"+view.ID)
	WriteJSON(w, http.StatusAccepted, view)
}

// WriteSubmitError answers a refused submission: the status submitStatus
// maps err to and, for a ShedError, its Retry-After header and structured
// body. The coordinator answers its own submissions through it too.
func WriteSubmitError(w http.ResponseWriter, err error) { WriteError(w, submitStatus(err), err) }

// submitStatus maps an admission error to its HTTP status: retryable
// backpressure is 429, outright unavailability 503, and a full or failing
// journal disk 507 (Insufficient Storage) — the client's request is fine,
// the server cannot durably accept it right now.
func submitStatus(err error) int {
	switch {
	case errors.Is(err, ErrQueueFull), errors.Is(err, ErrDeadlineUnmeetable):
		return http.StatusTooManyRequests
	case errors.Is(err, ErrDraining), errors.Is(err, ErrBreakerOpen):
		return http.StatusServiceUnavailable
	case errors.Is(err, ErrStorageFull):
		return http.StatusInsufficientStorage
	}
	return http.StatusBadRequest
}

func (s *Service) handleList(w http.ResponseWriter, r *http.Request) {
	WriteJSON(w, http.StatusOK, s.List())
}

func (s *Service) handleGet(w http.ResponseWriter, r *http.Request) {
	view, err := s.Get(r.PathValue("id"))
	if err != nil {
		WriteError(w, http.StatusNotFound, err)
		return
	}
	page, err := ParsePage(r.URL.Query())
	if err != nil {
		WriteError(w, http.StatusBadRequest, err)
		return
	}
	view.Result = view.Result.Paged(page)
	WriteJSON(w, http.StatusOK, view)
}

// handlePartial serves the ligands a job has completed so far — ranked,
// or as a cursor page when the request carries after=<seq>, which is how
// the coordinator streams shard merges. Terminal jobs serve their full
// set, so one polling loop covers a shard's whole lifecycle.
func (s *Service) handlePartial(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	page, err := ParsePage(q)
	if err != nil {
		WriteError(w, http.StatusBadRequest, err)
		return
	}
	var pv PartialView
	if v := q.Get("after"); v != "" {
		after, perr := strconv.Atoi(v)
		if perr != nil || after < 0 {
			WriteError(w, http.StatusBadRequest, fmt.Errorf("service: after %q must be a non-negative integer", v))
			return
		}
		pv, err = s.PartialAfter(r.PathValue("id"), after, page.Limit)
	} else {
		pv, err = s.Partial(r.PathValue("id"))
		pv.Paginate(page)
	}
	if err != nil {
		WriteError(w, http.StatusNotFound, err)
		return
	}
	WriteJSON(w, http.StatusOK, pv)
}

// handleTrace streams a job's timeline in Chrome trace format. The export
// is a point-in-time snapshot: tracing a running job returns the spans
// recorded so far.
func (s *Service) handleTrace(w http.ResponseWriter, r *http.Request) {
	rec, err := s.Trace(r.PathValue("id"))
	if err != nil {
		WriteError(w, http.StatusNotFound, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	rec.WriteChrome(w)
}

func (s *Service) handleCancel(w http.ResponseWriter, r *http.Request) {
	view, err := s.Cancel(r.PathValue("id"))
	switch {
	case errors.Is(err, ErrNotFound):
		WriteError(w, http.StatusNotFound, err)
	case errors.Is(err, ErrTerminal):
		WriteError(w, http.StatusConflict, err)
	default:
		WriteJSON(w, http.StatusAccepted, view)
	}
}

func (s *Service) handleHealth(w http.ResponseWriter, r *http.Request) {
	st := s.Stats()
	code := http.StatusOK
	if st.Draining {
		// Draining instances fail readiness so load balancers stop
		// routing to them while running jobs finish.
		code = http.StatusServiceUnavailable
	}
	WriteJSON(w, code, st)
}

// handleReady is the readiness probe: 200 once the journal is replayed
// and the worker pool is up, 503 before that and while draining. The
// coordinator and CI poll it instead of sleeping.
func (s *Service) handleReady(w http.ResponseWriter, r *http.Request) {
	ready := s.Ready()
	code := http.StatusOK
	if !ready {
		code = http.StatusServiceUnavailable
	}
	WriteJSON(w, code, map[string]any{
		"ready":    ready,
		"recovery": s.Recovery(),
	})
}

func (s *Service) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.metrics.WriteTo(w, s.Stats())
}

// WriteJSON writes v as an indented JSON body with the given status code;
// every role's HTTP handlers answer through it.
func WriteJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// WriteError writes err as a JSON {"error": ...} body. A *ShedError also
// sets Retry-After and adds the shed reason, retry hint and queue state.
func WriteError(w http.ResponseWriter, code int, err error) {
	var shed *ShedError
	if errors.As(err, &shed) {
		// Overload rejections tell the client when to come back and how
		// full the queue was, so backoff can be informed instead of blind.
		secs := int(math.Ceil(shed.RetryAfter.Seconds()))
		if secs < 1 {
			secs = 1
		}
		w.Header().Set("Retry-After", strconv.Itoa(secs))
		WriteJSON(w, code, map[string]any{
			"error":               err.Error(),
			"reason":              shed.Reason,
			"retry_after_seconds": secs,
			"queue_depth":         shed.QueueDepth,
			"limit":               shed.Limit,
		})
		return
	}
	WriteJSON(w, code, map[string]string{"error": err.Error()})
}
