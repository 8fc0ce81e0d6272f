package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"strconv"

	"battsched/internal/battery"
	"battsched/internal/experiments"
	"battsched/internal/obs"
)

// maxRequestBody bounds POST payloads; a JobRequest is a few hundred bytes.
const maxRequestBody = 1 << 20

// Handler returns the front end's HTTP API, plus the executor's own routes
// (the coordinator's /v1/workers):
//
//	POST /v1/jobs              submit {experiment, spec, shards}; 200 when
//	                           served from cache, 202 when queued
//	GET  /v1/jobs/{id}         job state and per-shard progress
//	GET  /v1/jobs/{id}/report  the versioned JSON report artifact
//	                           (?format=table renders the plain-text tables)
//	GET  /v1/experiments       the experiment registry
//	GET  /v1/batteries         the battery model registry
//	GET  /healthz              queue depth, in-flight units, cache stats
//	GET  /metrics              the metrics registry in Prometheus text format
//
// POST /v1/jobs reads the X-Trace-Id header into the submission's trace id
// (see obs.TraceHeader); JobStatus echoes it as trace_id.
//
// Errors are JSON {"error": ...} with 400 (bad request/spec), 404 (unknown
// job), 409 (report of an unfinished job), 429 (queue full, with a
// Retry-After header estimating when capacity frees up), 503 (daemon
// draining; /healthz also turns 503 then) or 500.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleJob)
	mux.HandleFunc("GET /v1/jobs/{id}/report", s.handleReport)
	mux.HandleFunc("GET /v1/experiments", s.handleExperiments)
	mux.HandleFunc("GET /v1/batteries", s.handleBatteries)
	mux.HandleFunc("GET /healthz", s.handleHealth)
	mux.Handle("GET /metrics", s.metrics.Handler())
	s.exec.Routes(mux)
	return mux
}

// WriteJSON writes v with the given status.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// WriteError maps service errors onto HTTP statuses.
func WriteError(w http.ResponseWriter, err error) {
	status := http.StatusInternalServerError
	switch {
	case errors.Is(err, ErrQueueFull):
		status = http.StatusTooManyRequests
		var qf *queueFullError
		if errors.As(err, &qf) {
			// Retry-After is whole seconds (RFC 9110), rounded up so a
			// sub-second estimate still tells the client to back off.
			secs := int(math.Ceil(qf.retryAfter.Seconds()))
			w.Header().Set("Retry-After", strconv.Itoa(secs))
		}
	case errors.Is(err, ErrDraining):
		status = http.StatusServiceUnavailable
		// A draining daemon is gone for good (its replacement answers after
		// restart), so the hint is a short fixed pause: long enough to ride
		// out a rolling restart, short enough not to stall clients that will
		// fail over instead.
		w.Header().Set("Retry-After", "1")
	case errors.Is(err, ErrUnknownJob):
		status = http.StatusNotFound
	case errors.Is(err, ErrJobNotFinished):
		status = http.StatusConflict
	case errors.Is(err, experiments.ErrBadConfig):
		status = http.StatusBadRequest
	}
	WriteJSON(w, status, apiError{Error: err.Error()})
}

// DecodeRequest decodes a bounded JSON request body into v. Unknown fields
// are rejected so a typo'd key fails loudly instead of silently running the
// default configuration.
func DecodeRequest(w http.ResponseWriter, r *http.Request, v any) error {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRequestBody))
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req JobRequest
	if err := DecodeRequest(w, r, &req); err != nil {
		WriteJSON(w, http.StatusBadRequest, apiError{Error: fmt.Sprintf("decoding job request: %v", err)})
		return
	}
	req.TraceID = obs.TraceFromRequest(r)
	st, err := s.Submit(req)
	if err != nil {
		WriteError(w, err)
		return
	}
	status := http.StatusAccepted
	if st.State == StateDone {
		status = http.StatusOK // served from cache
	}
	WriteJSON(w, status, st)
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	st, err := s.Job(r.PathValue("id"))
	if err != nil {
		WriteError(w, err)
		return
	}
	WriteJSON(w, http.StatusOK, st)
}

func (s *Server) handleReport(w http.ResponseWriter, r *http.Request) {
	artifact, err := s.Artifact(r.PathValue("id"))
	if err != nil {
		WriteError(w, err)
		return
	}
	if r.URL.Query().Get("format") == "table" {
		reports, err := experiments.ReadArtifact(bytes.NewReader(artifact))
		if err != nil {
			WriteError(w, err)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		for _, rep := range reports {
			text, err := experiments.FormatReport(rep)
			if err != nil {
				WriteError(w, err)
				return
			}
			fmt.Fprint(w, text)
		}
		return
	}
	// The artifact bytes are served verbatim — byte-identical to the local
	// `cmd/experiments run -o` file, which is the service's correctness
	// contract.
	w.Header().Set("Content-Type", "application/json")
	_, _ = w.Write(artifact)
}

func (s *Server) handleExperiments(w http.ResponseWriter, _ *http.Request) {
	var infos []ExperimentInfo
	for _, name := range experiments.Names() {
		d, err := experiments.Lookup(name)
		if err != nil {
			WriteError(w, err)
			return
		}
		infos = append(infos, ExperimentInfo{
			Name:      d.Name,
			Title:     d.Title,
			Paper:     d.Paper,
			Shardable: d.Shardable,
		})
	}
	WriteJSON(w, http.StatusOK, infos)
}

func (s *Server) handleBatteries(w http.ResponseWriter, _ *http.Request) {
	WriteJSON(w, http.StatusOK, battery.Names())
}

func (s *Server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	h := s.Health()
	status := http.StatusOK
	if h.Status != "ok" {
		// A draining daemon is not healthy to route to; the body still
		// carries the full snapshot for operators.
		status = http.StatusServiceUnavailable
	}
	WriteJSON(w, status, h)
}
