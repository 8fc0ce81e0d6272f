package service_test

import (
	"bytes"
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"testing"

	"battsched/internal/experiments"
	"battsched/internal/service"
)

// FuzzJobRequest POSTs raw bytes to the /v1/jobs handler the worker daemon
// and the federation coordinator share. No input may panic the front end or
// surface as a 500: every body is either admitted (200/202), rejected as a
// bad request (400), or turned away by backpressure (429/503). Every unit
// fails in the fault hook, so no experiment runs however large the spec.
// The seed corpus lives in testdata/fuzz/FuzzJobRequest.
func FuzzJobRequest(f *testing.F) {
	errNoRun := errors.New("fuzzing: units do not run")
	srv, err := service.New(service.Config{
		Workers: 1, QueueCapacity: 4, MaxJobs: 16,
		FaultHook: func(context.Context, string, experiments.Shard) error { return errNoRun },
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(srv.Close)
	h := srv.Handler()
	f.Fuzz(func(t *testing.T, body []byte) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/jobs", bytes.NewReader(body)))
		switch rec.Code {
		case http.StatusOK, http.StatusAccepted, http.StatusBadRequest,
			http.StatusTooManyRequests, http.StatusServiceUnavailable:
		default:
			t.Fatalf("POST /v1/jobs %q = %d: %s", body, rec.Code, rec.Body)
		}
	})
}
