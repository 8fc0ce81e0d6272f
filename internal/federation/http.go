package federation

import (
	"fmt"
	"net/http"

	"battsched/internal/experiments"
	"battsched/internal/service"
)

// Routes adds the worker registry to the front end's /v1 API:
//
//	GET  /v1/workers           the worker registry with liveness and leases
//	POST /v1/workers           register a worker {"url": "http://host:port"}
func (f *fleet) Routes(mux *http.ServeMux) {
	mux.HandleFunc("GET /v1/workers", func(w http.ResponseWriter, _ *http.Request) {
		service.WriteJSON(w, http.StatusOK, f.workerStatus())
	})
	mux.HandleFunc("POST /v1/workers", func(w http.ResponseWriter, r *http.Request) {
		var req struct {
			URL string `json:"url"`
		}
		if err := service.DecodeRequest(w, r, &req); err != nil || req.URL == "" {
			service.WriteError(w, fmt.Errorf("%w: registration needs {\"url\": \"http://host:port\"}", experiments.ErrBadConfig))
			return
		}
		f.addWorker(req.URL)
		service.WriteJSON(w, http.StatusOK, f.workerStatus())
	})
}
