package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
)

// apiError is the JSON error body every non-2xx response carries.
type apiError struct {
	// Kind classifies the failure: "bad-job", "over-quota",
	// "not-found", "retired", "shutting-down", "internal",
	// "job-failed", "job-canceled", "not-done".
	Kind string
	// Error is the full message, including the legal values for
	// enumeration violations.
	Error string
}

func writeError(w http.ResponseWriter, code int, kind, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(apiError{Kind: kind, Error: msg})
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// Handler returns the daemon's HTTP API:
//
//	POST /v1/jobs              submit a job (?wait=1 blocks and returns the result body)
//	GET  /v1/jobs/{id}         job status (410 once the job is retired)
//	GET  /v1/jobs/{id}/result  canonical result bytes of a done job
//	GET  /v1/jobs/{id}/events  NDJSON progress event stream (follows until terminal)
//	POST /v1/jobs/{id}/cancel  cancel a queued or running job
//	GET  /v1/metrics           service counters and retention gauges (Prometheus text style; also at /metrics)
//	GET  /v1/healthz           liveness probe
func (d *Daemon) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", d.handleSubmit)
	mux.HandleFunc("GET /v1/jobs/{id}", d.handleStatus)
	mux.HandleFunc("GET /v1/jobs/{id}/result", d.handleResult)
	mux.HandleFunc("GET /v1/jobs/{id}/events", d.handleEvents)
	mux.HandleFunc("POST /v1/jobs/{id}/cancel", d.handleCancel)
	mux.HandleFunc("GET /v1/metrics", d.handleMetrics)
	mux.HandleFunc("GET /metrics", d.handleMetrics)
	mux.HandleFunc("GET /v1/healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"Status": "ok"})
	})
	return mux
}

func (d *Daemon) handleSubmit(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(io.LimitReader(r.Body, maxJobBytes+1))
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad-job", fmt.Sprintf("reading body: %v", err))
		return
	}
	job, err := DecodeJob(body)
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad-job", err.Error())
		return
	}
	js, err := d.submit(job)
	if err != nil {
		var qe *quotaError
		switch {
		case errors.As(err, &qe):
			writeError(w, http.StatusTooManyRequests, "over-quota", err.Error())
		case errors.Is(err, errBadJob):
			writeError(w, http.StatusBadRequest, "bad-job", err.Error())
		case errors.Is(err, errSchedClosed):
			writeError(w, http.StatusServiceUnavailable, "shutting-down", err.Error())
		default:
			writeError(w, http.StatusInternalServerError, "internal", err.Error())
		}
		return
	}
	if r.URL.Query().Get("wait") != "" {
		// Synchronous mode: block until terminal and respond exactly
		// like GET /v1/jobs/{id}/result — the one-curl path the CI
		// smoke test diffs against the golden corpus. The answer comes
		// from js itself: by the time it is written, later jobs may
		// have retired its ID.
		if st, err := js.wait(r.Context()); err != nil {
			writeError(w, http.StatusRequestTimeout, "internal",
				fmt.Sprintf("job %s: interrupted waiting for completion: %v", st.ID, err))
			return
		}
		writeResult(w, js)
		return
	}
	writeJSON(w, http.StatusAccepted, js.statusView())
}

// lookup finds the job named by the request path, or answers the
// lookup error.
func (d *Daemon) lookup(w http.ResponseWriter, r *http.Request) (*jobState, bool) {
	js, err := d.get(r.PathValue("id"))
	if err != nil {
		writeLookupError(w, err)
	}
	return js, err == nil
}

// writeLookupError answers a failed job lookup: 410 for a retired ID,
// 404 for one the daemon never issued.
func writeLookupError(w http.ResponseWriter, err error) {
	if errors.Is(err, errRetired) {
		writeError(w, http.StatusGone, "retired", err.Error())
		return
	}
	writeError(w, http.StatusNotFound, "not-found", err.Error())
}

func (d *Daemon) handleStatus(w http.ResponseWriter, r *http.Request) {
	if js, ok := d.lookup(w, r); ok {
		writeJSON(w, http.StatusOK, js.statusView())
	}
}

// writeResult responds with a terminal job's outcome: the canonical
// result bytes on success, the job's own error classification
// otherwise.
func writeResult(w http.ResponseWriter, js *jobState) {
	result, st := js.resultView()
	switch st.Status {
	case StatusDone:
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("X-Dmamem-Job", st.ID)
		w.Header().Set("X-Dmamem-Hash", st.Hash)
		if st.Cached {
			w.Header().Set("X-Dmamem-Cache", "hit")
		}
		w.WriteHeader(http.StatusOK)
		w.Write(result)
	case StatusFailed:
		writeError(w, http.StatusInternalServerError, "job-failed", st.Error)
	case StatusCanceled:
		writeError(w, http.StatusConflict, "job-canceled", fmt.Sprintf("job %s was canceled", st.ID))
	default:
		writeError(w, http.StatusConflict, "not-done", fmt.Sprintf("job %s is %s; poll status or use ?wait=1", st.ID, st.Status))
	}
}

func (d *Daemon) handleResult(w http.ResponseWriter, r *http.Request) {
	if js, ok := d.lookup(w, r); ok {
		writeResult(w, js)
	}
}

// handleEvents streams the job's progress events as NDJSON, following
// live until the job reaches a terminal state or the client leaves.
func (d *Daemon) handleEvents(w http.ResponseWriter, r *http.Request) {
	js, ok := d.lookup(w, r)
	if !ok {
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	for seq := 0; ; seq++ {
		ev, ok := js.waitEvent(r.Context(), seq)
		if !ok {
			return // client gone
		}
		if enc.Encode(ev) != nil {
			return
		}
		if flusher != nil {
			flusher.Flush()
		}
		if terminal(ev.State) {
			return
		}
	}
}

func (d *Daemon) handleCancel(w http.ResponseWriter, r *http.Request) {
	st, err := d.cancelJob(r.PathValue("id"))
	if err != nil {
		writeLookupError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, st)
}

// handleMetrics renders the monotonic counters, then the gauges of
// what the daemon holds (see Daemon.retained).
func (d *Daemon) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	io.WriteString(w, d.counters.Render("dmamem_"))
	jobs, resultBytes, cacheBytes := d.retained()
	fmt.Fprintf(w, "dmamem_retained_jobs %d\ndmamem_retained_result_bytes %d\ndmamem_cache_bytes %d\n",
		jobs, resultBytes, cacheBytes)
}
