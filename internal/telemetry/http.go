package telemetry

import (
	"encoding/json"
	"net/http"
	"net/http/pprof"
	"sync"
)

// Handler returns the observability endpoint: one mux serving
//
//	/metrics          Prometheus text exposition of the default registry
//	/debug/telemetry  the JSON snapshot (the same shape Stats/-stats use)
//	/debug/pprof/...  the standard pprof index, profiles, and trace
//
// acc-serve (ROADMAP item 1) mounts this for its ops port; tests and
// ad-hoc debugging can http.ListenAndServe(addr, telemetry.Handler()).
// The handler is read-only and allocation happens per scrape, never on
// the instrumented hot paths.
func Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = std.WritePrometheus(w)
	})
	mux.HandleFunc("/debug/telemetry", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(struct {
			Snapshot
			Trace []TraceEvent `json:"trace,omitempty"`
		}{std.Snapshot(), TraceEvents()})
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// ServeHTTP serves the observability endpoint directly, so the package
// itself satisfies the shape callers expect from an http.Handler-style
// entry point: http.ListenAndServe(addr, http.HandlerFunc(telemetry.ServeHTTP)).
func ServeHTTP(w http.ResponseWriter, r *http.Request) {
	handlerOnce.Do(func() { handler = Handler() })
	handler.ServeHTTP(w, r)
}

var (
	handlerOnce sync.Once
	handler     http.Handler
)
