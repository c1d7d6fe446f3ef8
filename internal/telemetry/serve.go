package telemetry

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"time"
)

// Live observability endpoint: one HTTP surface over the process's
// tracer + registry so a running trainer/server can be inspected without
// stopping it — /metrics for Prometheus scrapes, /trace for the merged
// cross-rank Chrome trace, /breakdown for the causal critical-path
// report, /debug/pprof/* for the Go profiler, and /healthz for liveness
// probes. The JUWELS Booster scaling work (arXiv:2108.11976) and MLPerf
// HPC both treat this live breakdown view as the primary scaling tool;
// this is the in-process equivalent.

// ServeConfig selects what the observability endpoint exposes. All
// fields are optional; unset surfaces return 404.
type ServeConfig struct {
	// Registry backs /metrics (Prometheus text format).
	Registry *Registry
	// Tracer backs /trace (merged Chrome trace JSON of all tracks).
	Tracer *Tracer
	// Breakdown, when set, backs /breakdown with a JSON critical-path
	// report. It is a callback (rather than a concrete type) so this
	// package need not import telemetry/causal; cmd drivers inject
	// causal.BreakdownJSON here.
	Breakdown func() ([]byte, error)
}

// Server is a started observability endpoint.
type Server struct {
	// Addr is the bound listen address (useful with ":0").
	Addr string

	srv *http.Server
	err chan error
}

// Serve starts the observability endpoint on addr ("host:port"; use
// ":0" for an ephemeral port, then read Server.Addr). It returns once
// the listener is bound; the HTTP loop runs in a background goroutine
// until Close.
func Serve(addr string, cfg ServeConfig) (*Server, error) {
	mux := http.NewServeMux()
	if cfg.Registry != nil {
		mux.Handle("/metrics", cfg.Registry.Handler())
	}
	if cfg.Tracer != nil {
		tr := cfg.Tracer
		mux.HandleFunc("/trace", func(w http.ResponseWriter, _ *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			_ = tr.WriteChromeTrace(w)
		})
	}
	if cfg.Breakdown != nil {
		bd := cfg.Breakdown
		mux.HandleFunc("/breakdown", func(w http.ResponseWriter, _ *http.Request) {
			body, err := bd()
			if err != nil {
				http.Error(w, err.Error(), http.StatusInternalServerError)
				return
			}
			w.Header().Set("Content-Type", "application/json")
			_, _ = w.Write(body)
		})
	}
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	// The default pprof handlers register on http.DefaultServeMux; mount
	// them explicitly so this private mux works and nothing leaks onto
	// the global one.
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)

	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("telemetry: serve %s: %w", addr, err)
	}
	s := &Server{
		Addr: ln.Addr().String(),
		srv:  &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second},
		err:  make(chan error, 1),
	}
	go func() { s.err <- s.srv.Serve(ln) }()
	return s, nil
}

// Close gracefully shuts the endpoint down, waiting up to 2s for
// in-flight requests.
func (s *Server) Close() error {
	if s == nil {
		return nil
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	err := s.srv.Shutdown(ctx)
	<-s.err // Serve always returns after Shutdown
	return err
}
