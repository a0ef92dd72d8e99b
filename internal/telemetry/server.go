package telemetry

import (
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"time"
)

// Handler returns the debug mux serving the hub:
//
//	/metrics          Prometheus text exposition of the Registry
//	/debug/pprof/*    the standard runtime profiles
//	/                 a plain-text index
func (t *Telemetry) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if err := t.Registry().WritePrometheus(w); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "realroots telemetry")
		fmt.Fprintln(w, "  /metrics          Prometheus exposition")
		fmt.Fprintln(w, "  /debug/pprof/     runtime profiles")
	})
	return mux
}

// Server is a running telemetry debug server.
type Server struct {
	ln  net.Listener
	srv *http.Server
}

// Serve starts the debug server on addr (host:port; port 0 picks an
// ephemeral port) and serves in a background goroutine until Close.
func (t *Telemetry) Serve(addr string) (*Server, error) {
	if t == nil {
		return nil, fmt.Errorf("telemetry: cannot serve a nil hub")
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("telemetry: %w", err)
	}
	s := &Server{
		ln: ln,
		srv: &http.Server{
			Handler:           t.Handler(),
			ReadHeaderTimeout: 5 * time.Second,
		},
	}
	go func() {
		// ErrServerClosed after Close is the expected shutdown path.
		_ = s.srv.Serve(ln)
	}()
	return s, nil
}

// Addr returns the server's bound address (useful with port 0).
func (s *Server) Addr() string {
	return s.ln.Addr().String()
}

// Close stops the server immediately.
func (s *Server) Close() error {
	return s.srv.Close()
}
