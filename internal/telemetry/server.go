package telemetry

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"strconv"
	"strings"
	"time"
)

// Handler returns the debug mux serving the hub:
//
//	/metrics          Prometheus text exposition of the Registry
//	/debug/requests   live request inspector (HTML; ?format=json for the dump)
//	/debug/traces     tail-sampled trace store (HTML; ?format=json; /<seq> for Chrome JSON)
//	/debug/tenants    per-tenant usage ledger (HTML; ?format=json)
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
	mux.HandleFunc("/debug/requests", func(w http.ResponseWriter, r *http.Request) {
		dump := t.Requests().Dump()
		if r.URL.Query().Get("format") == "json" {
			w.Header().Set("Content-Type", "application/json")
			enc := json.NewEncoder(w)
			enc.SetIndent("", "  ")
			if err := enc.Encode(dump); err != nil {
				http.Error(w, err.Error(), http.StatusInternalServerError)
			}
			return
		}
		w.Header().Set("Content-Type", "text/html; charset=utf-8")
		writeRequestsHTML(w, dump)
	})
	mux.HandleFunc("/debug/traces", func(w http.ResponseWriter, r *http.Request) {
		dump := t.Traces().Dump()
		if r.URL.Query().Get("format") == "json" {
			w.Header().Set("Content-Type", "application/json")
			enc := json.NewEncoder(w)
			enc.SetIndent("", "  ")
			if err := enc.Encode(dump); err != nil {
				http.Error(w, err.Error(), http.StatusInternalServerError)
			}
			return
		}
		w.Header().Set("Content-Type", "text/html; charset=utf-8")
		writeTracesHTML(w, dump)
	})
	mux.HandleFunc("/debug/traces/", func(w http.ResponseWriter, r *http.Request) {
		seq, err := strconv.ParseUint(strings.TrimPrefix(r.URL.Path, "/debug/traces/"), 10, 64)
		if err != nil {
			http.Error(w, "bad trace sequence number", http.StatusBadRequest)
			return
		}
		rt := t.Traces().Get(seq)
		if rt == nil {
			http.Error(w, "trace not retained (or evicted)", http.StatusNotFound)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("Content-Disposition",
			fmt.Sprintf("attachment; filename=%q", fmt.Sprintf("trace-%d.json", seq)))
		if err := rt.WriteChrome(w); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	mux.HandleFunc("/debug/tenants", func(w http.ResponseWriter, r *http.Request) {
		dump := t.Tenants().Dump()
		if r.URL.Query().Get("format") == "json" {
			w.Header().Set("Content-Type", "application/json")
			enc := json.NewEncoder(w)
			enc.SetIndent("", "  ")
			if err := enc.Encode(dump); err != nil {
				http.Error(w, err.Error(), http.StatusInternalServerError)
			}
			return
		}
		w.Header().Set("Content-Type", "text/html; charset=utf-8")
		writeTenantsHTML(w, dump)
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
		fmt.Fprintln(w, "  /debug/requests   live request inspector (?format=json)")
		fmt.Fprintln(w, "  /debug/traces     tail-sampled trace store (?format=json; /<seq> downloads Chrome JSON)")
		fmt.Fprintln(w, "  /debug/tenants    per-tenant usage ledger (?format=json)")
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
