package server

import (
	"fmt"
	"html/template"
	"io"
	"net/http"
	"strconv"
	"strings"
)

// rootd's debug views: /debug/requests, /debug/traces[/<seq>] and
// /debug/tenants, each HTML by default and JSON with ?format=json, plus
// the plain-text index at /. /metrics and /debug/pprof/ are the
// telemetry hub's.

// serveView writes a view's dump as indented JSON when the query asks
// for it, else renders it through tmpl.
func serveView(w http.ResponseWriter, r *http.Request, tmpl *template.Template, dump any) {
	if r.URL.Query().Get("format") == "json" {
		writeJSON(w, http.StatusOK, dump)
		return
	}
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	// Template errors on a valid dump are impossible; a broken write is
	// the client hanging up, which the server already handles.
	_ = tmpl.Execute(w, dump)
}

// handleTrace serves /debug/traces/<seq>: one retained trace's Chrome
// trace-event JSON as a download.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	seq, err := strconv.ParseUint(strings.TrimPrefix(r.URL.Path, "/debug/traces/"), 10, 64)
	if err != nil {
		http.Error(w, "bad trace sequence number", http.StatusBadRequest)
		return
	}
	rt := s.traces.get(seq)
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
}

// handleIndex serves the plain-text index of rootd's debug endpoints.
func handleIndex(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" {
		http.NotFound(w, r)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	io.WriteString(w, `realroots telemetry
  /metrics          Prometheus exposition
  /debug/requests   live request inspector (?format=json)
  /debug/traces     tail-sampled trace store (?format=json; /<seq> downloads Chrome JSON)
  /debug/tenants    per-tenant usage ledger (?format=json)
  /debug/pprof/     runtime profiles
`)
}

// viewFuncs format the views' numbers.
var viewFuncs = template.FuncMap{
	"secs": func(v float64) string {
		switch {
		case v == 0:
			return "-"
		case v < 0.001:
			return fmt.Sprintf("%.0fµs", v*1e6)
		case v < 1:
			return fmt.Sprintf("%.1fms", v*1e3)
		default:
			return fmt.Sprintf("%.3fs", v)
		}
	},
	"ratio": func(v float64) string {
		if v == 0 {
			return "-"
		}
		return fmt.Sprintf("%.3f", v)
	},
	"pct": func(v float64) string { return fmt.Sprintf("%.0f%%", v*100) },
}

// viewStyle is the stylesheet the three views share, so they read as
// one surface.
const viewStyle = `<style>
body { font-family: sans-serif; font-size: 13px; }
table { border-collapse: collapse; margin-bottom: 1.5em; }
th, td { border: 1px solid #ccc; padding: 2px 8px; text-align: right; }
th { background: #eee; }
td.s { text-align: left; font-family: monospace; }
.err { color: #b00; }
</style>`

// requestsTmpl renders /debug/requests in the spirit of
// golang.org/x/net/trace: a compact table of in-flight requests
// followed by the most recently finished ones, newest first. Every
// row carries the numbers needed to debug a slow request in place —
// where the time went (queue vs solve), how the cost model fared
// (estimated vs measured bit-ops), and how large the arithmetic grew.
var requestsTmpl = template.Must(template.New("requests").Funcs(viewFuncs).Parse(`<!DOCTYPE html>
<html><head><title>/debug/requests</title>` + viewStyle + `</head><body>
<h1>rootd requests</h1>
<p>{{len .Active}} active, {{len .Recent}} recent of {{.Total}} total (ring capacity {{.Capacity}}).
Cost ratio is measured/estimated bit-ops under the paper&#39;s schoolbook model.
<a href="?format=json">JSON</a></p>
{{define "rows"}}{{range .}}<tr>
<td class=s>{{.ID}}</td><td class=s>{{.Tenant}}</td><td class=s>{{.Kind}}</td>
<td>{{.Degree}}</td><td>{{.Mu}}</td><td class=s>{{.Method}}</td><td class=s>{{.Profile}}</td>
<td class=s>{{if .CacheOutcome}}{{.CacheOutcome}}{{else}}-{{end}}</td>
<td>{{.EstimatedBitOps}}</td><td>{{.ActualBitOps}}</td><td>{{ratio .CostRatio}}</td>
<td>{{.PeakOperandBits}}</td>
<td>{{secs .QueueWaitSecs}}</td><td>{{secs .SolveSecs}}</td><td>{{secs .TotalSecs}}</td>
<td class=s>{{if .Active}}{{.Phase}}{{else if eq .Outcome "ok"}}ok{{else}}<span class=err>{{.Outcome}}</span>{{end}}</td>
</tr>{{end}}{{end}}
<h2>Active</h2>
{{if .Active}}<table><tr><th>request</th><th>tenant</th><th>kind</th><th>deg</th><th>µ</th><th>method</th><th>profile</th><th>cache</th><th>est bit-ops</th><th>bit-ops</th><th>ratio</th><th>peak bits</th><th>queue</th><th>solve</th><th>total</th><th>phase</th></tr>
{{template "rows" .Active}}</table>{{else}}<p>none</p>{{end}}
<h2>Recent (newest first)</h2>
{{if .Recent}}<table><tr><th>request</th><th>tenant</th><th>kind</th><th>deg</th><th>µ</th><th>method</th><th>profile</th><th>cache</th><th>est bit-ops</th><th>bit-ops</th><th>ratio</th><th>peak bits</th><th>queue</th><th>solve</th><th>total</th><th>outcome</th></tr>
{{template "rows" .Recent}}</table>{{else}}<p>none</p>{{end}}
</body></html>
`))

// tracesTmpl renders the /debug/traces index: retention stats, then
// one row per retained trace newest first, each linking its Chrome
// export download.
var tracesTmpl = template.Must(template.New("traces").Funcs(viewFuncs).Parse(`<!DOCTYPE html>
<html><head><title>/debug/traces</title>` + viewStyle + `</head><body>
<h1>rootd tail-sampled traces</h1>
<p>{{len .Traces}} retained in a ring of {{.Capacity}} ({{.Retained}} kept of {{.Seen}} solves seen, {{.Evicted}} evicted).
Retention reasons: {{range $k, $v := .ByReason}}{{$k}}={{$v}} {{end}}
<a href="?format=json">JSON</a></p>
{{if .Traces}}<table>
<tr><th>seq</th><th>request</th><th>tenant</th><th>outcome</th><th>reason</th><th>start</th><th>wall</th><th>workers</th><th>efficiency</th><th>serial</th><th>spans</th><th>dropped</th><th>export</th></tr>
{{range .Traces}}<tr>
<td>{{.Seq}}</td><td class=s>{{.RequestID}}</td><td class=s>{{.Tenant}}</td>
<td class=s>{{if eq .Outcome "ok"}}ok{{else}}<span class=err>{{.Outcome}}</span>{{end}}</td>
<td class=s>{{.Reason}}</td>
<td class=s>{{.Start.Format "15:04:05.000"}}</td>
<td>{{secs .WallSeconds}}</td><td>{{.Workers}}</td>
<td>{{if .Workers}}{{pct .Efficiency}}{{else}}-{{end}}</td><td>{{pct .SerialFraction}}</td>
<td>{{.Spans}}</td><td>{{.DroppedSpans}}</td>
<td class=s><a href="/debug/traces/{{.Seq}}">chrome json</a></td>
</tr>{{end}}</table>{{else}}<p>none retained yet</p>{{end}}
</body></html>
`))

// tenantsTmpl renders the /debug/tenants ledger: one row per tenant,
// sorted by ID, with the integral usage counters the "why is this
// tenant slow?" runbook starts from.
var tenantsTmpl = template.Must(template.New("tenants").Parse(`<!DOCTYPE html>
<html><head><title>/debug/tenants</title>` + viewStyle + `</head><body>
<h1>rootd tenant usage</h1>
<p>{{len .Tenants}} tenants (ledger cap {{.MaxTenants}}; overflow folds into &quot;other&quot;, anonymous requests into &quot;anonymous&quot;).
<a href="?format=json">JSON</a></p>
{{if .Tenants}}<table>
<tr><th>tenant</th><th>requests</th><th>solves</th><th>solve s</th><th>bit-ops</th><th>cache hits</th><th>rejections</th><th>errors</th><th>retained traces</th></tr>
{{range .Tenants}}<tr>
<td class=s>{{.Tenant}}</td><td>{{.Requests}}</td><td>{{.Solves}}</td>
<td>{{printf "%.3f" .SolveSeconds}}</td><td>{{.BitOps}}</td><td>{{.CacheHits}}</td>
<td>{{.Rejections}}</td><td>{{.Errors}}</td><td>{{.RetainedTraces}}</td>
</tr>{{end}}</table>{{else}}<p>none yet</p>{{end}}
</body></html>
`))
