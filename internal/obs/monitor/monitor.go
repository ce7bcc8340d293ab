// Package monitor is Kindle's live-telemetry endpoint: an optional HTTP
// server that makes a running simulation observable while it is in flight,
// instead of only through post-mortem stats files and trace exports.
//
//	/metrics   Prometheus text exposition of every sim.Stats counter and
//	           log2 histogram (names 1:1 with the stats dump, modulo
//	           Prometheus name sanitization) plus process/host gauges.
//	/events    Server-sent events: interval-stats delta blocks and obs
//	           trace events, fanned out through bounded per-subscriber
//	           queues that drop-and-count rather than block the run.
//	/progress  JSON progress/ETA for the current run or bench grid.
//	/debug/pprof/  net/http/pprof, on the same mux.
//
// The monitor never pauses the simulation. A scrape holds the registry's
// lock only while it walks the registered names (sim.Stats.Registered),
// a lock the simulation takes only to register a stat, and reads counter
// and histogram values through sim's snapshot API (atomic loads of live
// cells). A mid-run scrape therefore observes values that are a few
// machine instructions stale and mutually skewed by the scrape's own
// duration — the standard contract for live monitoring counters (cf.
// /proc), not for the byte-exact end-of-run stats files, which are
// unaffected. With the monitor disabled nothing here runs: no goroutines,
// no extra atomics, no hot-path cost.
package monitor

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"strconv"
	"time"

	"kindle/internal/obs"
	"kindle/internal/sim"
)

// Options selects what the monitor serves. Every field is optional; an
// endpoint whose source is missing answers 404.
type Options struct {
	// Stats is the simulation's registry, exported at /metrics.
	Stats *sim.Stats
	// Hub is the live-telemetry fan-out behind /events.
	Hub *Hub
	// Progress supplies the /progress payload; the returned value is
	// marshaled as JSON on every request.
	Progress func() any
	// Gauges supplies extra /metrics gauges (name -> value); names are
	// sanitized but not prefixed.
	Gauges func() map[string]float64
}

// Server is one live monitor endpoint.
type Server struct {
	opt   Options
	ln    net.Listener
	srv   *http.Server
	start time.Time
}

// Listen binds addr (host:port; port 0 picks a free one) and serves the
// monitor endpoints from a background goroutine. Close shuts it down.
func Listen(addr string, opt Options) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("monitor: %w", err)
	}
	s := &Server{opt: opt, ln: ln, start: time.Now()}
	mux := http.NewServeMux()
	mux.HandleFunc("/", s.handleIndex)
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/events", s.handleEvents)
	mux.HandleFunc("/progress", s.handleProgress)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	s.srv = &http.Server{Handler: mux}
	go s.srv.Serve(ln)
	return s, nil
}

// Addr returns the bound address (useful with port 0).
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close stops the server, closing active SSE streams.
func (s *Server) Close() error { return s.srv.Close() }

func (s *Server) handleIndex(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" {
		http.NotFound(w, r)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintf(w, "kindle monitor\n\n/metrics\t\tPrometheus text exposition\n/events\t\t\tSSE: interval stat blocks + trace events (?queue=N)\n/progress\t\tJSON progress/ETA\n/debug/pprof/\tprofiling\n")
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	var extra map[string]float64
	if s.opt.Gauges != nil {
		extra = s.opt.Gauges()
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if err := writeMetrics(w, s.opt.Stats, extra, time.Since(s.start).Seconds()); err != nil {
		// The response is already partially written; nothing to do but log
		// at the connection level (the client sees the truncation).
		return
	}
}

func (s *Server) handleProgress(w http.ResponseWriter, r *http.Request) {
	if s.opt.Progress == nil {
		http.Error(w, "no progress source attached", http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(s.opt.Progress()); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

// sseEvent is the wire form of a trace event on /events.
type sseTraceEvent struct {
	Cat   string  `json:"cat"`
	Kind  string  `json:"kind"`
	Name  string  `json:"name"`
	TsNs  float64 `json:"ts_ns"`
	DurNs float64 `json:"dur_ns,omitempty"`
	Arg   string  `json:"arg,omitempty"`
	Val   uint64  `json:"val"`
}

type sseInterval struct {
	Index int    `json:"index"`
	Block string `json:"block"`
}

type sseDrops struct {
	Dropped uint64 `json:"dropped"`
}

func kindName(k obs.EventKind) string {
	switch k {
	case obs.KindSpan:
		return "span"
	case obs.KindCounter:
		return "counter"
	default:
		return "instant"
	}
}

// writeFrame renders one hub message as an SSE frame.
func writeFrame(w io.Writer, m Message) error {
	switch m.Kind {
	case KindInterval:
		data, err := json.Marshal(sseInterval{Index: m.Index, Block: string(m.Block)})
		if err != nil {
			return err
		}
		_, err = fmt.Fprintf(w, "event: interval\ndata: %s\n\n", data)
		return err
	case KindTrace:
		e := m.Event
		data, err := json.Marshal(sseTraceEvent{
			Cat:   e.Cat.String(),
			Kind:  kindName(e.Kind),
			Name:  e.Name,
			TsNs:  e.Ts.Nanos(),
			DurNs: e.Dur.Nanos(),
			Arg:   e.Arg,
			Val:   e.Val,
		})
		if err != nil {
			return err
		}
		_, err = fmt.Fprintf(w, "event: trace\ndata: %s\n\n", data)
		return err
	}
	return nil
}

// writeDropsFrame reports the subscriber's cumulative drop count.
func writeDropsFrame(w io.Writer, dropped uint64) error {
	data, _ := json.Marshal(sseDrops{Dropped: dropped})
	_, err := fmt.Fprintf(w, "event: drops\ndata: %s\n\n", data)
	return err
}

// handleEvents streams hub messages as server-sent events. ?queue=N sizes
// this subscriber's bounded queue (default DefaultSubscriberQueue); a
// subscriber that cannot keep up loses messages — the stream interleaves
// `drops` frames carrying the accurate cumulative count — and the
// simulation never blocks on it.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	if s.opt.Hub == nil {
		http.Error(w, "no event hub attached", http.StatusNotFound)
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		http.Error(w, "streaming unsupported", http.StatusInternalServerError)
		return
	}
	queue := 0
	if q := r.URL.Query().Get("queue"); q != "" {
		if n, err := strconv.Atoi(q); err == nil {
			queue = n
		}
	}
	sub := s.opt.Hub.Subscribe(queue)
	defer s.opt.Hub.Unsubscribe(sub)

	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-cache")
	h.Set("X-Accel-Buffering", "no")
	fmt.Fprint(w, ": kindle monitor event stream\n\n")
	fl.Flush()

	heartbeat := time.NewTicker(15 * time.Second)
	defer heartbeat.Stop()
	var reportedDrops uint64
	for {
		select {
		case <-r.Context().Done():
			return
		case m := <-sub.ch:
			if err := writeFrame(w, m); err != nil {
				return
			}
			if d := sub.Dropped(); d != reportedDrops {
				reportedDrops = d
				if err := writeDropsFrame(w, d); err != nil {
					return
				}
			}
			fl.Flush()
		case <-heartbeat.C:
			if _, err := fmt.Fprint(w, ": keep-alive\n\n"); err != nil {
				return
			}
			fl.Flush()
		}
	}
}
