package monitor

import (
	"bufio"
	"fmt"
	"io"
	"regexp"
	"runtime"
	"sort"
	"strings"

	"kindle/internal/sim"
)

// metricPrefix namespaces every exported simulator stat.
const metricPrefix = "kindle_"

// sanitizeMetricName maps a dotted Kindle stat name onto the Prometheus
// metric-name alphabet [a-zA-Z_:][a-zA-Z0-9_:]*: every disallowed rune
// becomes '_'. The mapping keeps names 1:1 for Kindle's stat vocabulary
// (dots and dashes are the only offenders in practice).
func sanitizeMetricName(name string) string {
	var b strings.Builder
	b.Grow(len(name))
	for i, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r == '_', r == ':':
			b.WriteRune(r)
		case r >= '0' && r <= '9':
			if i == 0 {
				b.WriteByte('_')
			}
			b.WriteRune(r)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

// writeMetrics renders one Prometheus text-exposition (version 0.0.4)
// scrape: every registered counter and histogram of stats, the
// process/host gauges, and any caller-provided extra gauges. The scrape
// holds the registry's lock while Registered walks the names, so it waits
// only for a registration in flight; values are read with Sample, and the
// simulation is never paused.
func writeMetrics(w io.Writer, stats *sim.Stats, extra map[string]float64, uptimeSec float64) error {
	bw := bufio.NewWriter(w)

	if stats != nil {
		idx := stats.Registered()
		for _, c := range idx.Counters {
			name := metricPrefix + sanitizeMetricName(c.Name())
			fmt.Fprintf(bw, "# TYPE %s counter\n%s %d\n", name, name, c.Sample())
		}
		for _, h := range idx.Hists {
			hs := h.Sample()
			base := metricPrefix + sanitizeMetricName(h.Name())
			fmt.Fprintf(bw, "# TYPE %s histogram\n", base)
			bks := hs.Buckets()
			if len(bks) == 0 {
				// A histogram with no samples yet must still expose a
				// complete family: one finite bucket anchors the cumulative
				// `le` series at zero so scrapers never see the family
				// degenerate to a bare +Inf mid-run (registered-but-idle
				// stats are common early in a run).
				fmt.Fprintf(bw, "%s_bucket{le=\"0\"} 0\n", base)
			}
			var cum uint64
			for _, bk := range bks {
				cum += bk.Count
				fmt.Fprintf(bw, "%s_bucket{le=\"%d\"} %d\n", base, bk.Hi, cum)
			}
			fmt.Fprintf(bw, "%s_bucket{le=\"+Inf\"} %d\n", base, hs.Count)
			fmt.Fprintf(bw, "%s_sum %d\n", base, hs.Sum)
			fmt.Fprintf(bw, "%s_count %d\n", base, hs.Count)
			// The gem5 dump's ::min_value / ::max_value lines keep their own
			// series so the exposition stays 1:1 with the stats file.
			fmt.Fprintf(bw, "# TYPE %s_min_value gauge\n%s_min_value %d\n", base, base, hs.Min)
			fmt.Fprintf(bw, "# TYPE %s_max_value gauge\n%s_max_value %d\n", base, base, hs.Max)
		}
	}

	// Process/host gauges: enough to spot a wedged or thrashing run from
	// the scrape alone.
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	writeGauge(bw, "kindle_process_uptime_seconds", uptimeSec)
	writeGauge(bw, "kindle_process_goroutines", float64(runtime.NumGoroutine()))
	writeGauge(bw, "kindle_process_gomaxprocs", float64(runtime.GOMAXPROCS(0)))
	writeGauge(bw, "kindle_process_cpus", float64(runtime.NumCPU()))
	writeGauge(bw, "kindle_process_heap_alloc_bytes", float64(ms.HeapAlloc))
	writeGauge(bw, "kindle_process_sys_bytes", float64(ms.Sys))
	fmt.Fprintf(bw, "# TYPE kindle_process_gc_total counter\nkindle_process_gc_total %d\n", ms.NumGC)

	if len(extra) > 0 {
		names := make([]string, 0, len(extra))
		for k := range extra {
			names = append(names, k)
		}
		sort.Strings(names)
		for _, k := range names {
			writeGauge(bw, sanitizeMetricName(k), extra[k])
		}
	}
	return bw.Flush()
}

func writeGauge(w io.Writer, name string, v float64) {
	fmt.Fprintf(w, "# TYPE %s gauge\n%s %g\n", name, name, v)
}

var (
	promCommentRe  = regexp.MustCompile(`^# (HELP|TYPE) [a-zA-Z_:][a-zA-Z0-9_:]* ?.*$`)
	promSampleRe   = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^{}]*\})? (?:[-+]?[0-9]*\.?[0-9]+(?:[eE][-+]?[0-9]+)?|[-+]?Inf|NaN)(?: [0-9]+)?$`)
	promHistTypeRe = regexp.MustCompile(`^# TYPE ([a-zA-Z_:][a-zA-Z0-9_:]*) histogram$`)
	promBucketRe   = regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)_bucket\{le="([0-9]+)"\} ([0-9]+)$`)
	promSumCountRe = regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)_(sum|count) ([0-9]+)$`)
)

// histFamily accumulates what ValidateExposition saw of one declared
// histogram family.
type histFamily struct {
	finite    int    // finite-le bucket samples
	lastCum   uint64 // last cumulative bucket value
	monotone  bool
	infSeen   bool
	infVal    uint64
	sumSeen   bool
	countSeen bool
	countVal  uint64
}

// ValidateExposition checks that r is well-formed Prometheus text
// exposition (format 0.0.4): every line is a comment, a HELP/TYPE
// declaration, blank, or a sample with a legal metric name, optional
// labels, and a numeric value. Every family declared `# TYPE ... histogram`
// must additionally be complete — at least one finite `le` bucket (an empty
// histogram exposes `le="0"` 0, never a bare +Inf), a +Inf bucket agreeing
// with `_count`, a `_sum`, and a cumulative non-decreasing bucket series.
// It returns the number of sample lines. This is the parser the monitor
// smoke test (and CI) gates /metrics with.
func ValidateExposition(r io.Reader) (samples int, err error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	lineNo := 0
	hists := map[string]*histFamily{}
	var histOrder []string
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		switch {
		case line == "":
			continue
		case strings.HasPrefix(line, "#"):
			if strings.HasPrefix(line, "# HELP") || strings.HasPrefix(line, "# TYPE") {
				if !promCommentRe.MatchString(line) {
					return samples, fmt.Errorf("monitor: exposition line %d: malformed declaration %q", lineNo, line)
				}
			}
			if m := promHistTypeRe.FindStringSubmatch(line); m != nil {
				if _, ok := hists[m[1]]; !ok {
					hists[m[1]] = &histFamily{monotone: true}
					histOrder = append(histOrder, m[1])
				}
			}
			continue
		default:
			if !promSampleRe.MatchString(line) {
				return samples, fmt.Errorf("monitor: exposition line %d: malformed sample %q", lineNo, line)
			}
			samples++
			if m := promBucketRe.FindStringSubmatch(line); m != nil {
				if f, ok := hists[m[1]]; ok {
					v := mustUint(m[3])
					if v < f.lastCum {
						f.monotone = false
					}
					f.lastCum = v
					f.finite++
				}
				continue
			}
			// +Inf buckets carry a non-integer label; match them apart.
			if i := strings.Index(line, "_bucket{le=\"+Inf\"} "); i > 0 {
				if f, ok := hists[line[:i]]; ok {
					f.infSeen = true
					f.infVal = mustUint(line[i+len(`_bucket{le="+Inf"} `):])
				}
				continue
			}
			if m := promSumCountRe.FindStringSubmatch(line); m != nil {
				if f, ok := hists[m[1]]; ok {
					if m[2] == "sum" {
						f.sumSeen = true
					} else {
						f.countSeen = true
						f.countVal = mustUint(m[3])
					}
				}
			}
		}
	}
	if err := sc.Err(); err != nil {
		return samples, err
	}
	if samples == 0 {
		return 0, fmt.Errorf("monitor: exposition contains no samples")
	}
	for _, name := range histOrder {
		f := hists[name]
		switch {
		case f.finite == 0:
			return samples, fmt.Errorf("monitor: histogram %s has no finite le bucket (empty histograms must expose le=\"0\")", name)
		case !f.infSeen:
			return samples, fmt.Errorf("monitor: histogram %s has no +Inf bucket", name)
		case !f.countSeen || !f.sumSeen:
			return samples, fmt.Errorf("monitor: histogram %s is missing _sum or _count", name)
		case f.infVal != f.countVal:
			return samples, fmt.Errorf("monitor: histogram %s +Inf bucket %d disagrees with _count %d", name, f.infVal, f.countVal)
		case !f.monotone || f.lastCum > f.infVal:
			return samples, fmt.Errorf("monitor: histogram %s bucket series is not cumulative", name)
		}
	}
	return samples, nil
}

func mustUint(s string) uint64 {
	var v uint64
	for i := 0; i < len(s); i++ {
		v = v*10 + uint64(s[i]-'0')
	}
	return v
}
