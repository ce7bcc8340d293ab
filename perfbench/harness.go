package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"time"
)

// profileHz is the CPU-profile sampling rate of traced runs: twice the
// runtime/pprof default, so a few seconds of runs give over a thousand
// samples. Rates above the kernel's timer tick (often 250 Hz) lose samples
// rather than gaining resolution.
const profileHz = 200

// sample is one successful measured run.
type sample struct {
	dur        time.Duration
	allocBytes uint64
	peakRSS    uint64
	res        runResult
	// layerNs is the run's CPU time per layer (traced runs only).
	layerNs map[string]int64
}

// harness runs jobs and keeps the invocation's correctness record: runs
// attempted, runs failed, and the stats digest every run must reproduce.
type harness struct {
	log       io.Writer
	attempted int
	failed    int
	digest    []byte
}

// measure runs j until budget has passed, and at least minRuns times,
// once per round with each tracer (nil for an untraced run); alternating
// keeps the host's slow drift out of comparisons between them. out[i]
// holds the runs made with tracers[i]. A run that errors or fails a check
// is counted and logged, not returned; the error result is for the harness
// itself failing.
func (h *harness) measure(j job, tracers []*tracer, budget time.Duration, minRuns int) ([][]sample, error) {
	out := make([][]sample, len(tracers))
	begin := time.Now()
	for n := 0; n < minRuns || time.Since(begin) < budget; n++ {
		for i, tr := range tracers {
			s, runErr, err := h.runOnce(j, tr)
			if err != nil {
				return nil, err
			}
			h.attempted++
			if runErr != nil {
				h.failed++
				fmt.Fprintf(h.log, "run %d failed: %v\n", h.attempted, runErr)
				continue
			}
			fmt.Fprintf(h.log, "run %d (traced %v): %.3fs, %d accesses, %.1f MiB allocated, %.1f MiB peak RSS\n",
				h.attempted, tr != nil, s.dur.Seconds(), s.res.accesses, float64(s.allocBytes)/(1<<20), float64(s.peakRSS)/(1<<20))
			out[i] = append(out[i], s)
		}
	}
	for _, runs := range out {
		if len(runs) == 0 {
			return nil, errors.New("every run failed")
		}
	}
	return out, nil
}

// runOnce times one run of j. Memory is returned to the OS and the peak-RSS
// mark reset first, so each run's allocation and peak are its own. Traced
// runs are CPU-profiled over exactly the timed region. runErr is the run
// failing or failing a check; err is the harness failing.
func (h *harness) runOnce(j job, tr *tracer) (s sample, runErr, err error) {
	debug.FreeOSMemory()
	if err := resetPeakRSS(); err != nil {
		return sample{}, nil, err
	}
	var prof bytes.Buffer
	if tr != nil {
		// Setting the rate first makes StartCPUProfile keep it (the
		// runtime prints a warning about the second rate and ignores it).
		runtime.SetCPUProfileRate(profileHz)
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return sample{}, nil, err
		}
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	res, runErr := j(tr)
	dur := time.Since(start)
	runtime.ReadMemStats(&after)
	if tr != nil {
		pprof.StopCPUProfile()
	}
	rss, err := peakRSS()
	if err != nil {
		return sample{}, nil, err
	}
	if runErr != nil {
		return sample{}, runErr, nil
	}
	if err := h.check(res, tr); err != nil {
		return sample{}, err, nil
	}
	s = sample{dur: dur, allocBytes: after.TotalAlloc - before.TotalAlloc, peakRSS: rss, res: res}
	if tr != nil {
		samples, err := parseProfile(prof.Bytes())
		if err != nil {
			return sample{}, nil, err
		}
		s.layerNs = attribute(samples)
		if res.probe != nil {
			if err := res.probe(); err != nil {
				return sample{}, err, nil
			}
		}
	}
	return s, nil, nil
}

// check is the correctness gate: a run must simulate some accesses, and
// the digest of its stats dumps and simulated time must match the first
// run's, since every run of one invocation replays the same inputs.
func (h *harness) check(res runResult, tr *tracer) error {
	if res.accesses == 0 {
		return errors.New("run simulated no accesses")
	}
	d := sha256.New()
	start := tr.start()
	for _, st := range res.stats {
		if err := st.WriteStatsFile(d); err != nil {
			return fmt.Errorf("dumping stats: %w", err)
		}
	}
	tr.end(spanDump, start)
	if err := binary.Write(d, binary.LittleEndian, uint64(res.simCycles)); err != nil {
		return err
	}
	sum := d.Sum(nil)
	if h.digest == nil {
		h.digest = sum
		return nil
	}
	if !bytes.Equal(sum, h.digest) {
		return fmt.Errorf("stats digest %x differs from the first run's %x", sum[:8], h.digest[:8])
	}
	return nil
}

// resetPeakRSS restarts the kernel's peak-RSS mark (VmHWM) at the current
// resident size.
func resetPeakRSS() error {
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		return fmt.Errorf("resetting peak RSS: %w", err)
	}
	return nil
}

// peakRSS reads the process's peak resident set size in bytes.
func peakRSS() (uint64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("reading peak RSS: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:")
		if !ok {
			continue
		}
		kb, err := strconv.ParseUint(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 10, 64)
		if err != nil {
			return 0, fmt.Errorf("reading peak RSS: %w", err)
		}
		return kb << 10, nil
	}
	return 0, errors.New("reading peak RSS: no VmHWM in /proc/self/status")
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// medianOf is the median of f over the samples.
func medianOf(ss []sample, f func(sample) float64) float64 {
	xs := make([]float64, len(ss))
	for i, s := range ss {
		xs[i] = f(s)
	}
	return median(xs)
}
