package kindle_test

// Monitor smoke test (`make monitorsmoke`, part of `make check`): run the
// real kindle binary (built once per test process, see kindleCLI) with
// -monitor in every mode — replay, -snapshot-in resume, -traffic and
// -shards — and drive the live endpoint over HTTP: /metrics must parse as
// Prometheus text exposition and /progress must reach 100% under the
// mode's own JSON field names. The single-machine modes must also serve
// /events and the resident-frame gauges. The child is a separate,
// non-instrumented process, so this also exercises live mid-run scraping
// (benign-race counter sampling) in a way in-process race-instrumented
// tests must not.

import (
	"bufio"
	"encoding/json"
	"io"
	"net/http"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"kindle/internal/obs/monitor"
)

func TestMonitorSmoke(t *testing.T) {
	bin, image := kindleCLI(t)
	snap := filepath.Join(t.TempDir(), "warm.snap")
	if out, err := exec.Command(bin, "-image", image, "-persist", "rebuild", "-snapshot-out", snap, "-snapshot-at", "8000").CombinedOutput(); err != nil {
		t.Fatalf("writing the snapshot to resume: %v\n%s", err, out)
	}
	replayFields := []string{"records_replayed", "records_total", "fraction", "done"}

	for _, mode := range []struct {
		name       string
		args       []string
		fields     []string // /progress JSON fields: units done, their total, then the rest
		single     bool     // one machine: /events, stats counters and resident-frame gauges
		want       []string // metrics every scrape must carry
		minSamples int      // /metrics must expose at least this many samples
	}{
		{
			name:       "replay",
			args:       []string{"-benchmark", "Ycsb_mem", "-small", "-stats-interval", "500us"},
			fields:     replayFields,
			single:     true,
			minSamples: 20,
		},
		{
			name:       "snapshot-in",
			args:       []string{"-image", image, "-snapshot-in", snap},
			fields:     replayFields,
			single:     true,
			minSamples: 20,
		},
		{
			name:       "traffic",
			args:       []string{"-traffic", "tenants=6;ops=400;footprint=128KiB", "-seed", "7", "-small", "-stats-interval", "100us"},
			fields:     []string{"ops_done", "ops_total", "fraction", "tenants", "done"},
			single:     true,
			minSamples: 20,
		},
		{
			name:   "shards",
			args:   []string{"-image", image, "-shards", "2"},
			fields: []string{"records_replayed", "records_total", "fraction", "shards", "done"},
			want:   []string{"kindle_shards", "kindle_shard_fraction"},
			// No stats registry: the process gauges and the four shard
			// progress gauges.
			minSamples: 11,
		},
	} {
		t.Run(mode.name, func(t *testing.T) {
			addr := startMonitored(t, bin, mode.args)
			p := waitDone(t, addr)
			for _, f := range mode.fields {
				if _, ok := p[f]; !ok {
					t.Fatalf("/progress lacks %q: %v", f, p)
				}
			}
			if done, total := p[mode.fields[0]], p[mode.fields[1]].(float64); total > 0 && done != total {
				t.Fatalf("done run reports %v of %v", done, total)
			}

			want := mode.want
			if mode.single {
				want = []string{"kindle_cpu_load", "kindle_nvm_write", "kindle_mem_resident_frames", "kindle_mem_resident_bytes"}
			}
			checkMetrics(t, addr, mode.minSamples, slices.Concat(want, []string{"kindle_process_uptime_seconds"}))
			if mode.single {
				checkEvents(t, addr)
			}

			// pprof rides on the same mux.
			pp, err := http.Get("http://" + addr + "/debug/pprof/")
			if err != nil {
				t.Fatal(err)
			}
			pp.Body.Close()
			if pp.StatusCode != http.StatusOK {
				t.Fatalf("pprof index = %d", pp.StatusCode)
			}
		})
	}
}

// startMonitored starts kindle with args and a monitor on a free port, and
// returns the address it announces on stderr. -monitor-hold keeps the
// endpoint up after the run so the test observes the terminal /progress
// state without racing the exit; the child is killed at cleanup.
func startMonitored(t *testing.T, bin string, args []string) string {
	t.Helper()
	cmd := exec.Command(bin, slices.Concat(args, []string{"-monitor", "127.0.0.1:0", "-monitor-hold", "60s"})...)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		cmd.Process.Kill()
		cmd.Wait()
	})
	sc := bufio.NewScanner(stderr)
	for sc.Scan() {
		if addr, ok := strings.CutPrefix(sc.Text(), "monitor: listening on http://"); ok {
			// Keep draining stderr so the child never blocks on a full pipe.
			go func() {
				for sc.Scan() {
				}
			}()
			return addr
		}
	}
	t.Fatalf("monitor address never announced on stderr (scan err %v)", sc.Err())
	return ""
}

// waitDone polls /progress until the run reports done at fraction 1 and
// returns that payload.
func waitDone(t *testing.T, addr string) map[string]any {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for {
		var p map[string]any
		resp, err := http.Get("http://" + addr + "/progress")
		if err == nil {
			err = json.NewDecoder(resp.Body).Decode(&p)
			resp.Body.Close()
		}
		if err == nil && p["done"] == true && p["fraction"] == 1.0 {
			return p
		}
		if time.Now().After(deadline) {
			t.Fatalf("progress never reached 100%%: %v (err %v)", p, err)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// checkMetrics scrapes /metrics, validates the exposition and requires at
// least minSamples samples and each of want.
func checkMetrics(t *testing.T, addr string, minSamples int, want []string) {
	t.Helper()
	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Fatalf("metrics Content-Type = %q", ct)
	}
	var body strings.Builder
	samples, err := monitor.ValidateExposition(io.TeeReader(resp.Body, &body))
	if err != nil {
		t.Fatalf("exposition invalid: %v", err)
	}
	if samples < minSamples {
		t.Fatalf("only %d samples exposed, want at least %d", samples, minSamples)
	}
	for _, w := range want {
		if !strings.Contains(body.String(), w) {
			t.Fatalf("metrics missing %q", w)
		}
	}
}

// checkEvents opens the /events stream and requires it to be served.
func checkEvents(t *testing.T, addr string) {
	t.Helper()
	resp, err := http.Get("http://" + addr + "/events")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); resp.StatusCode != http.StatusOK || ct != "text/event-stream" {
		t.Fatalf("/events = %d %q", resp.StatusCode, ct)
	}
}
