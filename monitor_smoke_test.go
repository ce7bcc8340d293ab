package kindle_test

// Monitor smoke test (`make monitorsmoke`, part of `make check`): run the
// real kindle binary (built once per test process, see kindleCLI) on a tiny
// replay with -monitor, and drive the live endpoint over HTTP — /metrics
// must parse as Prometheus text exposition and /progress must reach 100%. The child is a separate, non-instrumented
// process, so this also exercises live mid-run scraping (benign-race
// counter sampling) in a way in-process race-instrumented tests must not.

import (
	"bufio"
	"encoding/json"
	"io"
	"net/http"
	"os/exec"
	"strings"
	"testing"
	"time"

	"kindle/internal/obs/monitor"
)

func TestMonitorSmoke(t *testing.T) {
	bin, _ := kindleCLI(t)

	// -monitor-hold keeps the endpoint up after the replay finishes so the
	// test can observe the terminal /progress state without racing the
	// process exit; the child is killed as soon as we are done.
	cmd := exec.Command(bin,
		"-benchmark", "Ycsb_mem", "-small",
		"-stats-interval", "500us",
		"-monitor", "127.0.0.1:0",
		"-monitor-hold", "60s")
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stdout = nil
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		cmd.Process.Kill()
		cmd.Wait()
	}()

	// The monitor announces its bound address on stderr.
	addr := ""
	sc := bufio.NewScanner(stderr)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "monitor: listening on http://"); ok {
			addr = rest
			break
		}
	}
	if addr == "" {
		t.Fatalf("monitor address never announced on stderr (scan err %v)", sc.Err())
	}
	// Keep draining stderr so the child never blocks on a full pipe.
	go func() {
		for sc.Scan() {
		}
	}()

	// /progress must reach 100% (done, fraction 1) once the replay ends.
	type progress struct {
		RecordsReplayed int64   `json:"records_replayed"`
		RecordsTotal    int64   `json:"records_total"`
		Fraction        float64 `json:"fraction"`
		Done            bool    `json:"done"`
	}
	var p progress
	deadline := time.Now().Add(60 * time.Second)
	for {
		resp, err := http.Get("http://" + addr + "/progress")
		if err == nil {
			err = json.NewDecoder(resp.Body).Decode(&p)
			resp.Body.Close()
		}
		if err == nil && p.Done && p.Fraction == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("progress never reached 100%%: %+v (err %v)", p, err)
		}
		time.Sleep(50 * time.Millisecond)
	}
	if p.RecordsTotal > 0 && p.RecordsReplayed != p.RecordsTotal {
		t.Fatalf("done run consumed %d of %d records", p.RecordsReplayed, p.RecordsTotal)
	}

	// /metrics must be valid Prometheus text exposition carrying the
	// simulator's stats.
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
	if samples < 20 {
		t.Fatalf("only %d samples exposed", samples)
	}
	for _, want := range []string{"kindle_cpu_load", "kindle_nvm_write", "kindle_process_uptime_seconds"} {
		if !strings.Contains(body.String(), want) {
			t.Fatalf("metrics missing %q", want)
		}
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
}
