package kindle_test

// Real-binary identity matrix (`make clismoke`, part of `make check`):
// build the kindle binary once per test process, write one tiny v2 image,
// and run each row's baseline argument list plus variants that must
// produce byte-identical stats dumps. This pins, end to end through flag
// parsing, file formats and process boundaries, that sharding, snapshot
// capture and resume, and seeded traffic leave the simulated results
// unchanged.

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"

	"kindle/internal/trace"
	"kindle/internal/workloads"
)

var (
	cliOnce  sync.Once
	cliDir   string // holds the binary and the image; removed by TestMain
	cliBin   string
	cliImage string
	cliErr   error
)

func TestMain(m *testing.M) {
	code := m.Run()
	if cliDir != "" {
		os.RemoveAll(cliDir)
	}
	os.Exit(code)
}

// kindleCLI returns the kindle binary and a tiny v2 YCSB image (1,024
// records per chunk, so even this trace splits into enough segments for 4
// shards to matter), building both on first use.
func kindleCLI(t *testing.T) (bin, image string) {
	t.Helper()
	gobin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go toolchain not on PATH")
	}
	cliOnce.Do(func() {
		if cliDir, cliErr = os.MkdirTemp("", "kindle-cli-"); cliErr != nil {
			return
		}
		bin := filepath.Join(cliDir, "kindle")
		if out, err := exec.Command(gobin, "build", "-o", bin, "./cmd/kindle").CombinedOutput(); err != nil {
			cliErr = fmt.Errorf("building cmd/kindle: %v\n%s", err, out)
			return
		}
		cfg := workloads.SmallYCSB()
		cfg.Ops = 20_000
		img, err := workloads.YCSB(cfg)
		if err != nil {
			cliErr = err
			return
		}
		image := filepath.Join(cliDir, "ycsb.ktrc")
		f, err := os.Create(image)
		if err != nil {
			cliErr = err
			return
		}
		if err := trace.EncodeV2(f, img, trace.StreamOptions{ChunkRecords: 1024}); err != nil {
			f.Close()
			cliErr = err
			return
		}
		if cliErr = f.Close(); cliErr == nil {
			cliBin, cliImage = bin, image
		}
	})
	if cliErr != nil {
		t.Fatal(cliErr)
	}
	return cliBin, cliImage
}

// cliRun is one kindle invocation of an identity row.
type cliRun struct {
	name string
	args []string
}

func TestCLIIdentity(t *testing.T) {
	bin, image := kindleCLI(t)
	snap := filepath.Join(t.TempDir(), "warm.snap")
	const spec = "tenants=6;ops=400;mix=scan:0.2,point:0.7,write:0.1;footprint=128KiB"
	traffic := []string{"-traffic", spec, "-seed", "7", "-small", "-persist", "rebuild", "-interval", "300us"}

	rows := []struct {
		name     string
		base     cliRun
		variants []cliRun // run in order, each diffed against base
		want     string   // a stat every dump must carry, if set
	}{
		{
			name:     "shards",
			base:     cliRun{"shards-1", []string{"-image", image, "-shards", "1"}},
			variants: []cliRun{{"shards-4", []string{"-image", image, "-shards", "4"}}},
		},
		{
			// Taking a snapshot must not perturb the run (copy-on-write),
			// and each resume must reproduce the cold trajectory. A resume
			// restores the captured persistence state itself.
			name: "snapshot",
			base: cliRun{"cold", []string{"-image", image, "-persist", "rebuild"}},
			variants: []cliRun{
				{"snapshot-out", []string{"-image", image, "-persist", "rebuild", "-snapshot-out", snap, "-snapshot-at", "8000"}},
				{"resume-1", []string{"-image", image, "-snapshot-in", snap}},
				{"resume-2", []string{"-image", image, "-snapshot-in", snap}},
			},
		},
		{
			// Same seed and spec, same arrivals, same schedule, same dump.
			name:     "traffic",
			base:     cliRun{"traffic", traffic},
			variants: []cliRun{{"traffic-again", traffic}},
			want:     "traffic.t0005.lat::samples",
		},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			base := runKindle(t, bin, row.base)
			if row.want != "" && !bytes.Contains(base, []byte(row.want)) {
				t.Fatalf("%s: stats dump lacks %s", row.base.name, row.want)
			}
			for _, v := range row.variants {
				if got := runKindle(t, bin, v); !bytes.Equal(base, got) {
					t.Fatalf("%s differs from %s:\n%s", v.name, row.base.name, firstLineDiff(base, got))
				}
			}
		})
	}

	// Bad arguments are refused up front with an error naming the flag, on
	// runs that would otherwise succeed.
	for _, bad := range []struct {
		flag string
		args []string
	}{
		{"-idle-tick", []string{"-image", image, "-persist", "rebuild", "-idle-after", "1ms", "-idle-tick=-1us"}},
		{"-idle-after", []string{"-image", image, "-idle-after=-1ms"}},
		{"-event-clock", []string{"-image", image, "-event-clock"}},
	} {
		t.Run("bad"+bad.flag, func(t *testing.T) {
			out, err := exec.Command(bin, bad.args...).CombinedOutput()
			if err == nil {
				t.Fatalf("kindle %s exited 0:\n%s", strings.Join(bad.args, " "), out)
			}
			if !bytes.Contains(out, []byte(bad.flag)) {
				t.Fatalf("error does not name %s:\n%s", bad.flag, out)
			}
		})
	}
}

// runKindle runs one invocation and returns its non-empty stats dump.
func runKindle(t *testing.T, bin string, r cliRun) []byte {
	t.Helper()
	statsOut := filepath.Join(t.TempDir(), r.name+".stats")
	if out, err := exec.Command(bin, slices.Concat(r.args, []string{"-stats-out", statsOut})...).CombinedOutput(); err != nil {
		t.Fatalf("kindle (%s): %v\n%s", r.name, err, out)
	}
	data, err := os.ReadFile(statsOut)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) == 0 {
		t.Fatalf("%s wrote an empty stats file", r.name)
	}
	return data
}
