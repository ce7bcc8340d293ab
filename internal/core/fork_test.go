package core

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"io"
	"strings"
	"sync"
	"testing"
	"time"

	"kindle/internal/machine"
	"kindle/internal/mem"
	"kindle/internal/persist"
	"kindle/internal/sim"
	"kindle/internal/trace"
)

// forkWarmup is the warm-prefix length for the fork identity tests: a
// multiple of the replay tick grain (32), mid-trace for the 20k-record
// small image.
const forkWarmup = 8000

// coldForkRun replays the image end-to-end on a fresh framework — the
// reference trajectory the forked runs must reproduce byte-for-byte. The
// run is split at the warmup boundary exactly like the forked run (same
// Step call sequence), so any dump difference is the fork's fault, not
// stepping granularity.
func coldForkRun(t *testing.T, cfg machine.Config, scheme *persist.Scheme) (string, uint64) {
	t.Helper()
	f := New(cfg)
	if scheme != nil {
		mgr, err := f.EnablePersistence(*scheme, 2*time.Millisecond)
		if err != nil {
			t.Fatal(err)
		}
		mgr.Start()
	}
	_, rep, err := f.LaunchInit(smallImage(t))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rep.Step(forkWarmup); err != nil {
		t.Fatal(err)
	}
	if err := rep.Run(); err != nil {
		t.Fatal(err)
	}
	return f.M.Stats.Dump(""), uint64(f.M.Clock.Now())
}

// warmForkRun replays the warm prefix once, snapshots, and finishes the
// trace on a resumed child. It returns the child's dump/clock plus the
// parent's after the parent also finishes its own run.
func warmForkRun(t *testing.T, cfg machine.Config, scheme *persist.Scheme) (child, parent string, childClock uint64) {
	t.Helper()
	img := smallImage(t)
	f := New(cfg)
	if scheme != nil {
		mgr, err := f.EnablePersistence(*scheme, 2*time.Millisecond)
		if err != nil {
			t.Fatal(err)
		}
		mgr.Start()
	}
	_, rep, err := f.LaunchInit(img)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rep.Step(forkWarmup); err != nil {
		t.Fatal(err)
	}
	snap := f.Snapshot(rep)

	cf, crep, err := RunFromSnapshot(snap, traceSource(t, img))
	if err != nil {
		t.Fatal(err)
	}
	if crep.Consumed() != forkWarmup {
		t.Fatalf("resumed replay at %d records, want %d", crep.Consumed(), forkWarmup)
	}
	if err := crep.Run(); err != nil {
		t.Fatal(err)
	}

	// The parent keeps running after the snapshot; COW must leave its
	// trajectory untouched.
	if err := rep.Run(); err != nil {
		t.Fatal(err)
	}
	return cf.M.Stats.Dump(""), f.M.Stats.Dump(""), uint64(cf.M.Clock.Now())
}

func traceSource(t *testing.T, img *trace.Image) trace.RecordSource {
	t.Helper()
	return trace.NewImageSource(img)
}

func TestForkIdentityPlainReplay(t *testing.T) {
	cfg := machine.TestConfig()
	wantDump, wantClock := coldForkRun(t, cfg, nil)
	child, parent, childClock := warmForkRun(t, cfg, nil)
	if childClock != wantClock {
		t.Fatalf("forked clock %d != cold %d", childClock, wantClock)
	}
	if child != wantDump {
		t.Fatalf("forked dump differs from cold boot:\n%s", firstDiff(child, wantDump))
	}
	if parent != wantDump {
		t.Fatalf("parent dump diverged after snapshot:\n%s", firstDiff(parent, wantDump))
	}
}

func TestForkIdentityWithPersistence(t *testing.T) {
	for _, scheme := range []persist.Scheme{persist.Rebuild, persist.Persistent} {
		scheme := scheme
		t.Run(scheme.String(), func(t *testing.T) {
			cfg := machine.TestConfig()
			wantDump, wantClock := coldForkRun(t, cfg, &scheme)
			child, parent, childClock := warmForkRun(t, cfg, &scheme)
			if childClock != wantClock {
				t.Fatalf("forked clock %d != cold %d", childClock, wantClock)
			}
			if child != wantDump {
				t.Fatalf("forked dump differs from cold boot:\n%s", firstDiff(child, wantDump))
			}
			if parent != wantDump {
				t.Fatalf("parent dump diverged after snapshot:\n%s", firstDiff(parent, wantDump))
			}
		})
	}
}

// TestForkIdentityEventClock forks a persistent replay right after an idle
// stretch and idles the child again before it finishes the trace: the
// checkpoint timers re-armed from the snapshot must fire at the same
// boundaries the event loop reaches on the cold run, and leave the same
// deadline pending.
func TestForkIdentityEventClock(t *testing.T) {
	const idle, tick = 5 * time.Millisecond, 10 * time.Microsecond
	cfg := machine.TestConfig()
	img := smallImage(t)
	// warm replays the prefix and idles once, exactly as far as the fork.
	warm := func() (*Framework, *Replay) {
		f := New(cfg)
		mgr, err := f.EnablePersistence(persist.Rebuild, 2*time.Millisecond)
		if err != nil {
			t.Fatal(err)
		}
		mgr.Start()
		_, rep, err := f.LaunchInit(img)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := rep.Step(forkWarmup); err != nil {
			t.Fatal(err)
		}
		f.RunIdle(idle, tick)
		return f, rep
	}
	// finish idles a second time and replays the rest of the trace. It
	// returns how many checkpoints that idle started and the deadline it
	// left pending.
	finish := func(f *Framework, rep *Replay) (started uint64, next sim.Cycles) {
		before := f.M.Stats.Get("persist.checkpoints_started")
		f.RunIdle(idle, tick)
		started = f.M.Stats.Get("persist.checkpoints_started") - before
		next, ok := f.M.Events.NextDeadline()
		if !ok {
			t.Fatal("no event pending after the idle stretch")
		}
		if err := rep.Run(); err != nil {
			t.Fatal(err)
		}
		return started, next
	}

	cold, crep := warm()
	coldIdle, coldNext := finish(cold, crep)
	if coldIdle == 0 {
		t.Fatal("the idle stretch started no checkpoint")
	}

	parent, prep := warm()
	child, chrep, err := RunFromSnapshot(parent.Snapshot(prep), traceSource(t, img))
	if err != nil {
		t.Fatal(err)
	}
	childIdle, childNext := finish(child, chrep)
	if childIdle != coldIdle {
		t.Fatalf("forked idle started %d checkpoints, cold %d", childIdle, coldIdle)
	}
	if childNext != coldNext {
		t.Fatalf("forked idle left deadline %d pending, cold %d", childNext, coldNext)
	}
	if got, want := child.M.Clock.Now(), cold.M.Clock.Now(); got != want {
		t.Fatalf("forked clock %d != cold %d", got, want)
	}
	if got, want := child.M.Stats.Dump(""), cold.M.Stats.Dump(""); got != want {
		t.Fatalf("forked dump differs from cold boot:\n%s", firstDiff(got, want))
	}
}

// TestForkSiblingsIndependent resumes several children from one snapshot
// concurrently; under -race this pins that siblings share no mutable
// state, and their dumps must all match the cold reference.
func TestForkSiblingsIndependent(t *testing.T) {
	cfg := machine.TestConfig()
	scheme := persist.Rebuild
	wantDump, _ := coldForkRun(t, cfg, &scheme)

	img := smallImage(t)
	f := New(cfg)
	mgr, err := f.EnablePersistence(scheme, 2*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	mgr.Start()
	_, rep, err := f.LaunchInit(img)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rep.Step(forkWarmup); err != nil {
		t.Fatal(err)
	}
	snap := f.Snapshot(rep)

	const siblings = 4
	dumps := make([]string, siblings)
	var wg sync.WaitGroup
	for i := 0; i < siblings; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			cf, crep, err := RunFromSnapshot(snap, traceSource(t, img))
			if err != nil {
				t.Error(err)
				return
			}
			if err := crep.Run(); err != nil {
				t.Error(err)
				return
			}
			dumps[i] = cf.M.Stats.Dump("")
		}(i)
	}
	// The parent races ahead at the same time — COW isolation both ways.
	if err := rep.Run(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	for i, d := range dumps {
		if d != wantDump {
			t.Fatalf("sibling %d dump differs from cold boot:\n%s", i, firstDiff(d, wantDump))
		}
	}
	if got := f.M.Stats.Dump(""); got != wantDump {
		t.Fatalf("parent dump diverged:\n%s", firstDiff(got, wantDump))
	}
}

// TestSnapshotSaveLoadRoundTrip serializes a snapshot to bytes and resumes
// from the decoded copy — the CLI's -snapshot-out/-snapshot-in path. A
// file Save stamps with the format version and a file in the unstamped
// envelope written before the stamp both resume to the cold run's clock
// and dump; a file stamped with the next version is refused with an error
// naming both versions.
func TestSnapshotSaveLoadRoundTrip(t *testing.T) {
	cfg := machine.TestConfig()
	scheme := persist.Rebuild
	wantDump, wantClock := coldForkRun(t, cfg, &scheme)

	img := smallImage(t)
	f := New(cfg)
	mgr, err := f.EnablePersistence(scheme, 2*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	mgr.Start()
	_, rep, err := f.LaunchInit(img)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rep.Step(forkWarmup); err != nil {
		t.Fatal(err)
	}
	snap := f.Snapshot(rep)
	// unstamped is the envelope as Save wrote it before the version stamp.
	type unstamped struct {
		Snap *Snapshot
		Img  mem.BackingImage
	}
	cases := []struct {
		name  string
		write func(w io.Writer) error
		want  string // the refusal; "" when the file must resume
	}{
		{"stamped", snap.Save, ""},
		{"unstamped", func(w io.Writer) error {
			return gob.NewEncoder(w).Encode(unstamped{Snap: snap, Img: snap.M.BackingImage()})
		}, ""},
		{"next-version", func(w io.Writer) error {
			return gob.NewEncoder(w).Encode(snapshotFile{Version: snapshotVersion + 1, Snap: snap, Img: snap.M.BackingImage()})
		}, fmt.Sprintf("snapshot file has format version %d, this build reads version %d", snapshotVersion+1, snapshotVersion)},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var buf bytes.Buffer
			if err := c.write(&buf); err != nil {
				t.Fatal(err)
			}
			loaded, err := LoadSnapshot(&buf)
			if c.want != "" {
				if err == nil || !strings.Contains(err.Error(), c.want) {
					t.Fatalf("LoadSnapshot: error %v, want one containing %q", err, c.want)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			cf, crep, err := RunFromSnapshot(loaded, traceSource(t, img))
			if err != nil {
				t.Fatal(err)
			}
			if err := crep.Run(); err != nil {
				t.Fatal(err)
			}
			if got := uint64(cf.M.Clock.Now()); got != wantClock {
				t.Fatalf("resumed clock %d != cold %d", got, wantClock)
			}
			if got := cf.M.Stats.Dump(""); got != wantDump {
				t.Fatalf("resumed dump differs from cold boot:\n%s", firstDiff(got, wantDump))
			}
		})
	}
}

// TestCorruptSnapshotFramesRefused loads frame images that BackingImage
// could not have written, through SetBackingImage and through LoadSnapshot
// of a saved file: a frame past the end of NVM, a frame number whose base
// address wraps around to DRAM, and a repeat of the first frame that would
// overwrite it with a zero page. Each must be refused with an error naming
// the entry and its frame number; the untouched image must load.
func TestCorruptSnapshotFramesRefused(t *testing.T) {
	cfg := machine.TestConfig()
	f := New(cfg)
	_, rep, err := f.LaunchInit(smallImage(t))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rep.Step(forkWarmup); err != nil {
		t.Fatal(err)
	}
	snap := f.Snapshot(rep)
	clean := snap.M.BackingImage()
	if len(clean.PFNs) == 0 {
		t.Fatal("snapshot holds no frames")
	}
	withFrame := func(pfn uint64) mem.BackingImage {
		return mem.BackingImage{
			PFNs:   append(append([]uint64(nil), clean.PFNs...), pfn),
			Frames: append(append([][]byte(nil), clean.Frames...), make([]byte, mem.PageSize)),
		}
	}
	last := len(clean.PFNs)
	pastNVM := mem.FrameNumber(cfg.Layout.NVMBase) + cfg.Layout.NVMSize/mem.PageSize + 4
	cases := []struct {
		name string
		img  mem.BackingImage
		want string // "" when the image must load
	}{
		{"clean", clean, ""},
		{"past-nvm", withFrame(pastNVM), fmt.Sprintf("frame %d: pfn %#x lies outside DRAM and NVM", last, pastNVM)},
		{"wraps-to-dram", withFrame(1 << 52), fmt.Sprintf("frame %d: pfn %#x lies outside DRAM and NVM", last, uint64(1<<52))},
		{"repeated", withFrame(clean.PFNs[0]), fmt.Sprintf("frame %d: pfn %#x does not follow", last, clean.PFNs[0])},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			check := func(path string, err error) {
				t.Helper()
				if c.want == "" {
					if err != nil {
						t.Fatalf("%s: %v", path, err)
					}
					return
				}
				if err == nil || !strings.Contains(err.Error(), c.want) {
					t.Fatalf("%s: error %v, want one containing %q", path, err, c.want)
				}
			}
			check("SetBackingImage", snap.M.SetBackingImage(c.img))

			var file bytes.Buffer
			if err := gob.NewEncoder(&file).Encode(snapshotFile{Snap: snap, Img: c.img}); err != nil {
				t.Fatal(err)
			}
			_, err := LoadSnapshot(&file)
			check("LoadSnapshot", err)
		})
	}
}

// TestForkThenCrashRecover crashes a forked machine and runs recovery on
// it: the crash's DRAM DropRange and the recovery's NVM reads all land on
// copy-on-write slabs shared with the still-running parent, which must
// stay byte-identical to a cold run throughout.
func TestForkThenCrashRecover(t *testing.T) {
	cfg := machine.TestConfig()
	img := smallImage(t)

	run := func(fork bool) (dump string, mapped int) {
		f := New(cfg)
		mgr, err := f.EnablePersistence(persist.Rebuild, 2*time.Millisecond)
		if err != nil {
			t.Fatal(err)
		}
		mgr.Start()
		_, rep, err := f.LaunchInit(img)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := rep.Step(forkWarmup); err != nil {
			t.Fatal(err)
		}
		var parent *Framework
		var parentRep *Replay
		if fork {
			snap := f.Snapshot(rep)
			parent, parentRep = f, rep
			f, rep, err = RunFromSnapshot(snap, traceSource(t, img))
			if err != nil {
				t.Fatal(err)
			}
		}
		if err := rep.Run(); err != nil {
			t.Fatal(err)
		}
		f.Manager().Checkpoint()
		f.Crash()
		procs, err := f.Recover(2 * time.Millisecond)
		if err != nil {
			t.Fatal(err)
		}
		if len(procs) != 1 {
			t.Fatalf("recovered %d processes, want 1", len(procs))
		}
		if fork {
			// The parent keeps replaying across the child's crash; its
			// final state must not have been disturbed.
			if err := parentRep.Run(); err != nil {
				t.Fatal(err)
			}
			if got := uint64(parent.M.Clock.Now()); got == 0 {
				t.Fatal("parent clock lost")
			}
		}
		return f.M.Stats.Dump(""), procs[0].Table.Mapped()
	}

	coldDump, coldMapped := run(false)
	forkDump, forkMapped := run(true)
	if forkMapped != coldMapped {
		t.Fatalf("forked recovery mapped %d pages, cold %d", forkMapped, coldMapped)
	}
	if forkDump != coldDump {
		t.Fatalf("forked crash/recover dump differs:\n%s", firstDiff(forkDump, coldDump))
	}
}

// firstDiff returns the first differing line pair of two dumps, keeping
// failure output readable.
func firstDiff(got, want string) string {
	g := bytes.Split([]byte(got), []byte("\n"))
	w := bytes.Split([]byte(want), []byte("\n"))
	n := len(g)
	if len(w) < n {
		n = len(w)
	}
	for i := 0; i < n; i++ {
		if !bytes.Equal(g[i], w[i]) {
			return "got:  " + string(g[i]) + "\nwant: " + string(w[i])
		}
	}
	return fmt.Sprintf("line counts differ: got %d, want %d", len(g), len(w))
}
