package core

import (
	"bytes"
	"io"
	"testing"
	"time"

	"kindle/internal/mem"
	"kindle/internal/persist"
	"kindle/internal/trace"
	"kindle/internal/workloads"
)

func smallImage(t testing.TB) *trace.Image {
	t.Helper()
	cfg := workloads.SmallYCSB()
	cfg.Ops = 20_000
	img, err := workloads.YCSB(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return img
}

func TestPrepare(t *testing.T) {
	img, err := Prepare(BenchPageRank, true)
	if err != nil {
		t.Fatal(err)
	}
	if img.Benchmark != BenchPageRank {
		t.Fatal("wrong image")
	}
	if _, err := Prepare("bogus", true); err == nil {
		t.Fatal("bogus benchmark accepted")
	}
}

func TestLaunchInitMapsAreas(t *testing.T) {
	f := NewSmall()
	img := smallImage(t)
	p, rep, err := f.LaunchInit(img)
	if err != nil {
		t.Fatal(err)
	}
	// Every traced area has a VMA of the right kind.
	for i, a := range img.Areas {
		v := p.AS.Find(rep.bases[i])
		if v == nil {
			t.Fatalf("area %q unmapped", a.Name)
		}
		wantKind := mem.DRAM
		if a.NVM {
			wantKind = mem.NVM
		}
		if v.Kind != wantKind {
			t.Fatalf("area %q kind %v, want %v", a.Name, v.Kind, wantKind)
		}
	}
	lo, hi := rep.NVMRange()
	if lo == 0 || hi <= lo {
		t.Fatalf("NVM range [%#x, %#x)", lo, hi)
	}
}

func TestReplayRunsToCompletion(t *testing.T) {
	f := NewSmall()
	img := smallImage(t)
	_, rep, err := f.LaunchInit(img)
	if err != nil {
		t.Fatal(err)
	}
	before := f.M.Clock.Now()
	if err := rep.Run(); err != nil {
		t.Fatal(err)
	}
	if !rep.Done() || rep.Remaining() != 0 {
		t.Fatal("replay not done")
	}
	if f.M.Clock.Now() <= before {
		t.Fatal("replay consumed no simulated time")
	}
	if f.M.Stats.Get("cpu.load") == 0 || f.M.Stats.Get("cpu.store") == 0 {
		t.Fatal("no accesses recorded")
	}
	if err := rep.Teardown(); err != nil {
		t.Fatal(err)
	}
}

func TestReplayStepIncrements(t *testing.T) {
	f := NewSmall()
	img := smallImage(t)
	_, rep, _ := f.LaunchInit(img)
	done, err := rep.Step(100)
	if err != nil || done {
		t.Fatalf("step: done=%v err=%v", done, err)
	}
	if rep.Remaining() != len(img.Records)-100 {
		t.Fatalf("remaining = %d", rep.Remaining())
	}
}

func TestReplayDeterministic(t *testing.T) {
	run := func() uint64 {
		f := NewSmall()
		img := smallImage(t)
		_, rep, _ := f.LaunchInit(img)
		if err := rep.Run(); err != nil {
			t.Fatal(err)
		}
		return uint64(f.M.Clock.Now())
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("nondeterministic replay: %d vs %d cycles", a, b)
	}
}

func TestEndToEndPersistenceCrashRecover(t *testing.T) {
	f := NewSmall()
	mgr, err := f.EnablePersistence(persist.Rebuild, 10*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	img := smallImage(t)
	p, rep, err := f.LaunchInit(img)
	if err != nil {
		t.Fatal(err)
	}
	mgr.Start()
	if err := rep.Run(); err != nil {
		t.Fatal(err)
	}
	mgr.Checkpoint()
	mappedBefore := p.Table.Mapped()
	if mappedBefore == 0 {
		t.Fatal("nothing mapped after replay")
	}
	f.Crash()
	procs, err := f.Recover(10 * time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if len(procs) != 1 || procs[0].Name != img.Benchmark {
		t.Fatalf("recovered: %v", procs)
	}
	// NVM mappings survive; DRAM (stack) mappings refault.
	nvmPages := 0
	for _, a := range img.Areas {
		if a.NVM {
			nvmPages += int(a.Size / mem.PageSize)
		}
	}
	if got := procs[0].Table.Mapped(); got == 0 || got > mappedBefore {
		t.Fatalf("recovered mappings = %d (before crash %d)", got, mappedBefore)
	}
}

func TestPersistentSchemeEndToEnd(t *testing.T) {
	f := NewSmall()
	mgr, err := f.EnablePersistence(persist.Persistent, 10*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	img := smallImage(t)
	_, rep, err := f.LaunchInit(img)
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.Run(); err != nil {
		t.Fatal(err)
	}
	mgr.Checkpoint()
	f.Crash()
	procs, err := f.Recover(10 * time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if len(procs) != 1 {
		t.Fatalf("recovered %d", len(procs))
	}
	if procs[0].Table.Kind() != mem.NVM {
		t.Fatal("persistent table not NVM after recovery")
	}
}

func TestRecoveredReplayContinues(t *testing.T) {
	// A recovered process can keep executing against its recovered
	// address space.
	f := NewSmall()
	f.EnablePersistence(persist.Rebuild, 10*time.Millisecond)
	img := smallImage(t)
	_, rep, _ := f.LaunchInit(img)
	rep.Step(5000)
	f.Manager().Checkpoint()
	f.Crash()
	procs, err := f.Recover(10 * time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	rp := procs[0]
	f.K.Switch(rp)
	// Touch a recovered NVM page.
	var nvmVA uint64
	rp.AS.All()
	for _, v := range rp.AS.All() {
		if v.Kind == mem.NVM {
			nvmVA = v.Start
			break
		}
	}
	if nvmVA == 0 {
		t.Fatal("no NVM VMA after recovery")
	}
	if _, err := f.M.Core.Access(nvmVA, false, 8); err != nil {
		t.Fatalf("access after recovery: %v", err)
	}
}

func BenchmarkReplayYCSB(b *testing.B) {
	f := NewSmall()
	cfg := workloads.SmallYCSB()
	cfg.Ops = b.N
	if cfg.Ops < 1000 {
		cfg.Ops = 1000
	}
	img, _ := workloads.YCSB(cfg)
	_, rep, _ := f.LaunchInit(img)
	b.ResetTimer()
	if err := rep.Run(); err != nil {
		b.Fatal(err)
	}
}

func TestRebindAfterRecovery(t *testing.T) {
	f := NewSmall()
	f.EnablePersistence(persist.Rebuild, 10*time.Millisecond)
	img := smallImage(t)
	_, rep, err := f.LaunchInit(img)
	if err != nil {
		t.Fatal(err)
	}
	rep.Step(5000)
	f.Manager().Checkpoint()
	f.Crash()
	procs, err := f.Recover(10 * time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.Rebind(procs[0]); err != nil {
		t.Fatal(err)
	}
	if rep.P != procs[0] {
		t.Fatal("Rebind did not switch process")
	}
	// Replay continues against the recovered address space.
	if _, err := rep.Step(1000); err != nil {
		t.Fatalf("post-rebind step: %v", err)
	}
}

func TestRebindRejectsForeignProcess(t *testing.T) {
	f := NewSmall()
	img := smallImage(t)
	_, rep, _ := f.LaunchInit(img)
	stranger, _ := f.K.Spawn("stranger")
	if err := rep.Rebind(stranger); err == nil {
		t.Fatal("Rebind accepted a process without the replay areas")
	}
}

func TestRepeatedCrashRestartValidation(t *testing.T) {
	// The paper's §V-A validation: "crashing and restarting the
	// application multiple times". Replay a workload; every fifth of the
	// trace, checkpoint, crash, recover, rebind, and continue. The replay
	// must complete and the recovered process must stay usable throughout.
	f := NewSmall()
	if _, err := f.EnablePersistence(persist.Persistent, 5*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	img := smallImage(t)
	_, rep, err := f.LaunchInit(img)
	if err != nil {
		t.Fatal(err)
	}
	f.Manager().Start()
	chunk := len(img.Records) / 5
	for round := 0; round < 4; round++ {
		if _, err := rep.Step(chunk); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		f.Manager().Checkpoint()
		f.Crash()
		procs, err := f.Recover(5 * time.Millisecond)
		if err != nil {
			t.Fatalf("round %d recover: %v", round, err)
		}
		if len(procs) != 1 {
			t.Fatalf("round %d: %d processes", round, len(procs))
		}
		if err := rep.Rebind(procs[0]); err != nil {
			t.Fatalf("round %d rebind: %v", round, err)
		}
		f.K.Switch(procs[0])
		f.Manager().Start()
	}
	if err := rep.Run(); err != nil {
		t.Fatal(err)
	}
	if !rep.Done() {
		t.Fatal("trace not completed across 4 crashes")
	}
	if f.M.BootGeneration() != 4 {
		t.Fatalf("boot generation = %d", f.M.BootGeneration())
	}
}

// TestStreamReplayMatchesMaterialized pins result determinism across the
// two replay paths: streaming a v2-encoded image through LaunchStream must
// produce exactly the simulated clock and statistics of replaying the
// materialized image, chunk boundaries and pipelined decode notwithstanding.
func TestStreamReplayMatchesMaterialized(t *testing.T) {
	img := smallImage(t)

	runMaterialized := func() (uint64, string) {
		f := NewSmall()
		_, rep, err := f.LaunchInit(img)
		if err != nil {
			t.Fatal(err)
		}
		if err := rep.Run(); err != nil {
			t.Fatal(err)
		}
		return uint64(f.M.Clock.Now()), f.M.Stats.Dump("")
	}
	runStreamed := func(chunk int) (uint64, string) {
		var buf bytes.Buffer
		if err := trace.EncodeV2(&buf, img, trace.StreamOptions{ChunkRecords: chunk}); err != nil {
			t.Fatal(err)
		}
		src, err := trace.OpenStream(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		defer src.Close()
		f := NewSmall()
		_, rep, err := f.LaunchStream(src)
		if err != nil {
			t.Fatal(err)
		}
		if err := rep.Run(); err != nil {
			t.Fatal(err)
		}
		if rep.Consumed() != len(img.Records) {
			t.Fatalf("streamed %d of %d records", rep.Consumed(), len(img.Records))
		}
		return uint64(f.M.Clock.Now()), f.M.Stats.Dump("")
	}

	wantClock, wantStats := runMaterialized()
	for _, chunk := range []int{0, 777} { // default chunking and an odd size
		gotClock, gotStats := runStreamed(chunk)
		if gotClock != wantClock {
			t.Fatalf("chunk %d: clock %d != materialized %d", chunk, gotClock, wantClock)
		}
		if gotStats != wantStats {
			t.Fatalf("chunk %d: stats diverge from materialized replay", chunk)
		}
	}
}

// TestLaunchStreamUnknownTotal replays through a source that cannot report
// its length upfront (a non-seekable v2 stream): Done/Remaining must work
// off stream exhaustion.
func TestLaunchStreamUnknownTotal(t *testing.T) {
	img := smallImage(t)
	var buf bytes.Buffer
	if err := trace.EncodeV2(&buf, img, trace.StreamOptions{}); err != nil {
		t.Fatal(err)
	}
	src, err := trace.OpenStream(io.MultiReader(bytes.NewReader(buf.Bytes())))
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	f := NewSmall()
	_, rep, err := f.LaunchStream(src)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Total() != -1 || rep.Remaining() != -1 {
		t.Fatalf("total = %d, remaining = %d, want -1", rep.Total(), rep.Remaining())
	}
	if err := rep.Run(); err != nil {
		t.Fatal(err)
	}
	if !rep.Done() || rep.Consumed() != len(img.Records) {
		t.Fatalf("done=%v consumed=%d want %d", rep.Done(), rep.Consumed(), len(img.Records))
	}
}
