package bench

import "testing"

// TestRunAllParallelDeterminism is the pin for the parallel runner: the
// full suite run with 8 workers must render byte-identically (text and
// CSV) to a sequential run. Every simulation owns its machine, so host
// scheduling must not leak into simulated results.
func TestRunAllParallelDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	seq, err := RunAll(Options{Scale: smokeOpts.Scale, Parallel: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	par, err := RunAll(Options{Scale: smokeOpts.Scale, Parallel: 8}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if s, p := seq.Render(), par.Render(); s != p {
		t.Errorf("parallel Render differs from sequential:\n--- sequential ---\n%s\n--- parallel ---\n%s", s, p)
	}
	if s, p := seq.RenderCSV(), par.RenderCSV(); s != p {
		t.Errorf("parallel CSV differs from sequential:\n--- sequential ---\n%s\n--- parallel ---\n%s", s, p)
	}
}

// TestRunAllProgressSerialized checks the progress callback fires once per
// experiment under parallel execution (callers need not lock).
func TestRunAllProgressSerialized(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	var lines []string
	_, err := RunAll(Options{Scale: smokeOpts.Scale, Parallel: 4}, func(s string) {
		lines = append(lines, s) // data race here would trip -race in make check
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(lines) != 10 {
		t.Fatalf("got %d progress lines, want 10: %v", len(lines), lines)
	}
	seen := map[string]bool{}
	for _, l := range lines {
		if seen[l] {
			t.Fatalf("duplicate progress line %q", l)
		}
		seen[l] = true
	}
}
