package prep

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"kindle/internal/trace"
)

func TestDriverRunsAllBenchmarks(t *testing.T) {
	d := &Driver{Small: true}
	for _, name := range Benchmarks() {
		res, err := d.Run(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.Image.Benchmark != name {
			t.Fatalf("benchmark name mismatch: %s", res.Image.Benchmark)
		}
		if len(res.Image.Records) == 0 {
			t.Fatalf("%s produced empty trace", name)
		}
		if res.MapsText == "" || res.TemplateCode == "" {
			t.Fatalf("%s missing artifacts", name)
		}
	}
}

func TestDriverRejectsUnknown(t *testing.T) {
	d := &Driver{Small: true}
	if _, err := d.Run("nosuch"); err == nil {
		t.Fatal("unknown benchmark accepted")
	}
}

func TestMapsTextFormat(t *testing.T) {
	d := &Driver{Small: true}
	res, _ := d.Run(BenchPageRank)
	lines := strings.Split(strings.TrimSpace(res.MapsText), "\n")
	if len(lines) != len(res.Image.Areas) {
		t.Fatalf("maps lines = %d, areas = %d", len(lines), len(res.Image.Areas))
	}
	for _, l := range lines {
		if !strings.Contains(l, "-") || !strings.Contains(l, "p ") {
			t.Fatalf("malformed maps line: %q", l)
		}
	}
	if !strings.Contains(res.MapsText, "[heap.rank]") {
		t.Fatal("heap area missing from maps")
	}
	if !strings.Contains(res.MapsText, "[stack.main]") {
		t.Fatal("stack area missing from maps (SniP capture)")
	}
}

func TestStackAreas(t *testing.T) {
	d := &Driver{Small: true}
	res, _ := d.Run(BenchYCSB)
	stacks := StackAreas(res.Image)
	if len(stacks) != 1 || !strings.HasPrefix(stacks[0].Name, "stack") {
		t.Fatalf("stacks = %+v", stacks)
	}
}

func TestTemplateCode(t *testing.T) {
	d := &Driver{Small: true}
	res, _ := d.Run(BenchSSSP)
	code := res.TemplateCode
	for _, want := range []string{"MAP_NVM", "mmap(NULL", "kindle_next_tuple", "munmap(", "G500_sssp"} {
		if !strings.Contains(code, want) {
			t.Fatalf("template missing %q", want)
		}
	}
	// One mmap per area.
	if got := strings.Count(code, "mmap(NULL"); got != len(res.Image.Areas) {
		t.Fatalf("mmap count %d, areas %d", got, len(res.Image.Areas))
	}
}

// writeV1Image traces benchmark without streaming and writes the trace as
// a v1 image with trace.Encode, returning the image's path and the run.
func writeV1Image(t *testing.T, dir, benchmark string) (string, *Result) {
	t.Helper()
	res, err := (&Driver{Small: true}).Run(benchmark)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := trace.Encode(&buf, res.Image); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, benchmark+".v1.img")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return path, res
}

func TestImageFileRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path, res := writeV1Image(t, dir, BenchYCSB)
	img, err := ReadImageFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(img.Records) != len(res.Image.Records) {
		t.Fatal("records lost in file round trip")
	}
	if _, err := ReadImageFile(filepath.Join(dir, "missing.img")); err == nil {
		t.Fatal("missing file accepted")
	}
}

// TestDriverStreamsV2 runs the driver in its default streaming mode:
// records must flow straight to the compressed on-disk image, never
// materializing, and the image must decode to exactly what a materialized
// run produces.
func TestDriverStreamsV2(t *testing.T) {
	dir := t.TempDir()
	d := &Driver{OutDir: dir, Small: true}
	res, err := d.Run(BenchYCSB)
	if err != nil {
		t.Fatal(err)
	}
	if res.ImagePath != filepath.Join(dir, "Ycsb_mem.img") {
		t.Fatalf("image path %q", res.ImagePath)
	}
	if len(res.Image.Records) != 0 {
		t.Fatalf("streaming run materialized %d records", len(res.Image.Records))
	}
	if res.Records == 0 || res.ReadPct <= 0 || res.WritePct <= 0 {
		t.Fatalf("summary empty: %d records, %.0f/%.0f", res.Records, res.ReadPct, res.WritePct)
	}

	ref, err := (&Driver{Small: true}).Run(BenchYCSB)
	if err != nil {
		t.Fatal(err)
	}
	img, err := ReadImageFile(res.ImagePath)
	if err != nil {
		t.Fatal(err)
	}
	if len(img.Records) != len(ref.Image.Records) {
		t.Fatalf("streamed image has %d records, materialized %d", len(img.Records), len(ref.Image.Records))
	}
	for i := range ref.Image.Records {
		if img.Records[i] != ref.Image.Records[i] {
			t.Fatalf("record %d differs: %+v != %+v", i, img.Records[i], ref.Image.Records[i])
		}
	}
	if res.Records != len(ref.Image.Records) {
		t.Fatalf("res.Records = %d, want %d", res.Records, len(ref.Image.Records))
	}
}

// TestDriverV2SmallerOnDisk checks the format actually pays for itself.
func TestDriverV2SmallerOnDisk(t *testing.T) {
	dir := t.TempDir()
	v1Path, _ := writeV1Image(t, dir, BenchYCSB)
	res, err := (&Driver{OutDir: dir, Small: true}).Run(BenchYCSB)
	if err != nil {
		t.Fatal(err)
	}
	s1 := fileSize(t, v1Path)
	s2 := fileSize(t, res.ImagePath)
	if s2*2 > s1 {
		t.Fatalf("v2 image %d B not ≥2x smaller than v1 %d B", s2, s1)
	}
}

func fileSize(t *testing.T, path string) int64 {
	t.Helper()
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return fi.Size()
}

// TestConvertImage upgrades a v1 image to v2 through the converter.
func TestConvertImage(t *testing.T) {
	dir := t.TempDir()
	v1Path, res := writeV1Image(t, dir, BenchYCSB)
	v2Path := filepath.Join(dir, "conv.v2.img")
	n, err := ConvertImage(v1Path, v2Path)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(res.Image.Records) {
		t.Fatalf("converted %d records, want %d", n, len(res.Image.Records))
	}
	f, err := os.Open(v2Path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := trace.ScanChunkIndex(f); err != nil {
		t.Fatalf("converted image is not v2: %v", err)
	}
	img, err := ReadImageFile(v2Path)
	if err != nil {
		t.Fatal(err)
	}
	if len(img.Records) != len(res.Image.Records) {
		t.Fatalf("converted image has %d records, want %d", len(img.Records), len(res.Image.Records))
	}
	for i := range res.Image.Records {
		if img.Records[i] != res.Image.Records[i] {
			t.Fatalf("record %d lost in conversion", i)
		}
	}
}

// TestConvertImageInPlace: converting a v1 image onto its own path must
// read the whole source before the destination is replaced, leaving a v2
// image of the same records.
func TestConvertImageInPlace(t *testing.T) {
	dir := t.TempDir()
	path, res := writeV1Image(t, dir, BenchYCSB)
	n, err := ConvertImage(path, path)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(res.Image.Records) {
		t.Fatalf("converted %d records, want %d", n, len(res.Image.Records))
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := trace.ScanChunkIndex(f); err != nil {
		t.Fatalf("converted image is not v2: %v", err)
	}
	img, err := ReadImageFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(img.Records, res.Image.Records) {
		t.Fatalf("in-place conversion changed the records (%d, want %d)", len(img.Records), len(res.Image.Records))
	}
}

// TestConvertImageFailureLeavesNoFile: a conversion that fails part way
// must leave neither a file at the destination nor its temporary file.
func TestConvertImageFailureLeavesNoFile(t *testing.T) {
	dir := t.TempDir()
	v1Path, _ := writeV1Image(t, dir, BenchYCSB)
	data, err := os.ReadFile(v1Path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(v1Path, data[:3000], 0o644); err != nil {
		t.Fatal(err)
	}
	dst := filepath.Join(dir, "conv.v2.img")
	if _, err := ConvertImage(v1Path, dst); err == nil {
		t.Fatal("converting a truncated image succeeded")
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.Name() != filepath.Base(v1Path) {
			t.Errorf("failed conversion left %s behind", e.Name())
		}
	}
}

// TestOpenImageStream decodes both formats through the streaming opener.
func TestOpenImageStream(t *testing.T) {
	dir := t.TempDir()
	v1Path, _ := writeV1Image(t, dir, BenchYCSB)
	res, err := (&Driver{OutDir: dir, Small: true}).Run(BenchYCSB)
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{v1Path, res.ImagePath} {
		src, err := OpenImageStream(path)
		if err != nil {
			t.Fatal(err)
		}
		if src.Benchmark() != BenchYCSB {
			t.Fatalf("%s: benchmark %q", path, src.Benchmark())
		}
		if src.Total() != res.Records {
			t.Fatalf("%s: total %d, want %d", path, src.Total(), res.Records)
		}
		n := 0
		for {
			batch, err := src.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatal(err)
			}
			n += len(batch)
		}
		if n != res.Records {
			t.Fatalf("%s: streamed %d of %d records", path, n, res.Records)
		}
		if err := src.Close(); err != nil {
			t.Fatal(err)
		}
	}
}
