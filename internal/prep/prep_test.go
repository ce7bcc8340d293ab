package prep

import (
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
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

func TestImageFileRoundTrip(t *testing.T) {
	dir := t.TempDir()
	d := &Driver{Small: true, OutDir: dir, Format: FormatV1}
	res, err := d.Run(BenchYCSB)
	if err != nil {
		t.Fatal(err)
	}
	if res.ImagePath != filepath.Join(dir, "Ycsb_mem.img") {
		t.Fatalf("image path %q", res.ImagePath)
	}
	img, err := ReadImageFile(res.ImagePath)
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
	dirV1 := t.TempDir()
	dirV2 := t.TempDir()
	if _, err := (&Driver{OutDir: dirV1, Small: true, Format: FormatV1}).Run(BenchYCSB); err != nil {
		t.Fatal(err)
	}
	if _, err := (&Driver{OutDir: dirV2, Small: true}).Run(BenchYCSB); err != nil {
		t.Fatal(err)
	}
	s1 := fileSize(t, filepath.Join(dirV1, BenchYCSB+".img"))
	s2 := fileSize(t, filepath.Join(dirV2, BenchYCSB+".img"))
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

// TestConvertImage round-trips v1 → v2 → v1 through the converter.
func TestConvertImage(t *testing.T) {
	dir := t.TempDir()
	res, err := (&Driver{OutDir: dir, Small: true, Format: FormatV1}).Run(BenchYCSB)
	if err != nil {
		t.Fatal(err)
	}
	v2Path := filepath.Join(dir, "conv.v2.img")
	n, err := ConvertImage(res.ImagePath, v2Path, FormatV2)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(res.Image.Records) {
		t.Fatalf("converted %d records, want %d", n, len(res.Image.Records))
	}
	v1Path := filepath.Join(dir, "conv.v1.img")
	if _, err := ConvertImage(v2Path, v1Path, FormatV1); err != nil {
		t.Fatal(err)
	}
	img, err := ReadImageFile(v1Path)
	if err != nil {
		t.Fatal(err)
	}
	for i := range res.Image.Records {
		if img.Records[i] != res.Image.Records[i] {
			t.Fatalf("record %d lost in conversion", i)
		}
	}
	if _, err := ConvertImage(res.ImagePath, v1Path, "v3"); err == nil {
		t.Fatal("unknown format accepted")
	}
}

// TestOpenImageStream decodes both formats through the streaming opener.
func TestOpenImageStream(t *testing.T) {
	dir := t.TempDir()
	for _, format := range []string{FormatV1, FormatV2} {
		d := &Driver{OutDir: filepath.Join(dir, format), Small: true, Format: format}
		res, err := d.Run(BenchYCSB)
		if err != nil {
			t.Fatal(err)
		}
		src, err := OpenImageStream(res.ImagePath)
		if err != nil {
			t.Fatal(err)
		}
		if src.Benchmark() != BenchYCSB {
			t.Fatalf("%s: benchmark %q", format, src.Benchmark())
		}
		if src.Total() != res.Records {
			t.Fatalf("%s: total %d, want %d", format, src.Total(), res.Records)
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
			t.Fatalf("%s: streamed %d of %d records", format, n, res.Records)
		}
		if err := src.Close(); err != nil {
			t.Fatal(err)
		}
	}
}
