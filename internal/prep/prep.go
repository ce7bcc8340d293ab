// Package prep is Kindle's preparation component. In the paper it is the
// host-side half of the framework: a driver program coordinates the
// application's execution under Intel Pin (and SniP for per-thread stacks),
// captures the virtual memory layout from /proc/pid/maps, and an
// image/code generator turns the trace into (a) a disk image of
// (period, offset, operation, size, area) tuples for gem5 and (b) a gemOS
// template program that replays them.
//
// Here the instrumented workloads (internal/workloads) play the role of
// Pin: they emit the same tuples. This package provides the rest — the
// driver orchestration, the maps-format layout capture, the stack-area
// capture, the binary disk image on disk, and the generated template code.
package prep

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"kindle/internal/trace"
	"kindle/internal/workloads"
)

// Benchmark names accepted by the driver (Table II, plus the
// multi-threaded YCSB variant exercising the SniP stack capture).
const (
	BenchPageRank = "Gapbs_pr"
	BenchSSSP     = "G500_sssp"
	BenchYCSB     = "Ycsb_mem"
	BenchYCSBMT   = "Ycsb_mem_mt"
)

// Benchmarks lists the standard applications in Table II order (the
// multi-threaded variant last).
func Benchmarks() []string { return []string{BenchPageRank, BenchSSSP, BenchYCSB, BenchYCSBMT} }

// Result is everything the preparation run produces.
type Result struct {
	// Image holds the captured trace. When the driver streamed the
	// records straight to disk (OutDir set) it carries the header only —
	// benchmark and area table, no records; Records, ReadPct and WritePct
	// summarize the trace either way.
	Image        *trace.Image
	MapsText     string // /proc/pid/maps-style capture
	TemplateCode string // generated gemOS replay template
	ImagePath    string // written disk image ("" when OutDir unset)
	TemplatePath string

	Records  int // traced record count (also valid when streamed)
	ReadPct  float64
	WritePct float64
}

// Driver coordinates tracing and image generation, the role of the paper's
// driver program (1) and code/image generator (2).
type Driver struct {
	// OutDir, when set, receives the disk image and template code files.
	// Records then stream from the instrumented workload straight to a
	// compressed v2 image — the trace is never materialized in memory,
	// and the image carries the chunk index sharded replay needs.
	OutDir string
	// Small selects the reduced test-scale workload configurations.
	Small bool
}

// Run traces the named benchmark and generates its artifacts.
func (d *Driver) Run(benchmark string) (*Result, error) {
	var (
		imagePath string
		imageFile *os.File
		sw        *trace.StreamWriter
		sink      workloads.SinkOpenFunc
	)
	if d.OutDir != "" {
		if err := os.MkdirAll(d.OutDir, 0o755); err != nil {
			return nil, fmt.Errorf("prep: %w", err)
		}
		imagePath = filepath.Join(d.OutDir, benchmark+".img")
		sink = func(bm string, areas []trace.Area) (trace.RecordSink, error) {
			f, err := os.Create(imagePath)
			if err != nil {
				return nil, err
			}
			w, err := trace.NewStreamWriter(f, bm, areas, trace.StreamOptions{})
			if err != nil {
				f.Close()
				return nil, err
			}
			imageFile, sw = f, w
			return w, nil
		}
	}
	defer func() {
		// On error paths, don't leak the half-written image.
		if imageFile != nil {
			imageFile.Close()
			os.Remove(imagePath)
		}
	}()

	img, err := d.traceBenchmark(benchmark, sink)
	if err != nil {
		return nil, err
	}
	res := &Result{
		Image:        img,
		MapsText:     MapsText(img),
		TemplateCode: GenerateTemplate(img),
	}
	if sw != nil {
		if err := sw.Close(); err != nil {
			return nil, fmt.Errorf("prep: finishing image: %w", err)
		}
		if err := imageFile.Sync(); err != nil {
			return nil, fmt.Errorf("prep: %w", err)
		}
		if err := imageFile.Close(); err != nil {
			return nil, fmt.Errorf("prep: %w", err)
		}
		imageFile = nil
		res.ImagePath = imagePath
		res.Records = sw.Count()
		res.ReadPct, res.WritePct = sw.Mix()
	} else {
		res.Records = len(img.Records)
		res.ReadPct, res.WritePct = img.Mix()
	}
	if d.OutDir != "" {
		res.TemplatePath = filepath.Join(d.OutDir, benchmark+"_template.c")
		if err := os.WriteFile(res.TemplatePath, []byte(res.TemplateCode), 0o644); err != nil {
			return nil, fmt.Errorf("prep: writing template: %w", err)
		}
	}
	return res, nil
}

// traceBenchmark runs the instrumented application (the Pin stand-in). A
// non-nil sink streams records to disk as they are captured.
func (d *Driver) traceBenchmark(benchmark string, sink workloads.SinkOpenFunc) (*trace.Image, error) {
	switch benchmark {
	case BenchPageRank:
		cfg := workloads.DefaultPageRank()
		if d.Small {
			cfg = workloads.SmallPageRank()
		}
		cfg.Sink = sink
		return workloads.PageRank(cfg)
	case BenchSSSP:
		cfg := workloads.DefaultSSSP()
		if d.Small {
			cfg = workloads.SmallSSSP()
		}
		cfg.Sink = sink
		return workloads.SSSP(cfg)
	case BenchYCSB:
		cfg := workloads.DefaultYCSB()
		if d.Small {
			cfg = workloads.SmallYCSB()
		}
		cfg.Sink = sink
		return workloads.YCSB(cfg)
	case BenchYCSBMT:
		cfg := workloads.DefaultYCSBMT()
		if d.Small {
			cfg = workloads.SmallYCSBMT()
		}
		cfg.Sink = sink
		return workloads.YCSBMT(cfg)
	default:
		return nil, fmt.Errorf("prep: unknown benchmark %q (want one of %v)", benchmark, Benchmarks())
	}
}

// MapsText renders the captured virtual memory layout in the
// /proc/pid/maps format the driver program reads on Linux. Areas are
// placed at synthetic base addresses in capture order; stack areas (the
// SniP-captured regions for threads) render with their thread tag.
func MapsText(img *trace.Image) string {
	var b strings.Builder
	base := uint64(0x4000_0000)
	for _, a := range img.Areas {
		perms := "r--p"
		if a.Write {
			perms = "rw-p"
		}
		name := a.Name
		switch {
		case strings.HasPrefix(name, "heap"):
			name = "[" + name + "]"
		case strings.HasPrefix(name, "stack"):
			name = "[" + name + "]"
		}
		fmt.Fprintf(&b, "%012x-%012x %s 00000000 00:00 0    %s\n", base, base+a.Size, perms, name)
		base += a.Size + 0x10000 // guard gap
	}
	return b.String()
}

// StackAreas returns the stack areas of the image — the part of the layout
// SniP contributes for multi-threaded applications (the maps file alone
// cannot attribute thread stacks).
func StackAreas(img *trace.Image) []trace.Area {
	var out []trace.Area
	for _, a := range img.Areas {
		if strings.HasPrefix(a.Name, "stack") {
			out = append(out, a)
		}
	}
	return out
}

// GenerateTemplate emits the gemOS template program the code generator
// produces: heap and stack allocations matching the traced layout plus the
// replay loop reading tuples from the disk image. Users of Kindle edit this
// template to add functionality before launching init.
func GenerateTemplate(img *trace.Image) string {
	var b strings.Builder
	fmt.Fprintf(&b, "/* Generated by Kindle's code generator for %s.\n", img.Benchmark)
	b.WriteString(" * Allocations mirror the traced application's layout; the replay loop\n")
	b.WriteString(" * reads (period, offset, operation, size, area) tuples from the disk\n")
	b.WriteString(" * image and mimics each access. Edit before launching init if needed. */\n\n")
	b.WriteString("#include <gemos.h>\n\n")
	fmt.Fprintf(&b, "static void *area[%d];\n\n", len(img.Areas))
	b.WriteString("int main(void) {\n")
	for i, a := range img.Areas {
		flags := "0"
		if a.NVM {
			flags = "MAP_NVM"
		}
		prot := "PROT_READ"
		if a.Write {
			prot = "PROT_READ|PROT_WRITE"
		}
		fmt.Fprintf(&b, "    area[%d] = mmap(NULL, %d, %s, %s); /* %s */\n", i, a.Size, prot, flags, a.Name)
	}
	b.WriteString("\n    struct kindle_tuple t;\n")
	b.WriteString("    while (kindle_next_tuple(&t) == 0) {\n")
	b.WriteString("        char *p = (char *)area[t.area] + t.offset;\n")
	b.WriteString("        if (t.op == KINDLE_WRITE)\n")
	b.WriteString("            kindle_touch_write(p, t.size);\n")
	b.WriteString("        else\n")
	b.WriteString("            kindle_touch_read(p, t.size);\n")
	b.WriteString("    }\n\n")
	for i := range img.Areas {
		fmt.Fprintf(&b, "    munmap(area[%d], %d);\n", i, img.Areas[i].Size)
	}
	b.WriteString("    return 0;\n}\n")
	return b.String()
}

// ReadImageFile loads a disk image of either format (the decoder sniffs
// the version from the header).
func ReadImageFile(path string) (*trace.Image, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("prep: %w", err)
	}
	defer f.Close()
	img, err := trace.Decode(f)
	if err != nil {
		return nil, fmt.Errorf("prep: decoding %s: %w", path, err)
	}
	return img, nil
}

// ImageStream is an open disk image whose records decode on demand.
// Closing it closes the underlying file.
type ImageStream struct {
	trace.RecordSource
	f *os.File
}

// Close releases the decoder and the underlying file.
func (s *ImageStream) Close() error {
	err := s.RecordSource.Close()
	if cerr := s.f.Close(); err == nil {
		err = cerr
	}
	return err
}

// OpenImageStream opens a disk image (either format) for bounded-memory
// streamed replay with the default decode configuration. The caller must
// Close the returned stream.
func OpenImageStream(path string) (*ImageStream, error) {
	return OpenImageStreamConfig(path, trace.StreamConfig{})
}

// OpenImageStreamConfig is OpenImageStream with an explicit stream
// configuration (decode worker count).
func OpenImageStreamConfig(path string, cfg trace.StreamConfig) (*ImageStream, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("prep: %w", err)
	}
	src, err := trace.OpenStreamConfig(f, cfg)
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("prep: opening %s: %w", path, err)
	}
	return &ImageStream{RecordSource: src, f: f}, nil
}

// DecodeSource returns the stream's underlying record source — the target
// for trace.DecodeStatsSource type assertions, which the embedded-interface
// indirection would otherwise hide.
func (s *ImageStream) DecodeSource() trace.RecordSource { return s.RecordSource }

// ConvertImage rewrites a disk image of either format as a v2 image,
// streaming record by record, so the trace is never materialized; a v1
// image is thereby upgraded. It returns the number of records converted.
func ConvertImage(srcPath, dstPath string) (int, error) {
	src, err := OpenImageStream(srcPath)
	if err != nil {
		return 0, err
	}
	defer src.Close()
	f, err := os.Create(dstPath)
	if err != nil {
		return 0, fmt.Errorf("prep: %w", err)
	}
	defer f.Close()
	sw, err := trace.NewStreamWriter(f, src.Benchmark(), src.Areas(), trace.StreamOptions{})
	if err != nil {
		return 0, fmt.Errorf("prep: %w", err)
	}
	n, err := trace.CopyStream(sw, src)
	if err != nil {
		return 0, fmt.Errorf("prep: converting %s: %w", srcPath, err)
	}
	if err := sw.Close(); err != nil {
		return 0, fmt.Errorf("prep: finishing %s: %w", dstPath, err)
	}
	if err := f.Sync(); err != nil {
		return 0, fmt.Errorf("prep: %w", err)
	}
	if err := f.Close(); err != nil {
		return 0, fmt.Errorf("prep: %w", err)
	}
	return n, nil
}
