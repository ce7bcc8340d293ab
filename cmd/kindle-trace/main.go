// Command kindle-trace converts between Kindle's binary disk-image format
// and the human-readable text trace format, and prints summaries — the
// escape hatch for inspecting traces, diffing them in review, or importing
// externally produced ones (ChampSim-style trace interop).
//
// Usage:
//
//	kindle-trace -in images/Ycsb_mem.img -summary
//	kindle-trace -in images/Ycsb_mem.img -out trace.txt            # bin → text
//	kindle-trace -in trace.txt -text-in -text-out=false -out images/custom.img  # text → bin (v2)
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"kindle/internal/trace"
)

func main() {
	in := flag.String("in", "", "input trace file")
	out := flag.String("out", "", "output trace file (extension-independent; format by flags)")
	textIn := flag.Bool("text-in", false, "input is the text format (default: binary)")
	textOut := flag.Bool("text-out", true, "output in the text format (false: binary v2)")
	summary := flag.Bool("summary", false, "print a summary of the trace")
	flag.Parse()

	if *in == "" {
		fmt.Fprintln(os.Stderr, "kindle-trace: -in required")
		os.Exit(2)
	}
	f, err := os.Open(*in)
	if err != nil {
		fatal(err)
	}
	if !*textIn && *out == "" {
		// Summary only: stream the records instead of materializing them.
		err := summarize(os.Stdout, f)
		f.Close()
		if err != nil {
			fatal(err)
		}
		return
	}
	var img *trace.Image
	if *textIn {
		img, err = trace.DecodeText(f)
	} else {
		img, err = trace.Decode(f)
	}
	f.Close()
	if err != nil {
		fatal(err)
	}

	if *summary || *out == "" {
		writes := 0
		for _, rec := range img.Records {
			if rec.Op == trace.Write {
				writes++
			}
		}
		printSummary(os.Stdout, img.Benchmark, img.Areas, len(img.Records), writes)
	}
	if *out == "" {
		return
	}
	o, err := os.Create(*out)
	if err != nil {
		fatal(err)
	}
	defer o.Close()
	if *textOut {
		err = trace.EncodeText(o, img)
	} else {
		err = trace.EncodeV2(o, img, trace.StreamOptions{})
	}
	if err != nil {
		fatal(err)
	}
	fmt.Println("written:", *out)
}

// summarize streams a binary image of either format and prints its
// summary, keeping only running counts. The stream decoders refuse every
// record trace.Decode refuses, with the same error, so nothing is printed
// unless the whole trace is valid.
func summarize(w io.Writer, r io.Reader) error {
	src, err := trace.OpenStream(r)
	if err != nil {
		return err
	}
	defer src.Close()
	var n, writes int
	for {
		batch, err := src.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return err
		}
		n += len(batch)
		for _, rec := range batch {
			if rec.Op == trace.Write {
				writes++
			}
		}
	}
	printSummary(w, src.Benchmark(), src.Areas(), n, writes)
	return nil
}

// printSummary prints the record count, the read/write mix (as
// trace.Image.Mix computes it) and the area table.
func printSummary(w io.Writer, benchmark string, areas []trace.Area, records, writes int) {
	var readPct, writePct float64
	if records > 0 {
		writePct = 100 * float64(writes) / float64(records)
		readPct = 100 - writePct
	}
	footprint := (&trace.Image{Areas: areas}).Footprint()
	fmt.Fprintf(w, "benchmark: %s\n", benchmark)
	fmt.Fprintf(w, "records:   %d (%.1f%% read / %.1f%% write)\n", records, readPct, writePct)
	fmt.Fprintf(w, "footprint: %d KiB in %d areas\n", footprint/1024, len(areas))
	for i, a := range areas {
		kind := "DRAM"
		if a.NVM {
			kind = "NVM"
		}
		fmt.Fprintf(w, "  area %2d: %-16s %8d KiB  %s\n", i, a.Name, a.Size/1024, kind)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "kindle-trace:", err)
	os.Exit(1)
}
