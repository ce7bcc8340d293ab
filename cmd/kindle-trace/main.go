// Command kindle-trace converts between Kindle's binary disk-image format
// and the human-readable text trace format, and prints summaries — the
// escape hatch for inspecting traces, diffing them in review, or importing
// externally produced ones (ChampSim-style trace interop).
//
// Usage:
//
//	kindle-trace -in images/Ycsb_mem.img -summary
//	kindle-trace -in images/Ycsb_mem.img -out trace.txt            # bin → text
//	kindle-trace -in trace.txt -text-in -text-out=false -out images/custom.img  # text → bin (v2; -format v1 for flat)
package main

import (
	"flag"
	"fmt"
	"os"

	"kindle/internal/trace"
)

func main() {
	in := flag.String("in", "", "input trace file")
	out := flag.String("out", "", "output trace file (extension-independent; format by flags)")
	textIn := flag.Bool("text-in", false, "input is the text format (default: binary)")
	textOut := flag.Bool("text-out", true, "output in the text format (false: binary)")
	format := flag.String("format", "v2", "binary output format: v2 (chunked+compressed) or v1 (flat)")
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
		r, w := img.Mix()
		fmt.Printf("benchmark: %s\n", img.Benchmark)
		fmt.Printf("records:   %d (%.1f%% read / %.1f%% write)\n", len(img.Records), r, w)
		fmt.Printf("footprint: %d KiB in %d areas\n", img.Footprint()/1024, len(img.Areas))
		for i, a := range img.Areas {
			kind := "DRAM"
			if a.NVM {
				kind = "NVM"
			}
			fmt.Printf("  area %2d: %-16s %8d KiB  %s\n", i, a.Name, a.Size/1024, kind)
		}
	}
	if *out == "" {
		return
	}
	o, err := os.Create(*out)
	if err != nil {
		fatal(err)
	}
	defer o.Close()
	switch {
	case *textOut:
		err = trace.EncodeText(o, img)
	case *format == "v2":
		err = trace.EncodeV2(o, img, trace.StreamOptions{})
	case *format == "v1":
		err = trace.Encode(o, img)
	default:
		err = fmt.Errorf("unknown -format %q (want v1 or v2)", *format)
	}
	if err != nil {
		fatal(err)
	}
	fmt.Println("written:", *out)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "kindle-trace:", err)
	os.Exit(1)
}
