// Command kindle-prep is the preparation component's CLI: it traces a
// Table II benchmark (the Pin stand-in), captures its memory layout (the
// /proc/pid/maps + SniP capture) and generates the disk image plus the
// gemOS template code for the simulation component. Images are written in
// the chunked, compressed v2 format; -convert upgrades a v1 image to v2.
//
// Usage:
//
//	kindle-prep -benchmark Ycsb_mem -out ./images [-small] [-maps]
//	kindle-prep -convert images/Ycsb_mem.v1.img -o images/Ycsb_mem.img
package main

import (
	"flag"
	"fmt"
	"os"

	"kindle/internal/prep"
)

func main() {
	benchmark := flag.String("benchmark", "", "benchmark to trace (Gapbs_pr, G500_sssp, Ycsb_mem)")
	out := flag.String("out", "images", "output directory for the disk image and template")
	small := flag.Bool("small", false, "use the reduced test-scale configuration")
	maps := flag.Bool("maps", false, "print the captured /proc-style maps layout")
	list := flag.Bool("list", false, "list available benchmarks")
	convert := flag.String("convert", "", "rewrite an existing image (v1 or v2) as v2 instead of tracing")
	convOut := flag.String("o", "", "output path for -convert")
	flag.Parse()

	if *list {
		for _, b := range prep.Benchmarks() {
			fmt.Println(b)
		}
		return
	}
	if *convert != "" {
		if *convOut == "" {
			fmt.Fprintln(os.Stderr, "kindle-prep: -convert requires -o <output path>")
			os.Exit(2)
		}
		n, err := prep.ConvertImage(*convert, *convOut)
		if err != nil {
			fmt.Fprintln(os.Stderr, "kindle-prep:", err)
			os.Exit(1)
		}
		fmt.Printf("converted %s -> %s (v2, %d records)\n", *convert, *convOut, n)
		return
	}
	if *benchmark == "" {
		fmt.Fprintln(os.Stderr, "kindle-prep: -benchmark required (see -list)")
		os.Exit(2)
	}
	d := &prep.Driver{OutDir: *out, Small: *small}
	res, err := d.Run(*benchmark)
	if err != nil {
		fmt.Fprintln(os.Stderr, "kindle-prep:", err)
		os.Exit(1)
	}
	fmt.Printf("traced %s: %d records, %d areas, %.0f%% read / %.0f%% write, footprint %d KiB\n",
		*benchmark, res.Records, len(res.Image.Areas), res.ReadPct, res.WritePct, res.Image.Footprint()/1024)
	fmt.Println("disk image:", res.ImagePath)
	fmt.Println("template:  ", res.TemplatePath)
	if *maps {
		fmt.Print(res.MapsText)
	}
}
