// Pipeline: the full Kindle workflow of Figure 3 — the preparation
// component traces an application (Pin stand-in), captures its memory
// layout (/proc maps + SniP), generates the disk image and the gemOS
// template; the simulation component then boots the machine, launches init
// from the image and replays the application. Uses the multi-threaded YCSB
// variant so the SniP-captured per-thread stacks are visible.
package main

import (
	"fmt"
	"log"
	"os"
	"strings"

	"kindle/internal/core"
	"kindle/internal/prep"
)

func main() {
	dir, err := os.MkdirTemp("", "kindle-pipeline")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	// ---- Preparation component ----
	d := &prep.Driver{OutDir: dir, Small: true}
	res, err := d.Run(prep.BenchYCSBMT)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("preparation: traced %s — %d records, %.0f%%/%.0f%% r/w\n",
		res.Image.Benchmark, res.Records, res.ReadPct, res.WritePct)
	fmt.Println("\ncaptured layout (/proc maps + SniP per-thread stacks):")
	for _, line := range strings.Split(strings.TrimSpace(res.MapsText), "\n") {
		fmt.Println("  " + line)
	}
	fmt.Println("\ndisk image:   ", res.ImagePath)
	fmt.Println("template code:", res.TemplatePath)
	fmt.Println("\ngenerated gemOS template (head):")
	for i, line := range strings.Split(res.TemplateCode, "\n") {
		if i >= 12 {
			fmt.Println("  ...")
			break
		}
		fmt.Println("  " + line)
	}

	// ---- Simulation component ----
	img, err := prep.ReadImageFile(res.ImagePath)
	if err != nil {
		log.Fatal(err)
	}
	f := core.NewDefault()
	_, rep, err := f.LaunchInit(img)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nsimulation: init launched with %d mmapped areas; replaying...\n",
		len(img.Areas))
	if err := rep.Run(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("done: %.3f ms simulated, %d TLB misses, %d LLC misses, %d NVM reads\n",
		f.M.ElapsedMillis(),
		f.M.Stats.Get("tlb.l2.miss"),
		f.M.Stats.Get("cache.llc.miss"),
		f.M.Stats.Get("nvm.read"))
}
